"""The fused batch query kernel (DESIGN.md §11).

Batch queries on the REncoder family run through one kernel,
:class:`~repro.core.kernels.fused.NumpyKernel`: dyadic decomposition,
hash mixing and RBF bit-tests vectorised over the whole batch.  Ancestor
and point probes test one bit each (``k`` word gathers, plus the
mirror-root word when the hash-prefix level is stored); the doubting
descent fetches each (sub-range, group, hash prefix) Bitmap Tree once
and resolves every level inside it with word-level bit operations.  The
scalar descent (:meth:`REncoder.query_range`) is its oracle: the
property suite in ``tests/test_kernels.py`` asserts the two are
bit-identical.
"""

from __future__ import annotations

__all__ = ["default_backend", "get_kernel"]


def default_backend() -> str:
    """Name of the kernel batch queries run on (there is only one)."""
    return "numpy"


def get_kernel(filt):
    """The (cached) fused kernel bound to ``filt``.

    Kernels are cached per filter and invalidated by
    ``_finalise_levels`` (the only operation that changes the level
    plan).
    """
    kernel = getattr(filt, "_kernel_cache", None)
    if kernel is None:
        from repro.core.kernels.fused import NumpyKernel

        kernel = filt._kernel_cache = NumpyKernel(filt)
    return kernel
