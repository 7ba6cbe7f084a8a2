"""Common interface for every range filter in the repository.

The bench harness (and the LSM / B+tree / R-tree substrates) treat all
filters uniformly through this ABC: REncoder and its variants, Rosetta,
SuRF, SNARF, Proteus, the plain Bloom filter and the prefix Bloom filter.

Contract
--------
* ``query_range(lo, hi)`` / ``query_point(key)`` — one-sided: a ``False``
  answer is always correct (no false negatives); ``True`` may be a false
  positive.  This invariant is property-tested for every implementation.
* ``size_in_bits()`` — the memory the structure actually occupies, used for
  bits-per-key (BPK) accounting in all experiments.
* ``probe_count`` — number of memory-probe-equivalent operations performed
  since the last ``reset_counters()``; the harness reports it alongside
  wall-clock throughput because in a pure-Python reproduction the probe
  count is the architecture-independent signal behind the paper's
  filter-throughput figures.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import FilterCorruptionError
from repro.telemetry.instrument import Instrumented

__all__ = ["RangeFilter", "as_key_array"]

_KEY_DOMAIN = 1 << 64


def as_key_array(keys: Iterable[int] | np.ndarray) -> np.ndarray:
    """Normalise a key collection to a sorted, de-duplicated uint64 array.

    Keys must be integers in ``[0, 2^64)``: anything else raises
    ``TypeError`` (not an integer) or ``ValueError`` (out of range)
    instead of being wrapped or rounded by an implicit numpy cast.
    """
    if isinstance(keys, np.ndarray):
        items, arr = None, keys
    else:
        items = list(keys)
        arr = np.asarray(items)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint64)
    kind = arr.dtype.kind
    if kind == "O" or (kind == "f" and items is not None):
        # numpy infers float64 for Python ints straddling 2^63 and
        # object for ints past 64 bits: convert the exact values.
        arr = _exact_uint64(arr.tolist() if items is None else items)
    elif kind == "i":
        lowest = int(arr.min())
        if lowest < 0:
            raise ValueError(f"key {lowest} outside [0, 2^64)")
    elif kind != "u":
        raise TypeError(f"keys must be integers, got dtype {arr.dtype}")
    return np.unique(arr.astype(np.uint64, copy=False))


def _exact_uint64(items: list) -> np.ndarray:
    """uint64 array of Python/numpy integers, range-checked one by one."""
    for key in items:
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
            raise TypeError(
                f"keys must be integers, got {type(key).__name__} {key!r}"
            )
        if not 0 <= key < _KEY_DOMAIN:
            raise ValueError(f"key {key} outside [0, 2^64)")
    return np.array([int(key) for key in items], dtype=np.uint64)


class RangeFilter(Instrumented, abc.ABC):
    """Abstract base class for approximate range-membership filters.

    Also an :class:`~repro.telemetry.instrument.Instrumented` structure:
    every filter exposes at least its size and probe count as pull-based
    telemetry gauges; subclasses with richer internal state (REncoder's
    load factor and stored-level span, the RBF's fetch counters) extend
    ``_TELEMETRY``.
    """

    #: Human-readable name used in result tables (overridden per class).
    name: str = "filter"

    #: Baseline gauges every filter can answer (see ``Instrumented``).
    _TELEMETRY = ("size_in_bits", "probe_count")

    def __init__(self, key_bits: int = 64) -> None:
        if not 1 <= key_bits <= 64:
            raise ValueError(f"key_bits must be in [1, 64], got {key_bits}")
        self.key_bits = key_bits

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def query_range(self, lo: int, hi: int) -> bool:
        """May the set contain any key in ``[lo, hi]`` (inclusive)?"""

    def query_point(self, key: int) -> bool:
        """May the set contain ``key``?  Default: degenerate range query."""
        return self.query_range(key, key)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Occupied memory in bits."""

    @property
    def probe_count(self) -> int:
        """Memory-probe-equivalents since the last reset (0 if untracked)."""
        return 0

    def reset_counters(self) -> None:
        """Reset probe statistics.  Subclasses with counters override."""

    # ------------------------------------------------------------------
    # self-checks
    # ------------------------------------------------------------------
    def verify_invariants(
        self,
        keys: "Iterable[int] | np.ndarray | None" = None,
        *,
        sample: int = 32,
    ) -> bool:
        """Structural self-check; raises on violation, returns True.

        The base contract every filter can be held to: a sane size, and —
        when the source ``keys`` are available — the one-sided guarantee
        itself, probed on up to ``sample`` evenly spaced keys (no RNG, so
        the check is deterministic).  Subclasses with internal structure
        (REncoder's stored-level bitmap, load factor) extend this.

        Raises
        ------
        FilterCorruptionError
            If any invariant fails — the same typed error the persistence
            layer raises, so a caller recovering a deserialized filter
            handles "bytes were valid but the structure is wrong" and
            "bytes were corrupt" identically.
        """
        if self.size_in_bits() < 0:
            raise FilterCorruptionError(
                f"negative size_in_bits: {self.size_in_bits()}"
            )
        if keys is not None:
            arr = np.asarray(
                list(keys) if not isinstance(keys, np.ndarray) else keys
            )
            if arr.size:
                step = max(1, arr.size // max(1, sample))
                for key in arr[::step][:sample]:
                    if not self.query_point(int(key)):
                        raise FilterCorruptionError(
                            f"false negative on stored key {int(key)}: "
                            "one-sided guarantee violated"
                        )
        return True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def bits_per_key(self, n_keys: int) -> float:
        """Size in bits divided by the number of keys it was built for."""
        if n_keys <= 0:
            raise ValueError(f"n_keys must be positive, got {n_keys}")
        return self.size_in_bits() / n_keys

    def _check_range(self, lo: int, hi: int) -> None:
        top = (1 << self.key_bits) - 1
        if not 0 <= lo <= hi <= top:
            raise ValueError(
                f"invalid range [{lo}, {hi}] for {self.key_bits}-bit keys"
            )

    def query_many(self, ranges: Sequence[tuple[int, int]]) -> list[bool]:
        """Answer a batch of range queries.

        Dispatches to the subclass's vectorised ``query_range_many`` fast
        path when one is defined (REncoder and its variants); otherwise
        falls back to the scalar loop.  Answers are identical either way
        — the fast path is property-tested to be bit-identical.
        """
        fast = getattr(self, "query_range_many", None)
        if fast is not None:
            return [bool(a) for a in fast(ranges)]
        return [self.query_range(int(lo), int(hi)) for lo, hi in ranges]

    def query_point_many(self, keys: Iterable[int]) -> Sequence[bool]:
        """Answer a batch of point queries.

        Subclasses with a vectorised path (REncoder family) override this
        and return a numpy boolean array; the default is the scalar loop.
        Callers should treat the result as an opaque boolean sequence.
        """
        return [self.query_point(int(k)) for k in keys]
