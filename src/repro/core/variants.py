"""REncoder variants: SS, SE, and PO (Sections III-C and V-F).

* :class:`REncoderSS` — *Select Start*: no query sampling, no error bound
  (use case A).  Computes ``l_kk``, the maximum longest-common-prefix over
  key pairs, and stores levels starting at ``l_kk + 1`` (the shallowest
  level that already distinguishes every key) growing upward.  Lowest FPR
  and fewest probes on uncorrelated workloads; like SuRF it collapses on
  correlated ones because the bottom levels are absent.
* :class:`REncoderSE` — *Select End*: samples queries (use case B).  Also
  computes ``l_kq``, the maximum LCP between keys and sampled query
  boundaries.  When ``l_kq <= l_kk`` it behaves exactly like SS; otherwise
  it stores from level ``l_kq + 1`` in the opposite direction (downward),
  so the levels that tell correlated queries apart from stored keys are
  present.
* :class:`REncoderPO` — *Point Optimised* (Figure 8): same storage as the
  base REncoder, but point queries probe only the deepest stored level —
  one fetch, like Rosetta's bottom Bloom filter — trading FPR for filter
  throughput.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.rencoder import REncoder
from repro.core.segment_tree import max_key_lcp, max_key_query_lcp
from repro.filters.base import as_key_array

__all__ = ["REncoderSS", "REncoderSE", "REncoderPO"]


class REncoderSS(REncoder):
    """REncoder that Selects the Start level from the dataset (use case A)."""

    name = "REncoderSS"

    def _plan_levels(self, keys: np.ndarray) -> tuple[list[int], list[int]]:
        self.l_kk = max_key_lcp(keys, self.key_bits)
        start = min(self.l_kk + 1, self.key_bits)
        mandatory = [start]
        optional = list(range(start - 1, 0, -1))
        return mandatory, optional


class REncoderSE(REncoder):
    """REncoder that Selects the End level from sampled queries (use case B).

    Parameters are those of :class:`REncoder` plus ``sample_queries``, an
    iterable of ``(lo, hi)`` ranges drawn from the expected workload.
    """

    name = "REncoderSE"

    def __init__(
        self,
        keys: Iterable[int] | np.ndarray,
        total_bits: int | None = None,
        *,
        sample_queries: Sequence[tuple[int, int]] = (),
        **kwargs,
    ) -> None:
        self._sample_queries = list(sample_queries)
        super().__init__(keys, total_bits, **kwargs)

    def _plan_levels(self, keys: np.ndarray) -> tuple[list[int], list[int]]:
        self.l_kk = max_key_lcp(keys, self.key_bits)
        bounds: list[int] = []
        for lo, hi in self._sample_queries:
            bounds.append(lo)
            bounds.append(hi)
        self.l_kq = max_key_query_lcp(keys, bounds, self.key_bits)
        if self.l_kq <= self.l_kk:
            # Sampled queries are no closer to the keys than the keys are to
            # each other: the SS plan is already safe.
            start = min(self.l_kk + 1, self.key_bits)
            return [start], list(range(start - 1, 0, -1))
        # Correlated workload: store downward from l_kq + 1 so the
        # distinguishing levels exist; if budget remains after reaching the
        # bottom, continue upward (engineering extension, documented in
        # DESIGN.md).
        start = min(self.l_kq + 1, self.key_bits)
        optional = list(range(start + 1, self.key_bits + 1))
        optional += list(range(start - 1, 0, -1))
        return [start], optional


class REncoderPO(REncoder):
    """Point-query-optimised REncoder (Figure 8).

    Storage and range queries are identical to the base REncoder; a point
    query fetches only the mini-tree holding the key's longest stored
    prefix — a single RBF fetch, like Rosetta's bottom-filter probe — and
    checks every stored level *inside that one Bitmap Tree* for free.
    Ancestor levels in other mini-trees are skipped, which is where the
    (slightly) worse FPR comes from and why the probe count is minimal.
    Batch point queries need no override: the fused kernel's point plan
    probes the same levels (see ``KernelTables._plan_point_levels``).
    """

    name = "REncoderPO"

    def query_point(self, key: int) -> bool:
        self._check_range(key, key)
        deepest = self._deepest
        group_start = (
            (deepest - 1) // self.group_bits
        ) * self.group_bits  # level of the mini-tree root
        cache: dict[tuple[int, int], np.ndarray] = {}
        for level in self._stored_sorted:
            if level <= group_start or level > deepest:
                continue
            prefix = key >> (self.key_bits - level)
            if not self._probe(prefix, level, cache):
                return False
        return True


def build_variant(
    name: str,
    keys: Iterable[int] | np.ndarray,
    total_bits: int | None = None,
    *,
    sample_queries: Sequence[tuple[int, int]] = (),
    **kwargs,
):
    """Factory used by the bench harness: build a variant by name."""
    key_arr = as_key_array(keys)
    if name == "REncoder":
        return REncoder(key_arr, total_bits, **kwargs)
    if name == "REncoderSS":
        return REncoderSS(key_arr, total_bits, **kwargs)
    if name == "REncoderSE":
        return REncoderSE(
            key_arr, total_bits, sample_queries=sample_queries, **kwargs
        )
    if name == "REncoderPO":
        return REncoderPO(key_arr, total_bits, **kwargs)
    raise ValueError(f"unknown REncoder variant: {name!r}")
