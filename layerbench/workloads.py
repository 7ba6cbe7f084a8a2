"""The three benchmark workloads, their inputs and their exact oracle.

Each workload is a single closed-loop client: it generates a request
from its seeded RNG (untimed), times the call into the repro public API,
then checks the answer against an exact oracle (untimed).  Keys are
uniform over the full 64-bit domain, so about half of them are >= 2^63.
Filters are ``REncoder(bits_per_key=12)`` with default ``rmax`` and
``max_expansion``.

* ``short``  — FilterService (1 worker) over an LSMTree of 200k keys;
  25-range batches: 13 point probes on stored keys, 12 random ranges at
  most ``rmax`` wide.
* ``wide``   — the same kind of tree, called at
  ``LSMTree.range_query_many``; 1,000-range batches with widths
  log-uniform in [2^7, 2^18), the widths the default ``max_expansion``
  resolves without its budget fallback.
* ``routed-rw`` — FilterCluster, 2 shards x 2 replicas, 1 worker each,
  no faults, 50k keys; 25-range batches (13 pinned point probes, 12
  random ranges up to 2^40 wide), each followed by 25 fresh puts.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Any, Callable

import numpy as np

from repro.cluster import FilterCluster
from repro.core.rencoder import DEFAULT_RMAX, REncoder
from repro.service.service import FilterService
from repro.storage.lsm import LSMTree

TOP = (1 << 64) - 1
BPK = 12
BATCH = 25
WIDE_BATCH = 1000
WIDE_LOG2 = (7.0, 18.0)
ROUTED_SPAN = 1 << 40


class OracleError(AssertionError):
    """The program's answer disagrees with the exact oracle."""


def rencoder_factory(keys: np.ndarray) -> REncoder:
    return REncoder(keys, bits_per_key=BPK)


def value_of(key: int) -> int:
    return key & 0xFF


class Oracle:
    """Exact sorted key set; keys put during a run join ``added``."""

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.added: list[int] = []

    def __len__(self) -> int:
        return len(self.keys) + len(self.added)

    def add(self, key: int) -> None:
        i = bisect.bisect_left(self.added, key)
        if i < len(self.added) and self.added[i] == key:
            return
        j = int(np.searchsorted(self.keys, np.uint64(key)))
        if j < len(self.keys) and int(self.keys[j]) == key:
            return
        self.added.insert(i, key)

    def bounds(self, ranges) -> tuple[np.ndarray, np.ndarray]:
        los = np.array([lo for lo, _ in ranges], dtype=np.uint64)
        his = np.array([hi for _, hi in ranges], dtype=np.uint64)
        return (
            np.searchsorted(self.keys, los, side="left"),
            np.searchsorted(self.keys, his, side="right"),
        )

    def has(self, ranges) -> np.ndarray:
        left, right = self.bounds(ranges)
        has = right > left
        if self.added:
            for i, (lo, hi) in enumerate(ranges):
                if not has[i]:
                    j = bisect.bisect_left(self.added, lo)
                    has[i] = j < len(self.added) and self.added[j] <= hi
        return has

    def check_items(self, ranges, rows) -> np.ndarray:
        """Compare returned items with the oracle slices; returns ``has``."""
        left, right = self.bounds(ranges)
        for i, row in enumerate(rows):
            lo_i, hi_i = int(left[i]), int(right[i])
            if len(row) != hi_i - lo_i:
                kind = "false negative" if not row else "wrong items"
                raise OracleError(
                    f"{kind} on range {ranges[i]}: got {len(row)} items, "
                    f"oracle holds {hi_i - lo_i}"
                )
            for (k, v), want in zip(row, self.keys[lo_i:hi_i].tolist()):
                if k != want or v != value_of(want):
                    raise OracleError(
                        f"wrong item {(k, v)} in range {ranges[i]}, "
                        f"oracle has key {want}"
                    )
        return right > left


def uniform_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct sorted keys uniform over the 64-bit domain."""
    keys = np.unique(rng.integers(0, TOP, size=n, dtype=np.uint64,
                                  endpoint=True))
    while len(keys) < n:
        more = rng.integers(0, TOP, size=n - len(keys), dtype=np.uint64,
                            endpoint=True)
        keys = np.unique(np.concatenate([keys, more]))
    return keys


class _RowsLSM(LSMTree):
    """LSMTree that keeps the rows of its last batch read.

    The service answers a batch with one bool per range; the rows let
    ``short`` compare the items as well, with one request in flight.
    """

    last_rows: list = []

    def range_query_many(self, ranges, **kw):
        rows = super().range_query_many(ranges, **kw)
        self.last_rows = rows
        return rows


class Workload:
    """Base: inputs from the seed, set-up, timed calls, oracle checks."""

    name = ""
    n_keys = 0
    #: Layers whose calls this workload never makes, with the reason.
    off_path: dict[str, str] = {}

    def __init__(
        self,
        seed: int,
        *,
        scale: float = 1.0,
        factory: Callable = rencoder_factory,
    ) -> None:
        self.seed = seed
        self.factory = factory
        n = max(64, int(self.n_keys * scale))
        self.keys = uniform_keys(np.random.default_rng(seed), n)
        self.key_list = self.keys.tolist()
        self.oracle = Oracle(self.keys)
        self.rng = random.Random(seed * 7919 + 17)
        self.system: Any = None
        #: Puts per second of each load chunk, over every set-up.
        self.load_rates: list[float] = []
        # Properties of the generated stream, counted as it is checked.
        self.ranges = 0
        self.wide = 0
        self.empty = 0
        self.puts = 0

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Build the system under test."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _load_tree(self, tree: LSMTree) -> None:
        """Put every key, timing each chunk into ``load_rates``.

        A chunk is one memtable's worth of puts, so each chunk ends in
        exactly one flush; about one chunk in five also compacts.
        """
        keys = self.key_list
        step = tree.memtable.capacity
        for i in range(0, len(keys), step):
            chunk = keys[i:i + step]
            t0 = time.perf_counter()
            for k in chunk:
                tree.put(k, value_of(k))
            self.load_rates.append(len(chunk) / (time.perf_counter() - t0))
        tree.flush()

    # -- requests ------------------------------------------------------
    def next_request(self) -> tuple[str, Any]:
        raise NotImplementedError

    def serve(self, kind: str, payload: Any) -> Any:
        raise NotImplementedError

    def check(self, kind: str, payload: Any, resp: Any) -> bool:
        """Raise :class:`OracleError` on a wrong answer; False = degraded."""
        raise NotImplementedError

    def _count(self, ranges, has: np.ndarray) -> None:
        self.ranges += len(ranges)
        self.wide += sum(1 for lo, hi in ranges if hi - lo + 1 > DEFAULT_RMAX)
        self.empty += int((~has).sum())

    def _probe_batch(self, span: int) -> list[tuple[int, int]]:
        """Half point probes on stored keys, half random ranges."""
        rng = self.rng
        out = []
        for i in range(BATCH):
            if i % 2 == 0:
                k = rng.choice(self.key_list)
                out.append((k, k))
            else:
                lo = rng.randrange(TOP - span + 2)
                out.append((lo, lo + rng.randrange(span)))
        return out

    # -- storage accounting --------------------------------------------
    def envs(self) -> list:
        raise NotImplementedError

    def io(self) -> dict[str, int]:
        totals = {"reads": 0, "useful_reads": 0, "wasted_reads": 0,
                  "retries": 0}
        for env in self.envs():
            for name in totals:
                totals[name] += getattr(env.stats, name)
        return totals

    def bits_per_key(self) -> float:
        raise NotImplementedError

    def properties(self) -> dict[str, float]:
        n = max(1, self.ranges)
        return {
            "ranges_wider_than_rmax": self.wide / n,
            "ranges_with_no_key": self.empty / n,
            "puts_per_range": self.puts / n,
        }


class Short(Workload):
    name = "short"
    n_keys = 200_000
    off_path = {
        "router": "short is served by one FilterService; nothing routes",
        "cluster": "short makes no FilterCluster writes",
    }

    def setup(self) -> None:
        self.tree = _RowsLSM(self.factory)
        self._load_tree(self.tree)
        self.system = FilterService(self.tree, workers=1).start()

    def teardown(self) -> None:
        if self.system is not None:
            self.system.stop()

    def next_request(self):
        return "query", self._probe_batch(DEFAULT_RMAX)

    def serve(self, kind, payload):
        resp = self.system.query_range_batch(payload)
        return resp, self.tree.last_rows

    def check(self, kind, payload, resp):
        resp, rows = resp
        if resp.degraded:
            self._count(payload, self.oracle.has(payload))
            return False
        has = self.oracle.check_items(payload, rows)
        self._count(payload, has)
        got = np.array(resp.positive, dtype=bool)
        if (has & ~got).any():
            raise OracleError(f"false negative from the service on {payload}")
        if (got & ~has).any():
            raise OracleError(f"positive on an empty range from {payload}")
        return True

    def envs(self):
        return [self.tree.env]

    def bits_per_key(self):
        return self.tree.filter_bits() / len(self.oracle)


class Wide(Short):
    name = "wide"
    off_path = {
        "service": "wide calls LSMTree.range_query_many directly: the "
        "service's 50 ms simulated deadline would degrade every batch",
        "router": "wide does not route",
        "cluster": "wide makes no FilterCluster writes",
    }

    def setup(self) -> None:
        self.tree = LSMTree(self.factory)
        self.system = self.tree
        self._load_tree(self.tree)

    def teardown(self) -> None:
        pass

    def next_request(self):
        rng = self.rng
        lo_log, hi_log = WIDE_LOG2
        out = []
        for _ in range(WIDE_BATCH):
            width = int(2.0 ** rng.uniform(lo_log, hi_log))
            lo = rng.randrange(TOP - width + 2)
            out.append((lo, lo + width - 1))
        return "query", out

    def serve(self, kind, payload):
        return self.tree.range_query_many(payload)

    def check(self, kind, payload, rows):
        self._count(payload, self.oracle.check_items(payload, rows))
        return True


class RoutedRW(Workload):
    name = "routed-rw"
    n_keys = 50_000

    def setup(self) -> None:
        self.system = FilterCluster(
            n_shards=2,
            replicas_per_shard=2,
            filter_factory=self.factory,
            seed=self.seed,
            segment_bits=5,
            memtable_capacity=512,
            workers=1,
        ).start()
        for k in self.key_list:
            self.system.put(k, value_of(k))
        self.system.flush()
        self._pending: list[int] = []

    def teardown(self) -> None:
        if self.system is not None:
            self.system.stop()

    def next_request(self):
        if self._pending:
            return "put", self._pending.pop()
        self._pending = [self.rng.randrange(TOP + 1) for _ in range(BATCH)]
        return "query", self._probe_batch(ROUTED_SPAN)

    def serve(self, kind, payload):
        if kind == "put":
            return self.system.put(payload, value_of(payload))
        return self.system.query_range_many(payload)

    def check(self, kind, payload, resp):
        if kind == "put":
            self.oracle.add(payload)
            self.key_list.append(payload)
            self.puts += 1
            return True
        has = self.oracle.has(payload)
        self._count(payload, has)
        got = np.array(resp.positives, dtype=bool)
        if (has & ~got).any():
            bad = [payload[i] for i in np.flatnonzero(has & ~got)]
            raise OracleError(f"routed false negative on {bad[:3]}")
        return not resp.degraded

    def replicas(self):
        return [r for reps in self.system.replicas.values() for r in reps]

    def envs(self):
        return [r.lsm.env for r in self.replicas()]

    def bits_per_key(self):
        bits = sum(r.lsm.filter_bits() for r in self.replicas())
        copies = self.system.replicas_per_shard * len(self.oracle)
        return bits / copies


WORKLOADS = {w.name: w for w in (Short, Wide, RoutedRW)}
