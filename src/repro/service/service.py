"""The filter service: concurrent queries with graceful degradation.

:class:`FilterService` serves point and range membership queries over an
:class:`~repro.storage.lsm.LSMTree` through a pool of worker threads.
Four production behaviours compose here (each implemented in its own
module, wired together by the worker loop):

1. **Deadlines** (:mod:`repro.service.deadline`) — every request carries
   a budget on the simulated clock, stamped at *submit* so queue wait
   counts.  A request that runs out of budget — before dispatch or
   mid-I/O via :meth:`~repro.storage.env.StorageEnv.deadline_scope` —
   resolves *degraded*: the all-positive answer, never a false negative.
2. **Admission control** (:mod:`repro.service.admission`) — a bounded
   queue sheds load by rejecting arrivals (``reject-new``) or evicting
   the oldest request (``drop-oldest``); evictions are resolved degraded,
   rejections raise :class:`ServiceOverloadError` with a retry-after.
3. **Circuit breaker** (:mod:`repro.service.breaker`) — when storage
   reads keep failing or blowing deadlines, the breaker opens and the
   service answers degraded *immediately* instead of letting every
   request burn its budget discovering the same outage.
4. **Epoch pinning** (:meth:`~repro.storage.lsm.LSMTree.pin_epoch`) —
   each query runs against an epoch-stamped snapshot of the tree, so
   background flushes, compactions and deferred filter rebuilds swap
   structures under live traffic without ever tearing a read.

The invariant tying all four together: **every path out of this service
is one-sided**.  A normal answer has the LSM's no-false-negative
guarantee; every degraded path (deadline, breaker, shed, fault,
shutdown) answers all-positive.  Degradation can only add false
positives — exactly the error the paper's filters are designed to trade
in — so overload changes latency and precision, never correctness.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.errors import DeadlineExceededError, TransientIOError
from repro.service.admission import (
    SHED_POLICIES,
    AdmissionQueue,
    ServiceOverloadError,
)
from repro.service.breaker import CircuitBreaker
from repro.service.deadline import Deadline
from repro.service.health import ServiceStats
from repro.storage.env import SimulatedClock
from repro.storage.lsm import LSMTree
from repro.telemetry.context import TraceContext
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Span, get_tracer

__all__ = ["FilterService", "ServiceResponse"]

#: Default per-request budget: 50 simulated ms (50 plain second-level
#: reads at the default 1 ms ``io_cost_ns``) — roomy in calm weather,
#: quickly exhausted under slow-read faults or a deep backlog.
DEFAULT_DEADLINE_NS = 50_000_000

#: Request kinds the worker loop dispatches on.
_KINDS = ("range", "range_batch", "point")


@dataclass
class ServiceResponse:
    """One answered request.

    ``positive`` is the membership verdict — a bool for scalar requests,
    a list of bools (one per range) for batches.  ``degraded`` marks the
    all-positive fallback; ``reason`` says which path produced the
    answer: ``"ok"``, ``"deadline"``, ``"breaker-open"``, ``"fault"``,
    or ``"shed"``.  ``epoch`` is the tree epoch the query ran against
    (``-1`` when degradation skipped the tree entirely), and
    ``wall_ns`` / ``sim_ns`` are submit→resolve host time and shared
    simulated-clock time respectively.  ``retry_after_ns`` is the
    backpressure hint attached to backpressure-shaped degradations
    (``breaker-open``: remainder of the breaker's open window;
    shutdown ``shed``: one estimated queue-drain) — a router should
    not re-route to this replica before it elapses.
    """

    positive: "bool | list[bool]"
    degraded: bool
    reason: str
    epoch: int = -1
    wall_ns: int = 0
    sim_ns: int = 0
    retry_after_ns: int = 0
    #: The request's root span when the process tracer was enabled at
    #: submit time (None otherwise).
    trace: "Span | None" = None

    def __post_init__(self) -> None:
        if self.degraded:
            # The whole design hangs on this: a degraded answer is
            # all-positive by construction.
            bad = (
                not all(self.positive)
                if isinstance(self.positive, list)
                else not self.positive
            )
            if bad:
                raise ValueError(
                    "degraded responses must be all-positive "
                    f"(reason={self.reason!r})"
                )


class _Request:
    """Internal queue entry: payload + deadline + promise."""

    __slots__ = (
        "kind",
        "payload",
        "deadline",
        "future",
        "submitted_wall_ns",
        "submitted_sim_ns",
        "span",
    )

    def __init__(
        self,
        kind: str,
        payload: object,
        deadline: "Deadline | None",
        submitted_wall_ns: int,
        submitted_sim_ns: int,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.deadline = deadline
        self.future: "Future[ServiceResponse]" = Future()
        self.submitted_wall_ns = submitted_wall_ns
        self.submitted_sim_ns = submitted_sim_ns
        self.span: "Span | None" = None

    def degraded_positive(self) -> "bool | list[bool]":
        """The all-positive answer shaped like this request's result."""
        if self.kind == "range_batch":
            return [True] * len(self.payload)  # type: ignore[arg-type]
        return True


class FilterService:
    """Worker-pool query service over one LSM tree (see module docs).

    Parameters
    ----------
    lsm:
        The tree to serve.  Its env gains a :class:`SimulatedClock` if it
        doesn't already have one — deadlines and the breaker need it.
    workers:
        Worker-thread count.
    queue_depth:
        Admission-queue bound (0 = unbounded, i.e. no shedding — the
        bench's "unbounded baseline").
    shed_policy:
        ``"reject-new"`` or ``"drop-oldest"`` (see
        :mod:`repro.service.admission`).
    default_deadline_ns:
        Budget applied when a submit doesn't name one; ``None`` disables
        default deadlines (requests then only degrade via breaker/shed).
    breaker:
        Pass a preconfigured :class:`CircuitBreaker` to tune thresholds;
        by default one is built with its standard parameters.
    registry:
        The :class:`~repro.telemetry.registry.MetricsRegistry` all of the
        service's instruments land on.  A private one is created when
        omitted.  The LSM env's :class:`~repro.storage.env.IoStats` is
        re-homed onto it (:meth:`IoStats.bind`), so one ``metrics-dump``
        of ``service.registry`` shows service counters, latency
        histograms, storage I/O counters and live queue/breaker gauges
        together.
    """

    def __init__(
        self,
        lsm: LSMTree,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        shed_policy: str = "reject-new",
        default_deadline_ns: "int | None" = DEFAULT_DEADLINE_NS,
        breaker: "CircuitBreaker | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if default_deadline_ns is not None and default_deadline_ns <= 0:
            raise ValueError(
                f"default_deadline_ns must be positive or None, "
                f"got {default_deadline_ns}"
            )
        self.lsm = lsm
        if lsm.env.clock is None:
            lsm.env.clock = SimulatedClock()
        self.clock: SimulatedClock = lsm.env.clock
        self.workers = workers
        self.default_deadline_ns = default_deadline_ns
        self.queue = AdmissionQueue(queue_depth, shed_policy)
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(self.clock)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ServiceStats(registry=self.registry)
        lsm.env.stats.bind(self.registry)
        self._register_gauges()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._started_wall_ns = 0
        self._lock = threading.Lock()

    def _register_gauges(self) -> None:
        """Live queue/breaker/tree gauges on the service registry."""
        labels = {"component": "service"}
        reg = self.registry
        reg.gauge(
            "service_queue_depth", help="requests waiting", labels=labels
        ).set_fn(lambda: len(self.queue))
        reg.gauge(
            "service_breaker_open",
            help="1 when the breaker is open, 0.5 half-open, 0 closed",
            labels=labels,
        ).set_fn(
            lambda: {"closed": 0.0, "half-open": 0.5, "open": 1.0}[
                self.breaker.state
            ]
        )
        reg.gauge(
            "service_epoch", help="current LSM tree epoch", labels=labels
        ).set_fn(lambda: float(self.lsm.epoch))
        reg.gauge(
            "service_uptime_ns",
            help="wall time since start() while running",
            labels=labels,
        ).set_fn(lambda: float(self.uptime_ns()))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FilterService":
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            # Wall clock on purpose: uptime is host-side telemetry, not
            # simulated latency math.
            self._started_wall_ns = time.perf_counter_ns()  # lint: allow[wall-clock-in-simulated-path]
            for i in range(self.workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"filter-service-{i}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Shut down: close the queue, settle every promise, join workers.

        ``drain=True`` lets workers serve what's already queued before
        exiting; ``drain=False`` resolves the backlog degraded (reason
        ``"shed"``) immediately — fast shutdown, still no hung futures.
        """
        with self._lock:
            if not self._started:
                return
            self._started = False
        if not drain:
            for req in self.queue.drain():
                self._resolve_degraded(req, "shed")
        self.queue.close()
        for t in self._threads:
            t.join()
        self._threads.clear()
        # close() raced a final put, or a worker died mid-drain: settle
        # whatever is left rather than strand its futures.
        for req in self.queue.drain():
            self._resolve_degraded(req, "shed")

    def __enter__(self) -> "FilterService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_range(
        self,
        lo: int,
        hi: int,
        *,
        deadline_ns: "int | None" = None,
        ctx: "TraceContext | None" = None,
    ) -> "Future[ServiceResponse]":
        """Async range-membership query: is any live key in ``[lo, hi]``?"""
        if lo > hi:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        return self._submit("range", (int(lo), int(hi)), deadline_ns, ctx)

    def submit_range_batch(
        self,
        ranges,
        *,
        deadline_ns: "int | None" = None,
        ctx: "TraceContext | None" = None,
    ) -> "Future[ServiceResponse]":
        """Async batch of range queries (one response, one bool each)."""
        pairs = [(int(lo), int(hi)) for lo, hi in ranges]
        for lo, hi in pairs:
            if lo > hi:
                raise ValueError(f"invalid range [{lo}, {hi}]")
        return self._submit("range_batch", pairs, deadline_ns, ctx)

    def submit_point(
        self,
        key: int,
        *,
        deadline_ns: "int | None" = None,
        ctx: "TraceContext | None" = None,
    ) -> "Future[ServiceResponse]":
        """Async point-membership query."""
        return self._submit("point", int(key), deadline_ns, ctx)

    def query_range(self, lo: int, hi: int, **kw) -> ServiceResponse:
        """Blocking :meth:`submit_range`."""
        return self.submit_range(lo, hi, **kw).result()

    def query_range_batch(self, ranges, **kw) -> ServiceResponse:
        """Blocking :meth:`submit_range_batch`."""
        return self.submit_range_batch(ranges, **kw).result()

    def query_point(self, key: int, **kw) -> ServiceResponse:
        """Blocking :meth:`submit_point`."""
        return self.submit_point(key, **kw).result()

    def _submit(
        self,
        kind: str,
        payload: object,
        deadline_ns: "int | None",
        ctx: "TraceContext | None" = None,
    ) -> "Future[ServiceResponse]":
        if not self._started:
            raise RuntimeError("service is not running (call start())")
        budget = (
            deadline_ns if deadline_ns is not None else self.default_deadline_ns
        )
        deadline = (
            Deadline.after(self.clock, budget) if budget is not None else None
        )
        req = _Request(
            kind,
            payload,
            deadline,
            time.perf_counter_ns(),  # lint: allow[wall-clock-in-simulated-path] — wall_ns telemetry
            self.clock.now_ns(),
        )
        tracer = get_tracer()
        if tracer.enabled:
            # Root span stamped at submit, so queue wait is on the trace.
            req.span = tracer.start_span(f"service.{kind}")
            req.span.set(
                payload=payload,
                deadline_ns=budget if budget is not None else "none",
            )
            if ctx is not None:
                # Propagated hop: record the caller's (trace, span) ids
                # and the budget the context says we inherited, so the
                # cross-replica tree re-assembles from ids alone.
                ctx.stamp(req.span)
                inherited = ctx.budget_ns(self.clock.now_ns())
                if inherited is not None:
                    req.span.set(budget_ns=inherited)
        self.stats.bump(submitted=1)
        try:
            evicted = self.queue.put(
                req, retry_after_ns=self._retry_after_ns()
            )
        except ServiceOverloadError:
            self.stats.bump(rejected=1)
            if req.span is not None:
                # A rejected request still yields a *closed* trace:
                # leaving the root span open here leaks one span per
                # shed request for the life of an overload storm.
                req.span.set(rejected=True)
                tracer.finish(req.span)
            raise
        if evicted is not None:
            self._resolve_degraded(evicted, "shed")
        return req.future

    def _retry_after_ns(self) -> int:
        """Backpressure hint: roughly one queue-drain of simulated I/O."""
        backlog = len(self.queue) + 1
        return (backlog * self.lsm.env.io_cost_ns) // max(1, self.workers)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            req = self.queue.get()
            if req is None:  # closed and drained
                return
            try:
                self._serve(req)
            except BaseException as exc:  # last resort  # lint: allow[bare-except]
                # A worker must never die with a promise unsettled —
                # or with the request's root span left open (finish is
                # idempotent, so a span _resolve already closed is safe).
                if req.span is not None:
                    get_tracer().finish(req.span)
                if not req.future.done():
                    req.future.set_exception(exc)

    def _serve(self, req: _Request) -> None:
        span = req.span
        if span is None:
            self._serve_inner(req)
            return
        tracer = get_tracer()
        # The time between submit and this moment is queue wait; record
        # it as a closed child span so the trace shows it explicitly.
        wait = Span("queue.wait", span.start_wall_ns, span.start_sim_ns)
        tracer.finish(wait)
        span.children.append(wait)
        span.set(breaker=self.breaker.state, queue_depth=len(self.queue))
        with tracer.attach(span):
            self._serve_inner(req)

    def _serve_inner(self, req: _Request) -> None:
        # Expired while queued: degrade without touching storage.  Not a
        # breaker outcome — the backend did nothing wrong.
        if req.deadline is not None and req.deadline.expired(self.clock):
            self._resolve_degraded(req, "deadline")
            return
        if not self.breaker.allow():
            self._resolve_degraded(req, "breaker-open")
            return
        deadline_ns = (
            req.deadline.deadline_ns if req.deadline is not None else None
        )
        try:
            with self.lsm.pin_epoch() as view:
                with self.lsm.env.deadline_scope(deadline_ns):
                    positive = self._execute(req, view)
                epoch = view.epoch
        except DeadlineExceededError:
            # Budget burned mid-I/O — storage *is* implicated (slow
            # reads, retry storms), so the breaker hears about it.
            self.breaker.record_failure()
            self._resolve_degraded(req, "deadline")
            return
        except TransientIOError:
            # Retries exhausted inside the read path.
            self.breaker.record_failure()
            self._resolve_degraded(req, "fault")
            return
        self.breaker.record_success()
        self._resolve(
            req,
            ServiceResponse(
                positive=positive, degraded=False, reason="ok", epoch=epoch
            ),
        )

    def _execute(self, req: _Request, view) -> "bool | list[bool]":
        """Run the query against the pinned view."""
        if req.kind == "range":
            lo, hi = req.payload  # type: ignore[misc]
            return bool(self.lsm.range_query(lo, hi, view=view))
        if req.kind == "range_batch":
            rows = self.lsm.range_query_many(req.payload, view=view)
            return [bool(r) for r in rows]
        if req.kind == "point":
            found, _ = self.lsm.get(req.payload, view=view)  # type: ignore[arg-type]
            return found
        raise AssertionError(f"unknown request kind {req.kind!r}")

    # ------------------------------------------------------------------
    # resolution & accounting
    # ------------------------------------------------------------------
    _REASON_COUNTERS = {
        "ok": {"ok": 1},
        "deadline": {"degraded": 1, "deadline_expired": 1},
        "breaker-open": {"degraded": 1, "breaker_denied": 1},
        "fault": {"degraded": 1, "faults": 1},
        "shed": {"shed": 1},
    }

    def _resolve_degraded(self, req: _Request, reason: str) -> None:
        if reason == "breaker-open":
            retry_after_ns = self.breaker.retry_after_ns()
        elif reason == "shed":
            retry_after_ns = self._retry_after_ns()
        else:
            retry_after_ns = 0
        self._resolve(
            req,
            ServiceResponse(
                positive=req.degraded_positive(),
                degraded=True,
                reason=reason,
                retry_after_ns=retry_after_ns,
            ),
        )

    def _resolve(self, req: _Request, response: ServiceResponse) -> None:
        response.wall_ns = time.perf_counter_ns() - req.submitted_wall_ns  # lint: allow[wall-clock-in-simulated-path]
        response.sim_ns = self.clock.now_ns() - req.submitted_sim_ns
        self.stats.bump(completed=1, **self._REASON_COUNTERS[response.reason])
        self.stats.wall.record(response.wall_ns)
        self.stats.sim.record(response.sim_ns)
        if req.span is not None:
            req.span.set(
                reason=response.reason,
                degraded=response.degraded,
                epoch=response.epoch,
            )
            get_tracer().finish(req.span)
            response.trace = req.span
        req.future.set_result(response)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def uptime_ns(self) -> int:
        """Wall nanoseconds since :meth:`start` (0 while stopped)."""
        if not self._started:
            return 0
        return time.perf_counter_ns() - self._started_wall_ns  # lint: allow[wall-clock-in-simulated-path]

    def health(self) -> dict:
        """One-stop health snapshot (stats, breaker, queue, epochs).

        ``degraded_by_reason`` breaks the degraded total down by which
        path produced each all-positive answer; ``metrics`` is the full
        registry snapshot (service + storage + any registered filter
        gauges), the same content ``metrics-dump`` emits.
        """
        stats = self.stats.snapshot()
        durability = (
            self.lsm.durability_stats()
            if hasattr(self.lsm, "durability_stats")
            else None
        )
        return {
            "durability": durability,
            "running": self._started,
            "uptime_ns": self.uptime_ns(),
            "workers": self.workers,
            "clock_ns": self.clock.now_ns(),
            "stats": stats,
            "degraded_by_reason": {
                "deadline": stats["deadline_expired"],
                "breaker-open": stats["breaker_denied"],
                "fault": stats["faults"],
                "shed": stats["shed"],
            },
            "breaker": self.breaker.snapshot(),
            "queue": {
                "depth": len(self.queue),
                "maxsize": self.queue.maxsize,
                "policy": self.queue.policy,
                "admitted": self.queue.admitted,
                "rejected": self.queue.rejected,
                "dropped": self.queue.dropped,
            },
            "epoch": self.lsm.epoch,
            "active_pins": self.lsm.active_pins(),
            "metrics": self.registry.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FilterService(workers={self.workers}, "
            f"queue={len(self.queue)}/{self.queue.maxsize or '∞'}, "
            f"breaker={self.breaker.state})"
        )
