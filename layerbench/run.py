"""Layer benchmark for the repro package: one command, three workloads.

Usage (from the repository root)::

    python3 layerbench/run.py --workload short|wide|routed-rw \
        --seed N --seconds S --trace 0|1

The process first pins itself to one CPU (see :func:`pin_to_one_cpu`).
``--trace 0`` sets the system up three times (``setup_s`` is the
median), warms up for a second, then runs the workload's closed loop
for ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
sets up once untraced and once with the layer wrappers of :mod:`spans`
installed, warms up, runs half of ``--seconds`` untraced and half
traced, and prints the per-layer metrics.  Every answer is checked
against the exact oracle; a wrong answer ends the run with
``"correct": false`` and exit code 1.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
say what ran (git revision, kernel backend, numpy version, nproc, the
pinned CPU), the measured workload properties and which layers a
workload does not use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit (untraced run).
END_TO_END = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "wasted_reads_per_query": "count",
    "bits_per_key": "bit",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metric -> unit (traced run).
PER_LAYER = {
    "kernels.self_us_per_query": "us",
    "kernels.ranges_per_call": "count",
    "rencoder.self_us_per_query": "us",
    "rencoder.probes_per_query": "count",
    "rencoder.fpr": "share",
    "rencoder.build_ms_per_kkey": "ms/kkey",
    "sstable.self_us_per_query": "us",
    "sstable.tables_per_query": "count",
    "env.useful_read_share": "share",
    "env.read_retries": "count",
    "lsm.self_us_per_query": "us",
    "lsm.tables": "count",
    "lsm.put_us_p50": "us",
    "lsm.flushes": "count",
    "lsm.flush_ms_p50": "ms",
    "service.self_ms_per_request": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.degraded_share": "share",
    "router.self_ms_per_request": "ms",
    "router.subbatches_per_request": "count",
    "router.extra_attempts_per_request": "count",
    "cluster.put_us_p50": "us",
    "cluster.hint_backlog_max": "count",
    "process.cpu_s_per_kq": "s/kq",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "share",
    "failed_share": "share",
    "latency_p99_ms": "ms",
    "puts_per_s": "1/s",
}


#: Puts per block of the foreground put rate (see :meth:`Phase.put_rate`).
PUT_BLOCK = 5000

#: Requests per block of the tail estimate (see :func:`tail`).
TAIL_BLOCK = 1000

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: ``qps`` is the median over windows of this many seconds of the loop.
WINDOW_S = 1.0

#: Untraced/traced slice pairs in a traced run.
TRACE_SLICES = 5

#: Seconds of checked but unmeasured requests before the timed loop.
WARMUP_S = 1.0


class SetupError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad environment)."""


def _import_program():
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (fail early when numpy is missing)
    import repro  # noqa: F401


def check_environment() -> None:
    """Refuse to measure with the program's own tracing or profiling on."""
    from repro.telemetry.tracing import get_tracer

    for var in ("REPRO_SANITIZE", "REPRO_PROFILE"):
        if var in os.environ:
            raise SetupError(f"{var} is set; unset it to benchmark")
    if get_tracer().enabled:
        raise SetupError("the repro process tracer is enabled")


def pin_to_one_cpu() -> "int | None":
    """Run this thread, and every thread it starts later, on one CPU.

    The program's threads share the GIL, so a second CPU adds little
    but GIL hand-offs between CPUs.  On a small shared VM each hand-off
    to a thread on another vCPU also waits for that vCPU to be woken by
    the hypervisor, which measures the host rather than the program.
    Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _git_rev() -> "str | None":
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the program sources (the checkout may lack .git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(args) -> dict:
    import numpy

    from repro.core import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "kernel_backend": kernels.default_backend(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpu": args.pinned_cpu,
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One closed-loop measurement phase."""

    attempted: int = 0
    failed: int = 0
    ranges: int = 0
    query_ns: list = field(default_factory=list)
    put_ns: list = field(default_factory=list)
    cpu_s: float = 0.0
    io: dict = field(default_factory=dict)
    hint_backlog_max: int = 0
    #: window index -> [ranges, query ns]
    windows: dict = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.ranges / (sum(self.query_ns) / 1e9)

    def window_qps(self) -> float:
        """Median over windows of a window's ranges per query second."""
        return statistics.median(
            r / (ns / 1e9) for r, ns in self.windows.values() if ns
        )

    def put_rate(self) -> float:
        """Median put rate over blocks of ``PUT_BLOCK`` puts in order.

        A block spans several flushes and a level-0 merge on every
        replica, so each block pays a like share of the write path.
        """
        n = len(self.put_ns)
        k = max(1, n // PUT_BLOCK)
        return statistics.median(
            (hi - lo) / (sum(self.put_ns[lo:hi]) / 1e9)
            for lo, hi in ((b * n // k, (b + 1) * n // k) for b in range(k))
        )


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(w, seconds: float, rec=None, ph: "Phase | None" = None) -> Phase:
    """Run ``w``'s closed loop for ``seconds``; time only the calls.

    Accumulates into ``ph`` when one is passed.
    """
    from workloads import OracleError

    ph = ph if ph is not None else Phase()
    io0, cpu0 = w.io(), _cpu_s()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while time.perf_counter() < t_end:
        kind, payload = w.next_request()
        ph.attempted += 1
        window = ph.windows.setdefault(
            int((time.perf_counter() - t_start) / WINDOW_S), [0, 0]
        )
        t0 = time.perf_counter_ns()
        try:
            if rec is None:
                resp = w.serve(kind, payload)
            else:
                with rec.request(ph.attempted, kind):
                    resp = w.serve(kind, payload)
        except OracleError:
            raise
        except Exception as exc:  # a raised request counts as failed
            ph.failed += 1
            print(f"request raised: {exc!r}", file=sys.stderr)
            continue
        dt = time.perf_counter_ns() - t0
        if not w.check(kind, payload, resp):
            ph.failed += 1
        if kind == "query":
            ph.query_ns.append(dt)
            ph.ranges += len(payload)
            window[0] += len(payload)
            window[1] += dt
        else:
            ph.put_ns.append(dt)
            if rec is not None:
                ph.hint_backlog_max = max(
                    ph.hint_backlog_max,
                    sum(w.system.hint_backlog().values()),
                )
    ph.cpu_s += _cpu_s() - cpu0
    io1 = w.io()
    for k in io1:
        ph.io[k] = ph.io.get(k, 0) + io1[k] - io0[k]
    if not ph.query_ns:
        raise SetupError("no request completed in the measured time")
    return ph


def tail(samples_ns: list) -> tuple[float, float, int]:
    """The tail latency of a run, robust to a short machine stall.

    The requests, in arrival order, are cut into ``k`` equal blocks of
    at least ``TAIL_BLOCK`` requests (``1 <= k <= 5``).  In each block
    the tail is the highest nearest-rank percentile <= 99 that leaves at
    least 10 samples beyond it; the result is the median over blocks.
    Returns ``(quantile, value_ms, k)``.
    """
    n = len(samples_ns)
    if n < 11:
        raise SetupError(f"{n} requests are too few for a tail percentile")
    k = max(1, min(5, n // TAIL_BLOCK))
    qs, values = [], []
    for b in range(k):
        xs = sorted(samples_ns[b * n // k:(b + 1) * n // k])
        m = len(xs)
        q = min(0.99, (m - 10) / m)
        qs.append(q)
        values.append(xs[min(math.ceil(q * m) - 1, m - 11)] / 1e6)
    return statistics.median(qs), statistics.median(values), k


def put_rate(ph: Phase, load_rates: list) -> float:
    """Foreground put rate; the set-up load's when the loop has no puts."""
    return ph.put_rate() if ph.put_ns else statistics.median(load_rates)


def end_to_end(w, ph: Phase, setup_s: list) -> dict:
    q, p_tail, blocks = tail(ph.query_ns)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "qps": ph.window_qps(),
        "latency_p50_ms": statistics.median(ph.query_ns) / 1e6,
        "wasted_reads_per_query": ph.io["wasted_reads"] / ph.ranges,
        "bits_per_key": w.bits_per_key(),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    print("latency: " + json.dumps({
        "requests": len(ph.query_ns),
        "windows": len(ph.windows),
        "aggregate_qps": round(ph.qps, 1),
        "tail_quantile": round(q, 4),
        "tail_blocks": blocks,
        "tail_ms": round(p_tail, 4),
        "puts_per_s": round(put_rate(ph, w.load_rates), 1),
        "puts_source": "measured loop" if ph.put_ns else "set-up load",
    }))
    return values


def run_untraced(w, seconds: float) -> tuple[Phase, dict]:
    setup_s = []
    for _ in range(SETUPS):
        w.teardown()
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    warm = measure(w, WARMUP_S)
    ph = measure(w, seconds)
    values = end_to_end(w, ph, setup_s)
    ph.attempted += warm.attempted
    ph.failed += warm.failed
    return ph, values


def run_traced(w, seconds: float) -> tuple[Phase, dict]:
    from repro.core import kernels
    from repro.core.kernels.fused import NumpyKernel

    import layers
    import spans

    if kernels.default_backend() == "numba":
        from repro.core.kernels.numba_backend import NumbaKernel as kernel_cls
    else:
        kernel_cls = NumpyKernel
    # An untraced set-up first: its load rate is the untraced put rate.
    w.setup()
    load_rates = list(w.load_rates)
    w.teardown()
    rec = spans.Recorder()
    w.factory = spans.traced_factory(rec, w.factory)
    with spans.Patch(rec, kernel_cls):
        w.setup()
    setup_rec = rec.reset()
    warm = measure(w, WARMUP_S)
    # Alternate untraced and traced slices so both halves see the same
    # mix of tree states (routed-rw's table count cycles as it writes).
    plain, traced = Phase(), Phase()
    for _ in range(TRACE_SLICES):
        measure(w, seconds / (2 * TRACE_SLICES), ph=plain)
        with spans.Patch(rec, kernel_cls):
            measure(w, seconds / (2 * TRACE_SLICES), rec, traced)
    values = layers.per_layer(w, rec, setup_rec, plain, traced)
    # The tail and the put rate are too noisy on a small shared host to
    # gate, so they are reported here, from the untraced slices.
    values["latency_p99_ms"] = tail(plain.query_ns)[1]
    values["puts_per_s"] = put_rate(plain, load_rates)
    both = Phase(
        attempted=warm.attempted + plain.attempted + traced.attempted,
        failed=warm.failed + plain.failed + traced.failed,
        ranges=plain.ranges + traced.ranges,
        query_ns=plain.query_ns + traced.query_ns,
    )
    return both, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="key-count multiplier (self-tests run tiny sizes)")
    args = ap.parse_args(argv)
    try:
        _import_program()
        check_environment()
    except (SetupError, ImportError) as exc:
        print(f"layerbench: cannot run: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, OracleError

    if args.workload not in WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("layerbench: --seconds must be positive", file=sys.stderr)
        return 2
    args.pinned_cpu = pin_to_one_cpu()
    print("context: " + json.dumps(context(args)))
    w = WORKLOADS[args.workload](args.seed, scale=args.scale)
    units = PER_LAYER if args.trace else END_TO_END
    try:
        ph, values = (run_traced if args.trace else run_untraced)(
            w, args.seconds
        )
    except OracleError as exc:
        print(f"layerbench: oracle mismatch: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except SetupError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 2
    finally:
        w.teardown()
    print("properties: " + json.dumps(
        {k: round(v, 4) for k, v in w.properties().items()}
    ))
    if args.trace:
        print("off_path: " + json.dumps(w.off_path))
    print(json.dumps({
        "correct": True,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
