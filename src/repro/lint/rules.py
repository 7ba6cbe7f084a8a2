"""Project-specific lint rules (see DESIGN.md §10 for the catalog).

Every rule here encodes an invariant the reproduction's correctness
rests on but that no test can economically observe:

* ``wall-clock-in-simulated-path`` — latency math must use the
  simulated clock; wall clock is reserved for telemetry, the CLI and
  the bench harness.
* ``unseeded-rng`` — every RNG is explicitly seeded (or injected), so
  chaos/stress runs replay from their seed alone.
* ``one-sided-error`` — degraded/except paths in ``filters/``,
  ``service/`` and ``storage/`` must never answer negative (the paper's
  no-false-negative guarantee, PAPER.md §III).
* ``lock-discipline`` — classes that own a lock mutate their shared
  ``self._*`` state only while holding it.
* ``span-leak`` — every ``Tracer.start_span``/``attach`` in ``cluster/``
  and ``service/`` is closed on all paths; an unfinished span never
  reaches the trace store, so the leak shows up as a silently truncated
  trace, not an error.
* ``bare-except`` / ``mutable-default-arg`` — general hygiene.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.engine import FileContext, Finding, Rule

__all__ = [
    "WallClockRule",
    "UnseededRngRule",
    "OneSidedErrorRule",
    "LockDisciplineRule",
    "SpanLeakRule",
    "BareExceptRule",
    "MutableDefaultArgRule",
    "DEFAULT_RULES",
    "make_default_rules",
]


def _walk_with_parents(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that first stamps a ``_lint_parent`` on every node."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]
        yield node


def _ancestors(node: ast.AST) -> Iterator[ast.AST]:
    cur = getattr(node, "_lint_parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "_lint_parent", None)


def _dotted(node: ast.AST) -> "str | None":
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class WallClockRule(Rule):
    """``time.time()``/``monotonic``/``perf_counter*`` outside telemetry.

    Latency and deadline math must run on the shared
    :class:`~repro.storage.env.SimulatedClock`; wall-clock reads are
    reserved for the measurement surface (``telemetry/``, ``cli.py``,
    ``benchmarks/`` and the ``bench/`` harness).  Intentional sites
    elsewhere carry ``# lint: allow[wall-clock-in-simulated-path]``.
    """

    name = "wall-clock-in-simulated-path"

    #: ``time`` module attributes that read the wall clock.
    WALL_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
        }
    )

    def __init__(self, allow: "tuple[str, ...] | None" = None) -> None:
        #: Path fragments where wall clock is legitimate.  Segments match
        #: as directories; entries with a dot match as file suffixes.
        self.allow = allow if allow is not None else (
            "telemetry",
            "benchmarks",
            "bench",
            "examples",
            "cli.py",
        )

    def applies_to(self, path: str) -> bool:
        """Skip allowlisted dirs (segment match) and files (suffix)."""
        for entry in self.allow:
            if "." in entry:
                if path.endswith(entry):
                    return False
            elif self.path_has_segment(path, entry):
                return False
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag wall-clock reads (``time.time``/``monotonic*``/
        ``perf_counter*``) outside the allowlist."""
        # Names bound by ``from time import perf_counter`` etc.
        direct: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self.WALL_ATTRS:
                        direct.add(alias.asname or alias.name)
        for node in _walk_with_parents(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called: "str | None" = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in self.WALL_ATTRS
            ):
                called = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in direct:
                called = f"time.{func.id}"
            if called is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"{called}() reads the wall clock in a simulated "
                    f"path; use the StorageEnv SimulatedClock (wall "
                    f"clock is for telemetry/bench only)",
                )


class UnseededRngRule(Rule):
    """RNG construction or use without an explicit seed.

    Chaos, stress and bench runs must replay from their seed alone, so
    ``default_rng()`` / ``random.Random()`` need an explicit seed (or an
    injected generator) and the process-global ``random.*`` /
    ``np.random.*`` state is off limits everywhere.
    """

    name = "unseeded-rng"

    #: Module-level functions of ``random`` that touch the global RNG.
    GLOBAL_RANDOM = frozenset(
        {
            "random", "randint", "randrange", "randbytes", "uniform",
            "choice", "choices", "sample", "shuffle", "gauss", "normalvariate",
            "expovariate", "betavariate", "gammavariate", "lognormvariate",
            "paretovariate", "weibullvariate", "vonmisesvariate", "triangular",
            "getrandbits", "seed",
        }
    )

    #: Legacy ``np.random`` global-state functions.
    GLOBAL_NUMPY = frozenset(
        {
            "rand", "randn", "randint", "random", "random_sample", "ranf",
            "choice", "shuffle", "permutation", "uniform", "normal", "seed",
            "sample", "bytes", "standard_normal", "exponential", "zipf",
        }
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag seedless RNG construction and module-global draws."""
        # Track aliases: ``from numpy.random import default_rng`` and
        # ``from random import Random`` bind bare names.
        rng_ctors: set[str] = set()
        random_ctors: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "np.random"):
                    for alias in node.names:
                        if alias.name == "default_rng":
                            rng_ctors.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in ("Random", "SystemRandom"):
                            random_ctors.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            unseeded = not node.args and not any(
                kw.arg in ("seed", "x") for kw in node.keywords
            )
            if (
                dotted in ("np.random.default_rng", "numpy.random.default_rng")
                or dotted in rng_ctors
            ):
                if unseeded:
                    yield ctx.finding(
                        self,
                        node,
                        "default_rng() without an explicit seed; pass a "
                        "seed (or inject a Generator) so runs replay "
                        "deterministically",
                    )
            elif dotted in ("random.Random",) or dotted in random_ctors:
                if unseeded:
                    yield ctx.finding(
                        self,
                        node,
                        "random.Random() without an explicit seed; pass a "
                        "seed so runs replay deterministically",
                    )
            elif dotted.startswith("random.") and (
                dotted.removeprefix("random.") in self.GLOBAL_RANDOM
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}() uses the process-global RNG; use an "
                    f"explicitly seeded random.Random / injected generator",
                )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and dotted.rsplit(".", 1)[1] in self.GLOBAL_NUMPY
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}() uses numpy's global RNG state; use "
                    f"np.random.default_rng(seed)",
                )


class OneSidedErrorRule(Rule):
    """Negative answers reachable from except/degraded paths.

    The paper's guarantee is one-sided error: a filter may answer a
    false positive, never a false negative.  Any ``return False`` (or
    all-negative batch) inside an ``except`` handler or a
    degraded-branch ``if`` within ``filters/``, ``service/``,
    ``storage/``, ``cluster/`` or ``durability/`` silently converts an
    outage into a wrong answer.
    """

    name = "one-sided-error"

    SCOPES = ("filters", "service", "storage", "cluster", "durability")

    def applies_to(self, path: str) -> bool:
        """Only guarantee-bearing trees (see ``SCOPES``)."""
        return self.path_has_segment(path, *self.SCOPES)

    @staticmethod
    def _is_negative(value: "ast.expr | None") -> bool:
        """``False``, ``[False, ...]``, or ``[False] * n``."""
        if value is None:
            return False
        if isinstance(value, ast.Constant) and value.value is False:
            return True
        if isinstance(value, ast.List) and value.elts:
            return all(
                isinstance(e, ast.Constant) and e.value is False
                for e in value.elts
            )
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            for side in (value.left, value.right):
                if OneSidedErrorRule._is_negative(side):
                    return True
        return False

    @staticmethod
    def _mentions_degraded(test: ast.expr) -> bool:
        for node in ast.walk(test):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and "degraded" in name.lower():
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag negative returns reachable from except/degraded paths."""
        for node in _walk_with_parents(ctx.tree):
            if not isinstance(node, ast.Return):
                continue
            if not self._is_negative(node.value):
                continue
            for anc in _ancestors(node):
                if isinstance(anc, ast.ExceptHandler):
                    origin = "an except handler"
                elif isinstance(anc, ast.If) and self._mentions_degraded(
                    anc.test
                ):
                    origin = "a degraded branch"
                elif isinstance(
                    anc, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    break  # stop at the enclosing function
                else:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"returns a negative answer from {origin}; degraded "
                    f"paths must answer all-positive (one-sided error, "
                    f"PAPER.md §III)",
                )
                break


class LockDisciplineRule(Rule):
    """Unprotected writes to shared state of lock-owning classes.

    A class that creates a ``threading.Lock``/``RLock``/``Condition``
    attribute is declaring its ``self._*`` state shared.  Writes to that
    state outside ``__init__``/``__post_init__`` must happen inside a
    ``with self.<lock>`` block (any of the class's locks counts — lock
    *assignment* is this rule's job, lock *choice* is the sanitizer's).

    Helper methods that run with the lock already held declare it in
    their docstring — any method whose docstring contains ``lock held``
    is exempt (the project convention, e.g. ``CircuitBreaker._trip``);
    one-off sites carry a ``# lint: allow[lock-discipline]`` pragma.
    """

    name = "lock-discipline"

    _LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})
    _INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

    def _lock_attrs(self, cls: ast.ClassDef) -> set[str]:
        """Attribute names holding a threading lock in ``cls``."""
        locks: set[str] = set()
        for node in ast.walk(cls):
            # self._lock = threading.Lock()
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                dotted = _dotted(node.value.func)
                if dotted and dotted.split(".")[-1] in self._LOCK_CTORS:
                    for tgt in node.targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            locks.add(tgt.attr)
            # dataclass: _lock: threading.Lock = field(default_factory=threading.Lock)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ann = _dotted(node.annotation) or (
                    node.annotation.value
                    if isinstance(node.annotation, ast.Constant)
                    else ""
                )
                if any(c in str(ann) for c in self._LOCK_CTORS):
                    locks.add(node.target.id)
        return locks

    @staticmethod
    def _self_attr_target(node: ast.AST) -> "str | None":
        """``_x`` for a store to ``self._x`` / ``self._x[...]``, else None."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
        ):
            return node.attr
        return None

    @staticmethod
    def _with_holds_lock(anc: ast.With, lock_attrs: set[str]) -> bool:
        for item in anc.items:
            expr = item.context_expr
            # with self._lock:  /  with self._cond:  /  with self._lock.something()
            if isinstance(expr, ast.Call):
                expr = expr.func
            while isinstance(expr, ast.Attribute):
                if (
                    isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in lock_attrs
                ):
                    return True
                expr = expr.value
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag ``self._x`` writes outside ``with self._lock`` in
        lock-owning classes (helpers documented "lock held" exempt)."""
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lock_attrs = self._lock_attrs(cls)
            if not lock_attrs:
                continue
            for meth in cls.body:
                if not isinstance(
                    meth, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if meth.name in self._INIT_METHODS:
                    continue
                doc = ast.get_docstring(meth)
                if doc is not None and "lock held" in doc.lower():
                    continue  # declared called-with-lock-held helper
                yield from self._check_method(ctx, cls, meth, lock_attrs)

    def _check_method(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        meth: ast.FunctionDef,
        lock_attrs: set[str],
    ) -> Iterable[Finding]:
        for node in _walk_with_parents(meth):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                attr = self._self_attr_target(tgt)
                if attr is None or attr in lock_attrs:
                    continue
                protected = any(
                    isinstance(anc, ast.With)
                    and self._with_holds_lock(anc, lock_attrs)
                    for anc in _ancestors(node)
                )
                if not protected:
                    yield ctx.finding(
                        self,
                        node,
                        f"{cls.name}.{meth.name} writes shared attribute "
                        f"self.{attr} outside a 'with self.<lock>' block "
                        f"({cls.name} owns "
                        f"{', '.join(sorted(lock_attrs))})",
                    )


class SpanLeakRule(Rule):
    """``Tracer.start_span``/``attach`` results that are never closed.

    ``start_span`` hands back a span the caller now *owns*: it must be
    finished on every path — ``tracer.finish(span)``, handed to a
    callback or container whose consumer finishes it, or returned so
    the caller takes over.  A span that simply falls off the end of a
    function is never stamped and never reaches the trace store, so the
    leak surfaces as a silently truncated trace rather than an error.
    ``Tracer.attach`` is a context manager; calling it outside a
    ``with`` block builds the generator and never attaches (or pops),
    so child spans land under the wrong parent.

    Scoped to ``cluster/`` and ``service/`` — the trees where spans
    cross threads and replicas and the ``with tracer.span(...)`` idiom
    is not always available.  Cross-function lifecycles this local
    analysis cannot prove (a span parked on a request object, finished
    by whoever drains the queue) are flagged and carried in the
    baseline, or pragma'd where the hand-off is the design.
    """

    name = "span-leak"

    SCOPES = ("cluster", "service")

    def applies_to(self, path: str) -> bool:
        """Only the span-handoff-heavy trees (see ``SCOPES``)."""
        return self.path_has_segment(path, *self.SCOPES)

    @staticmethod
    def _is_tracer(recv: ast.expr) -> bool:
        """Receiver looks like a Tracer — ``tracer``, ``self._tracer``
        or ``get_tracer()`` — so e.g. ``FederatedRegistry.attach`` and
        other same-named methods stay out of scope."""
        if isinstance(recv, ast.Call):
            dotted = _dotted(recv.func)
            return (
                dotted is not None
                and dotted.split(".")[-1] == "get_tracer"
            )
        dotted = _dotted(recv)
        return (
            dotted is not None
            and "tracer" in dotted.split(".")[-1].lower()
        )

    @staticmethod
    def _escapes(scope: ast.AST, binder: ast.AST, name: str) -> bool:
        """Does local ``name`` leave ``scope`` after ``binder`` binds it?

        Escape means ownership moved somewhere this analysis cannot
        follow — passed as a call argument (``tracer.finish(span)``,
        a done-callback factory), stored to an attribute/subscript,
        returned or yielded.  ``span.set(...)`` method calls are *not*
        escapes: the span is the receiver there, not an argument.
        """
        for node in ast.walk(scope):
            if node is binder:
                continue
            values: list[ast.expr] = []
            if isinstance(node, ast.Call):
                values = list(node.args) + [
                    kw.value for kw in node.keywords
                ]
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    values = [node.value]
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if node.value is not None:
                    values = [node.value]
            for value in values:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag leaked ``start_span`` results and non-``with`` ``attach``."""
        for node in _walk_with_parents(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not self._is_tracer(func.value):
                continue
            if func.attr == "attach":
                yield from self._check_attach(ctx, node)
            elif func.attr == "start_span":
                yield from self._check_start_span(ctx, node)

    def _check_attach(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        parent = getattr(node, "_lint_parent", None)
        if isinstance(parent, ast.withitem):
            return
        yield ctx.finding(
            self,
            node,
            "Tracer.attach() outside a 'with' block never attaches (or "
            "detaches) the span; use 'with tracer.attach(span):'",
        )

    def _check_start_span(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        parent = getattr(node, "_lint_parent", None)
        if isinstance(parent, ast.Expr):
            yield ctx.finding(
                self,
                node,
                "start_span() result discarded — the span can never be "
                "finished; use 'with tracer.span(...)' or bind and "
                "finish it on every path",
            )
            return
        if not isinstance(parent, ast.Assign) or len(parent.targets) != 1:
            # Returned / passed straight to another call: ownership
            # moves with the value; the consumer is accountable.
            return
        target = parent.targets[0]
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            where = _dotted(target) or "a container"
            yield ctx.finding(
                self,
                node,
                f"start_span() result parked on {where}; the finish is "
                f"a cross-function lifecycle this rule cannot prove — "
                f"close it on every path, or carry the site in the "
                f"baseline/pragma if the hand-off is the design",
            )
            return
        if not isinstance(target, ast.Name):
            return
        scope: ast.AST = next(
            (
                a
                for a in _ancestors(parent)
                if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            ctx.tree,
        )
        if self._escapes(scope, parent, target.id):
            return
        owner = getattr(scope, "name", "<module>")
        yield ctx.finding(
            self,
            node,
            f"span '{target.id}' from start_span() is never finished, "
            f"stored or returned on any path in {owner}; every path "
            f"must reach tracer.finish() or hand the span off",
        )


class BareExceptRule(Rule):
    """``except:`` — and overbroad ``except Exception`` that swallows.

    A bare except (or a swallowed ``Exception``/``BaseException``)
    converts unknown failures into silent behaviour changes — in this
    codebase typically a silent FPR regression rather than a crash.
    Narrow to the typed errors in ``core/errors.py``; genuinely
    intentional broad catches (e.g. user-supplied telemetry callbacks)
    carry a ``# lint: allow[bare-except]`` pragma.
    """

    name = "bare-except"

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag bare ``except:`` and non-reraising broad handlers."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare 'except:' — catch the typed errors from "
                    "core/errors.py instead",
                )
                continue
            names = []
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                dotted = _dotted(t)
                if dotted is not None:
                    names.append(dotted.split(".")[-1])
            if (
                any(n in ("Exception", "BaseException") for n in names)
                and not self._reraises(node)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"'except {' | '.join(names)}' swallows unknown "
                    f"failures — narrow to the typed errors from "
                    f"core/errors.py or re-raise",
                )


class MutableDefaultArgRule(Rule):
    """Mutable default argument values (shared across calls)."""

    name = "mutable-default-arg"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                                "deque", "Counter", "OrderedDict"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted and dotted.split(".")[-1] in self._MUTABLE_CALLS:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag mutable literal / constructor-call default arguments."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default argument in {node.name}(); "
                        f"use None and construct inside the function",
                    )


def make_default_rules() -> list[Rule]:
    """A fresh instance of every project rule."""
    return [
        WallClockRule(),
        UnseededRngRule(),
        OneSidedErrorRule(),
        LockDisciplineRule(),
        SpanLeakRule(),
        BareExceptRule(),
        MutableDefaultArgRule(),
    ]


#: Shared default rule set (rules are stateless; reuse is safe).
DEFAULT_RULES: list[Rule] = make_default_rules()
