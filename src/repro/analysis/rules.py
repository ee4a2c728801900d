"""The NC1xx simulator-invariant lint rules.

Each rule encodes one invariant the cycle model's correctness rests on;
the catalogue with bad/good examples lives in
``docs/static_analysis.md``.  Importing this module registers every rule
with :mod:`repro.analysis.nclint`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.nclint import ModuleContext, Rule, register

#: Dotted-call prefixes that read ambient nondeterministic state.  Any
#: of these inside a cycle-model module would break bit-identical
#: replay, skip-ahead equivalence and timing-pass memoization.
_NONDETERMINISTIC_PREFIXES = (
    "time.", "random.", "np.random.", "numpy.random.", "datetime.",
)

_OBS_ALLOWED_MODULES = frozenset({
    # The tracer-hook protocol: agents accept an optional Tracer built
    # from the run context's TraceOptions.  repro.obs.attribution is
    # the post-run verdict step run_network and the sharded executor
    # append to their reports; it reads a finished report, never a
    # running pass.  Everything else in repro.obs (counters, exporters,
    # manifests) is presentation-layer.
    "repro.obs.tracer",
    "repro.obs.attribution",
})

_TRACER_EXPR_RE = re.compile(r"^(self\.)?_?tracer$")


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _imported_modules(tree: ast.Module) -> Iterator[tuple[int, int, str]]:
    """Yield ``(line, col, module)`` for every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, node.col_offset, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:  # relative import: not a repro.* absolute path
                continue
            yield node.lineno, node.col_offset, node.module


@register
class NoWallClockOrRandom(Rule):
    """NC101: no wall-clock, random or datetime calls in the cycle model."""

    code = "NC101"
    title = "no wall-clock/random calls in cycle-model modules"
    rationale = (
        "The simulator guarantees bit-identical results across "
        "serial/parallel/skip-ahead/memoized execution; any read of "
        "host time or entropy inside repro.core/noc/memory silently "
        "breaks replay and memoization.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for line, col, module in _imported_modules(ctx.tree):
            if module == "random" or module.startswith("random."):
                yield line, col, ("import of 'random' in cycle-model "
                                  f"module {ctx.module}")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            for prefix in _NONDETERMINISTIC_PREFIXES:
                if name.startswith(prefix):
                    yield (node.lineno, node.col_offset,
                           f"call to nondeterministic '{name}' in "
                           f"cycle-model module {ctx.module}")
                    break


@register
class ObsLayering(Rule):
    """NC102: cycle model reaches repro.obs only via the tracer hooks."""

    code = "NC102"
    title = "cycle model imports repro.obs only via the tracer protocol"
    rationale = (
        "Observability must stay optional and one-directional: agents "
        "accept a Tracer (repro.obs.tracer), and finished reports get "
        "their bottleneck verdicts from repro.obs.attribution.  "
        "Importing exporters, counters or manifests from the cycle "
        "model would invert the layering and drag I/O into the hot "
        "loop.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for line, col, module in _imported_modules(ctx.tree):
            if module == "repro.obs" or module.startswith("repro.obs."):
                if module not in _OBS_ALLOWED_MODULES:
                    yield line, col, (
                        f"cycle-model module {ctx.module} imports "
                        f"{module}; only "
                        f"{sorted(_OBS_ALLOWED_MODULES)} are part of the "
                        f"tracer-hook protocol")


@register
class NnIsolation(Rule):
    """NC103: repro.nn may not import repro.core."""

    code = "NC103"
    title = "repro.nn does not reach into repro.core"
    rationale = (
        "The NN reference library is the simulator's ground truth; a "
        "dependency on repro.core would make the check circular and "
        "couple the numerics to simulator internals.")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro.nn")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for line, col, module in _imported_modules(ctx.tree):
            if module == "repro.core" or module.startswith("repro.core."):
                yield line, col, (
                    f"{ctx.module} imports {module}; repro.nn must stay "
                    f"independent of the simulator")


@register
class SchedulerContract(Rule):
    """NC104: next_event_delta and skip are defined together."""

    code = "NC104"
    title = "event-horizon scheduler contract is complete"
    rationale = (
        "The skip-ahead scheduler fast-forwards any agent whose "
        "next_event_delta exceeds one by calling skip; a class "
        "implementing only half the contract either cannot be skipped "
        "(stalling the event horizon) or advertises skippability it "
        "cannot honour.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            has_delta = "next_event_delta" in methods
            has_skip = "skip" in methods
            if has_delta != has_skip:
                present, missing = (("next_event_delta", "skip")
                                    if has_delta
                                    else ("skip", "next_event_delta"))
                yield (node.lineno, node.col_offset,
                       f"class {node.name} defines {present} without "
                       f"{missing}; the scheduler contract needs both")


def _nonnull_guards(test: ast.expr) -> set[str]:
    """Expressions proven ``is not None`` when ``test`` is true."""
    guards: set[str] = set()
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        guards.add(ast.unparse(test.left))
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            guards |= _nonnull_guards(value)
    return guards


def _null_test_expr(test: ast.expr) -> str | None:
    """The expression X when ``test`` is exactly ``X is None``."""
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return ast.unparse(test.left)
    return None


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _TracerGuardScanner:
    """Flow-aware scan for unguarded tracer method calls.

    Tracks, per lexical position, the set of expressions proven
    ``is not None`` by enclosing ``if`` statements, ``and`` chains,
    conditional expressions, and early-return null checks — the guard
    idioms the hot paths actually use.
    """

    def __init__(self) -> None:
        self.findings: list[tuple[int, int, str]] = []

    def scan_block(self, stmts: list[ast.stmt], guards: set[str]) -> None:
        guards = set(guards)
        for stmt in stmts:
            self.scan_stmt(stmt, guards)
            if isinstance(stmt, ast.If) and _terminates(stmt.body):
                null_expr = _null_test_expr(stmt.test)
                if null_expr is not None:
                    guards.add(null_expr)

    def scan_stmt(self, stmt: ast.stmt, guards: set[str]) -> None:
        if isinstance(stmt, ast.If):
            self.scan_expr(stmt.test, guards)
            self.scan_block(stmt.body, guards | _nonnull_guards(stmt.test))
            orelse_guards = set(guards)
            null_expr = _null_test_expr(stmt.test)
            if null_expr is not None:
                orelse_guards.add(null_expr)
            self.scan_block(stmt.orelse, orelse_guards)
        elif isinstance(stmt, ast.While):
            self.scan_expr(stmt.test, guards)
            self.scan_block(stmt.body, guards | _nonnull_guards(stmt.test))
            self.scan_block(stmt.orelse, guards)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter, guards)
            self.scan_block(stmt.body, guards)
            self.scan_block(stmt.orelse, guards)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs later; enclosing guards need not
            # hold at call time.
            self.scan_block(stmt.body, set())
        elif isinstance(stmt, ast.ClassDef):
            self.scan_block(stmt.body, set())
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr, guards)
            self.scan_block(stmt.body, guards)
        elif isinstance(stmt, ast.Try):
            self.scan_block(stmt.body, guards)
            for handler in stmt.handlers:
                self.scan_block(handler.body, guards)
            self.scan_block(stmt.orelse, guards)
            self.scan_block(stmt.finalbody, guards)
        else:
            for child in ast.iter_child_nodes(stmt):
                self.scan_expr(child, guards)

    def scan_expr(self, node: ast.AST, guards: set[str]) -> None:
        if isinstance(node, ast.IfExp):
            self.scan_expr(node.test, guards)
            self.scan_expr(node.body, guards | _nonnull_guards(node.test))
            orelse_guards = set(guards)
            null_expr = _null_test_expr(node.test)
            if null_expr is not None:
                orelse_guards.add(null_expr)
            self.scan_expr(node.orelse, orelse_guards)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            acc = set(guards)
            for value in node.values:
                self.scan_expr(value, acc)
                acc |= _nonnull_guards(value)
            return
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            base = ast.unparse(node.func.value)
            if _TRACER_EXPR_RE.match(base) and base not in guards:
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"tracer emit '{base}.{node.func.attr}(...)' not "
                    f"guarded by '{base} is not None'"))
        for child in ast.iter_child_nodes(node):
            self.scan_expr(child, guards)


@register
class TracerEmitsGuarded(Rule):
    """NC105: every tracer emit sits behind an ``is not None`` guard."""

    code = "NC105"
    title = "tracer emits guarded by 'is not None'"
    rationale = (
        "The untraced hot path must stay a single pointer comparison "
        "per instrumentation site.  An unguarded tracer call crashes "
        "every untraced run with AttributeError on None — or worse, "
        "quietly adds per-cycle overhead.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        scanner = _TracerGuardScanner()
        scanner.scan_block(ctx.tree.body, set())
        yield from scanner.findings


@register
class NoAmbientEnvironment(Rule):
    """NC106: no environment-variable reads in the cycle model."""

    code = "NC106"
    title = "no ambient environment reads in cycle-model modules"
    rationale = (
        "os.environ is ambient state: two runs of the same plan on the "
        "same inputs could diverge because a shell variable changed.  "
        "Configuration must flow through NeurocubeConfig fields (waived "
        "call sites must prove they cannot alter simulated results).")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for line, col, module in _imported_modules(ctx.tree):
            if module == "os.environ":
                yield line, col, "import of os.environ in cycle model"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in ("environ", "getenv", "putenv"):
                        yield (node.lineno, node.col_offset,
                               f"import of os.{alias.name} in "
                               f"cycle-model module {ctx.module}")
            name = (_dotted_name(node)
                    if isinstance(node, ast.Attribute) else None)
            if name in ("os.environ", "os.getenv", "os.putenv"):
                yield (node.lineno, node.col_offset,
                       f"ambient environment access '{name}' in "
                       f"cycle-model module {ctx.module}")


@register
class NoBareAsserts(Rule):
    """NC107: datapath code raises typed errors, not bare asserts."""

    code = "NC107"
    title = "no bare asserts in cycle-model modules"
    rationale = (
        "Asserts vanish under 'python -O' and carry no message a user "
        "can act on.  Datapath validation must raise the typed "
        "repro.errors hierarchy (ConfigurationError, MappingError, "
        "SimulationError) with actionable messages.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield (node.lineno, node.col_offset,
                       f"bare assert in cycle-model module {ctx.module}; "
                       f"raise a typed repro.errors exception instead")


#: Module roots whose import anywhere in the cycle model means ambient,
#: order-dependent entropy.  ``repro.faults`` provides the counter-based
#: :class:`repro.faults.rng.DeterministicRNG` instead.
_AMBIENT_RNG_MODULES = ("random", "numpy.random")


@register
class NoAmbientRNG(Rule):
    """NC108: fault injection must use the counter-based RNG."""

    code = "NC108"
    title = "no ambient RNG imports in cycle-model modules"
    rationale = (
        "Stateful generators (random.Random, numpy.random) draw in "
        "execution order, which differs between serial, parallel and "
        "skip-ahead runs, and their hidden state would have to ride in "
        "every checkpoint.  Fault injection and any other stochastic "
        "modelling must go through repro.faults.rng.DeterministicRNG, "
        "whose draws are pure functions of (seed, site key).")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        # Plain and dotted imports (``import random``,
        # ``import numpy.random as npr``) plus from-imports of the
        # module itself or any name out of it
        # (``from random import gauss``, ``from numpy import random``).
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if any(alias.name == root
                           or alias.name.startswith(root + ".")
                           for root in _AMBIENT_RNG_MODULES):
                        yield (node.lineno, node.col_offset,
                               f"ambient RNG import '{alias.name}' in "
                               f"cycle-model module {ctx.module}; use "
                               f"repro.faults.rng.DeterministicRNG")
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue
                if any(node.module == root
                       or node.module.startswith(root + ".")
                       for root in _AMBIENT_RNG_MODULES):
                    yield (node.lineno, node.col_offset,
                           f"from-import of ambient RNG module "
                           f"'{node.module}' in cycle-model module "
                           f"{ctx.module}; use "
                           f"repro.faults.rng.DeterministicRNG")
                elif node.module == "numpy" and any(
                        alias.name == "random" for alias in node.names):
                    yield (node.lineno, node.col_offset,
                           f"from-import of numpy.random in cycle-model "
                           f"module {ctx.module}; use "
                           f"repro.faults.rng.DeterministicRNG")


#: Module roots that exist to persist state: importing any of them in a
#: cycle-model module means ad-hoc durable state off the validated paths.
_DURABLE_STATE_MODULES = ("pickle", "shelve", "marshal", "dbm")

#: The sanctioned durable-state modules: the checkpoint store and the
#: persistent memo store.  Both do atomic versioned writes and validate
#: (or reject) entries on load; everything else in the cycle model must
#: go through them.
_PERSISTENCE_ALLOWED_MODULES = frozenset({
    "repro.faults.checkpoint",
    "repro.memo.store",
})


@register
class NoAdhocPersistence(Rule):
    """NC109: durable state only via the checkpoint/memo stores."""

    code = "NC109"
    title = "no ad-hoc open()/pickle persistence in cycle-model modules"
    rationale = (
        "Durable state that bypasses the validated stores "
        "(repro.faults.checkpoint, repro.memo.store) is written "
        "non-atomically, carries no version or fingerprint header, and "
        "is replayed without the key-to-hash check — a torn or stale "
        "file then silently corrupts a bit-identical run.  Cycle-model "
        "code must persist through CheckpointStore or MemoStore.")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return (ctx.in_cycle_model()
                and ctx.module not in _PERSISTENCE_ALLOWED_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for line, col, module in _imported_modules(ctx.tree):
            root = module.split(".", 1)[0]
            if root in _DURABLE_STATE_MODULES:
                yield line, col, (
                    f"import of serialisation module '{module}' in "
                    f"cycle-model module {ctx.module}; persist through "
                    f"CheckpointStore or MemoStore instead")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield (node.lineno, node.col_offset,
                       f"ad-hoc open() in cycle-model module "
                       f"{ctx.module}; persist through CheckpointStore "
                       f"or MemoStore instead")
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                yield (node.lineno, node.col_offset,
                       f"ad-hoc '{ast.unparse(func)}(...)' in "
                       f"cycle-model module {ctx.module}; persist "
                       f"through CheckpointStore or MemoStore instead")


#: The one module allowed to read the monotonic clock: the run
#: context's phase timers.  Everything else — including host-side
#: tooling — must take timing through those timers so phase accounting
#: stays complete and a grep for monotonic() has exactly one hit.
_PHASE_TIMING_MODULE = "repro.core.context"

_MONOTONIC_CALLS = ("time.monotonic", "time.monotonic_ns")


@register
class NoAdhocPhaseTiming(Rule):
    """NC110: ``time.monotonic`` only inside ``repro.core.context``."""

    code = "NC110"
    title = "host-phase timing only via the run context's phase timers"
    rationale = (
        "Scattered time.monotonic() calls fragment host-phase "
        "accounting: a phase timed outside the run context's timers "
        "never reaches RunContext.phases or the manifest's phases "
        "block, and escapes the nesting rule that keeps phases "
        "disjoint, so the breakdown silently under- or over-reports.  "
        "All host-phase timing goes through RunContext.phase / "
        "phase_factory; only repro.core.context may read the "
        "monotonic clock.")

    def applies_to(self, ctx: ModuleContext) -> bool:
        # Unlike the NC10x rules this applies to *every* module, not
        # just the cycle model — ad-hoc timing in tooling leaks past
        # the phase breakdown just the same.
        return ctx.module != _PHASE_TIMING_MODULE

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                if node.level:
                    continue
                for alias in node.names:
                    if alias.name in ("monotonic", "monotonic_ns"):
                        yield (node.lineno, node.col_offset,
                               f"import of time.{alias.name} in "
                               f"{ctx.module}; time host phases via "
                               f"RunContext.phase instead")
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name in _MONOTONIC_CALLS:
                    yield (node.lineno, node.col_offset,
                           f"ad-hoc '{name}()' in {ctx.module}; time "
                           f"host phases via RunContext.phase "
                           f"instead")


#: Builtins whose result depends on the order their input arrives in
#: (float sums, sequence construction, string joins).  Feeding them a
#: set makes the outcome hash-order-dependent.
_ORDER_DEPENDENT_FOLDS = frozenset({"sum", "list", "tuple"})


def _set_expr_label(node: ast.expr) -> str | None:
    """A short label when ``node`` is syntactically an unordered set."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"a {name}(...) call"
    return None


@register
class NoUnorderedFolds(Rule):
    """NC111: no iteration/reduction over unordered sets in the cycle
    model."""

    code = "NC111"
    title = "no set-ordered iteration or dict.popitem in cycle-model folds"
    rationale = (
        "Set iteration order follows the hash seed, and dict.popitem "
        "pops whatever happens to be last — a reduction folded over "
        "either gives results that differ between interpreter runs.  "
        "The sharded executor's barrier arithmetic is exactly such a "
        "fold (parent-side integer math over per-cube outcomes, in "
        "cube order); any cycle-model reduction must iterate a list, "
        "tuple or sorted() view so serial, parallel and replayed runs "
        "fold identically.")

    def check(self, ctx: ModuleContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                label = _set_expr_label(node.iter)
                if label is not None:
                    yield (node.iter.lineno, node.iter.col_offset,
                           f"for-loop over {label} in cycle-model "
                           f"module {ctx.module}; iteration order "
                           f"follows the hash seed — fold over a list, "
                           f"tuple or sorted() view")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    label = _set_expr_label(gen.iter)
                    if label is not None:
                        yield (gen.iter.lineno, gen.iter.col_offset,
                               f"comprehension over {label} in "
                               f"cycle-model module {ctx.module}; "
                               f"iterate a sorted() view instead")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "popitem"):
                    yield (node.lineno, node.col_offset,
                           f"'{ast.unparse(func)}()' in cycle-model "
                           f"module {ctx.module}; popitem order is "
                           f"incidental — pop an explicit key instead")
                    continue
                name = func.id if isinstance(func, ast.Name) else None
                is_join = (isinstance(func, ast.Attribute)
                           and func.attr == "join")
                if ((name in _ORDER_DEPENDENT_FOLDS or is_join)
                        and node.args):
                    label = _set_expr_label(node.args[0])
                    if label is not None:
                        what = "join" if is_join else name
                        yield (node.lineno, node.col_offset,
                               f"order-dependent '{what}' over {label} "
                               f"in cycle-model module {ctx.module}; "
                               f"the fold result would follow the "
                               f"hash seed — sort first")


#: Seeded one-violation sources per rule, keyed by code: the
#: ``nclint --self-test`` corpus.  Each fixture is the smallest module
#: (name, source) on which the rule must fire; the self-test also
#: re-lints with an ``allow()`` pragma to prove the waiver path works.
#: A rule registered without a fixture here fails the self-test.
SELF_TEST_FIXTURES: dict[str, tuple[str, str]] = {
    "NC101": ("repro.core.selftest",
              "import time\n\n"
              "def stamp():\n"
              "    return time.time()\n"),
    "NC102": ("repro.core.selftest",
              "from repro.obs.exporters import dump\n"),
    "NC103": ("repro.nn.selftest",
              "import repro.core\n"),
    "NC104": ("repro.core.selftest",
              "class Vault:\n"
              "    def next_event_delta(self):\n"
              "        return 1\n"),
    "NC105": ("repro.core.selftest",
              "class PE:\n"
              "    def fire(self):\n"
              "        self._tracer.mac_fire(self.cycle, 0)\n"),
    "NC106": ("repro.core.selftest",
              "from os import environ\n"),
    "NC107": ("repro.core.selftest",
              "def check(x):\n"
              "    assert x > 0\n"),
    "NC108": ("repro.faults.selftest",
              "import numpy.random\n"),
    "NC109": ("repro.memo.selftest",
              "import pickle\n"),
    "NC110": ("repro.obs.selftest",
              "import time\n\n"
              "def phase():\n"
              "    return time.monotonic()\n"),
    "NC111": ("repro.core.selftest",
              "def fold(states):\n"
              "    return sum({1, 2, 3})\n"),
}
