"""The project-aware rule set and its registry.

Every rule is a small class: an id, a severity, a path predicate and one or
two node hooks.  The engine hands each rule a :class:`~repro.lint.context
.ModuleContext`; all import-alias resolution, literal extraction and
position plumbing lives there, which keeps a new rule at ~30 lines.

Shipped rules (the codebase's real bug classes — see docs/static-analysis.md
for the catalogue with examples):

========  ========  ==========================================================
id        severity  what it catches
========  ========  ==========================================================
DET001    error     calls to the process-global RNG (``random.*``,
                    ``numpy.random.*``) instead of a seeded instance
DET002    warning   iteration over sets / ``dict.keys()`` without ``sorted``
                    in the deterministic pipeline (core/simulator/dht/traces)
DET003    error     wall-clock / entropy APIs (``time.time``,
                    ``datetime.now``, ``os.urandom``, ``uuid4``, ...) in
                    core/simulator/dht hot paths
NUM001    warning   float ``==`` / ``!=`` against a non-zero float literal
                    (trust values need ``math.isclose`` + tolerance)
NUM002    error     weight tuples (eta/rho, alpha/beta/gamma) whose literal
                    components do not sum to 1 (Eq. 1 / Eq. 7 simplex)
NUM003    warning   builtin ``sum()`` over terms not visibly integral (float
                    totals differ between CPython 3.11 and 3.12)
OBS001    warning   bypassing the recorder facade (constructing ``Recorder``
                    or reaching into ``recorder.trace`` / ``.registry``)
========  ========  ==========================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from ..obs.stats import ordered_sum
from .context import ModuleContext
from .diagnostics import Diagnostic, Severity

__all__ = ["Rule", "register", "all_rules", "rules_by_id", "RULES"]

_TOLERANCE = 1e-9


class Rule:
    """Base class: subclass, set the class attributes, implement hooks.

    Hooks a subclass may implement (all optional):

    * ``check_call(node, ctx)`` -- every ``ast.Call``;
    * ``check_compare(node, ctx)`` -- every ``ast.Compare``;
    * ``check_assign(node, ctx)`` -- every ``ast.Assign``;
    * ``check_attribute(node, ctx)`` -- every ``ast.Attribute``;
    * ``check_iteration(expr, ctx)`` -- every ``for``/comprehension
      iteration target;
    * ``check_module(ctx)`` -- once per module, for rules that need their
      own traversal (scope tracking, cross-statement analysis).

    Each hook yields :class:`~repro.lint.diagnostics.Diagnostic` objects.
    """

    rule_id: str = ""
    severity: Severity = Severity.WARNING
    summary: str = ""
    hint: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix-normalised)."""
        return True

    def report(self, ctx: ModuleContext, node: ast.AST,
               message: str, hint: Optional[str] = None) -> Diagnostic:
        return ctx.diagnostic(node, self.rule_id, self.severity, message,
                              self.hint if hint is None else hint)


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """One instance of every registered rule, ordered by id."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


def rules_by_id(ids: Iterable[str]) -> List[Rule]:
    rules = []
    for rule_id in sorted(set(ids)):
        if rule_id not in RULES:
            raise ValueError(
                f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULES))}")
        rules.append(RULES[rule_id]())
    return rules


def _in_paths(path: str, *segments: str) -> bool:
    """True when ``path`` has any of ``segments`` as a directory component."""
    return any(re.search(rf"(^|/){segment}(/|$)", path)
               for segment in segments)


# --------------------------------------------------------------------- #
# Determinism                                                           #
# --------------------------------------------------------------------- #


@register
class GlobalRandomRule(Rule):
    """DET001: the process-global RNG is unseeded shared state."""

    rule_id = "DET001"
    severity = Severity.ERROR
    summary = ("call to the process-global RNG instead of a seeded "
               "random.Random / numpy default_rng instance")
    hint = ("thread a seeded random.Random(seed) or "
            "numpy.random.default_rng(seed) through the call site")

    #: Attributes of ``random`` that do not touch the global RNG stream.
    _SAFE_RANDOM = frozenset({"Random", "SystemRandom", "getstate",
                              "setstate"})
    #: Seeded constructors on ``numpy.random``.
    _SAFE_NUMPY = frozenset({"default_rng", "Generator", "RandomState",
                             "SeedSequence", "BitGenerator", "PCG64",
                             "PCG64DXSM", "MT19937", "Philox", "SFC64"})

    def applies_to(self, path: str) -> bool:
        return not _in_paths(path, "tests", "test", "benchmarks", "examples")

    def check_call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Diagnostic]:
        qualname = ctx.resolve_call(node)
        if qualname is None:
            return
        if qualname.startswith("random."):
            tail = qualname.split(".", 1)[1]
            if "." not in tail and tail not in self._SAFE_RANDOM:
                yield self.report(
                    ctx, node,
                    f"call to the process-global RNG `{qualname}`")
        elif qualname.startswith("numpy.random."):
            tail = qualname.split(".", 2)[2]
            if "." not in tail and tail not in self._SAFE_NUMPY:
                yield self.report(
                    ctx, node,
                    f"call to the process-global numpy RNG `{qualname}`")


@register
class UnsortedSetIterationRule(Rule):
    """DET002: set iteration order depends on PYTHONHASHSEED.

    Flags iteration directly over a set expression (literal, ``set(...)``,
    set-algebra method call) or over ``dict.keys()``, plus iteration over a
    local name that was assigned a set expression earlier in the same
    function.  Wrapping the iterable in ``sorted(...)`` fixes all of them.
    Scoped to the deterministic pipeline (core/simulator/dht/traces); the
    PR 2 hash-order bug in the trust builders is exactly this class.
    """

    rule_id = "DET002"
    severity = Severity.WARNING
    summary = ("iteration over a set / dict.keys() without sorted() in the "
               "deterministic pipeline")
    hint = "wrap the iterable in sorted(...) to pin the order"

    _SET_METHODS = frozenset({"intersection", "union", "difference",
                              "symmetric_difference"})

    def applies_to(self, path: str) -> bool:
        return _in_paths(path, "core", "simulator", "dht", "traces")

    def _is_set_expression(self, node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            qualname = ctx.resolve_call(node)
            if qualname in ("set", "frozenset"):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SET_METHODS):
                return True
        return False

    def _describe(self, node: ast.AST, ctx: ModuleContext) -> str:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return f"`.{node.func.attr}(...)`"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        return "`set(...)`"

    def check_iteration(self, expr: ast.AST,
                        ctx: ModuleContext) -> Iterator[Diagnostic]:
        if self._is_set_expression(expr, ctx):
            yield self.report(
                ctx, expr,
                f"iterating {self._describe(expr, ctx)} without sorted(); "
                "set order depends on PYTHONHASHSEED")
        elif (isinstance(expr, ast.Call)
              and isinstance(expr.func, ast.Attribute)
              and expr.func.attr == "keys" and not expr.args):
            yield self.report(
                ctx, expr,
                "iterating `.keys()` without sorted(); insertion order "
                "propagates upstream nondeterminism",
                hint="iterate sorted(mapping) to pin the order")

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Function-local dataflow: names assigned a set, later iterated."""
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            set_names = self._set_assigned_names(function, ctx)
            if not set_names:
                continue
            for target in self._iteration_targets(function):
                if isinstance(target, ast.Name) and target.id in set_names:
                    yield self.report(
                        ctx, target,
                        f"iterating set `{target.id}` without sorted(); "
                        "set order depends on PYTHONHASHSEED")

    def _set_assigned_names(self, function: ast.AST,
                            ctx: ModuleContext) -> "set[str]":
        assigned: "set[str]" = set()
        for node in ast.walk(function):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            is_set = self._is_set_expression(value, ctx)
            for target in targets:
                if isinstance(target, ast.Name):
                    if is_set:
                        assigned.add(target.id)
                    else:
                        # Rebound to something non-set: stop tracking.
                        assigned.discard(target.id)
        return assigned

    @staticmethod
    def _iteration_targets(function: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    yield generator.iter


@register
class WallClockEntropyRule(Rule):
    """DET003: hot paths must be driven by simulation time and seeds."""

    rule_id = "DET003"
    severity = Severity.ERROR
    summary = ("wall-clock / entropy API in a deterministic hot path "
               "(core/simulator/dht)")
    hint = ("use the engine's simulation clock / a seeded RNG; wall-clock "
            "timing belongs in repro.obs (time a phase with "
            "`recorder.span`, whose clock is allowlisted)")

    _BANNED = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbelow", "secrets.randbits", "secrets.choice",
    })

    #: Path fragments exempt from the ban.  The observability recorder owns
    #: the project's only legitimate wall clock (its spans), so the
    #: whole ``obs`` package is allowlisted even when a caller asks lint to
    #: scan it directly.
    path_allowlist: Tuple[str, ...] = ("obs",)

    def applies_to(self, path: str) -> bool:
        if _in_paths(path, *self.path_allowlist):
            return False
        if _in_paths(path, "tests", "test", "benchmarks", "examples"):
            return False
        return _in_paths(path, "core", "simulator", "dht")

    def check_call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Diagnostic]:
        qualname = ctx.resolve_call(node)
        if qualname in self._BANNED:
            yield self.report(
                ctx, node,
                f"`{qualname}` is wall-clock/entropy state; runs would "
                "not be bitwise reproducible")


# --------------------------------------------------------------------- #
# Numerics                                                              #
# --------------------------------------------------------------------- #


@register
class FloatEqualityRule(Rule):
    """NUM001: exact float comparison on trust/reputation arithmetic.

    Comparing against the exact literal ``0.0`` is exempt — the sparse
    matrix stores zero as absent, so ``value == 0.0`` is a sentinel check,
    not an arithmetic one.  Any other float literal in an ``==``/``!=``
    comparison is flagged.
    """

    rule_id = "NUM001"
    severity = Severity.WARNING
    summary = "float == / != against a non-zero float literal"
    hint = "use math.isclose(a, b, rel_tol=..., abs_tol=...) instead"

    def check_compare(self, node: ast.Compare,
                      ctx: ModuleContext) -> Iterator[Diagnostic]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for operand in (left, right):
                literal = ctx.float_literal(operand)
                if literal is not None and literal != 0.0:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.report(
                        ctx, node,
                        f"exact float comparison `{symbol} {literal}`; "
                        "accumulated trust values carry rounding error")
                    break


@register
class WeightSimplexRule(Rule):
    """NUM002: literal weight tuples must sit on the paper's simplexes.

    Two shapes are checked statically:

    * a call that passes a *complete* literal weight group as keywords
      (``eta``/``rho`` for Eq. 1, ``alpha``/``beta``/``gamma`` for Eq. 7)
      whose literals do not sum to 1 — this is the
      ``ReputationConfig(...)`` misconfiguration caught before runtime;
    * an assignment of a 2/3-tuple of numeric literals to a ``*weight*``
      name (or an unpacking onto the weight names themselves) that does
      not sum to 1.
    """

    rule_id = "NUM002"
    severity = Severity.ERROR
    summary = "literal weight tuple off the Eq. 1 / Eq. 7 simplex"
    hint = ("make the weights sum to 1, or pass them through "
            "repro.lint.contracts.assert_simplex if computed")

    _GROUPS: Tuple[Tuple[str, ...], ...] = (("eta", "rho"),
                                            ("alpha", "beta", "gamma"))
    _NAME_PATTERN = re.compile(r"weight", re.IGNORECASE)

    def check_call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Diagnostic]:
        literals: Dict[str, float] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                return  # **kwargs: cannot see the full group statically.
            value = ctx.number_literal(keyword.value)
            if value is not None:
                literals[keyword.arg] = value
        for group in self._GROUPS:
            if all(name in literals for name in group):
                total = ordered_sum(literals[name] for name in group)
                if abs(total - 1.0) > _TOLERANCE:
                    yield self.report(
                        ctx, node,
                        f"{' + '.join(group)} = {total:g}, must sum to 1")
        qualname = ctx.resolve_call(node) or ""
        if (qualname.endswith("with_dimension_weights")
                and len(node.args) == 3):
            values = [ctx.number_literal(arg) for arg in node.args]
            if all(value is not None for value in values):
                total = ordered_sum(values)  # type: ignore[arg-type]
                if abs(total - 1.0) > _TOLERANCE:
                    yield self.report(
                        ctx, node,
                        f"alpha + beta + gamma = {total:g}, must sum to 1")

    def check_assign(self, node: ast.Assign,
                     ctx: ModuleContext) -> Iterator[Diagnostic]:
        for target in node.targets:
            diagnostic = self._check_one(target, node.value, ctx)
            if diagnostic is not None:
                yield diagnostic

    def _check_one(self, target: ast.expr, value: ast.expr,
                   ctx: ModuleContext) -> Optional[Diagnostic]:
        values = self._tuple_literals(value, ctx)
        if values is None or not 2 <= len(values) <= 3:
            return None
        named_weights = (isinstance(target, ast.Name)
                         and self._NAME_PATTERN.search(target.id))
        unpacked_group = (isinstance(target, (ast.Tuple, ast.List))
                          and tuple(element.id
                                    for element in target.elts
                                    if isinstance(element, ast.Name))
                          in self._GROUPS)
        if not named_weights and not unpacked_group:
            return None
        total = ordered_sum(values)
        if abs(total - 1.0) <= _TOLERANCE:
            return None
        label = (target.id if isinstance(target, ast.Name)
                 else "unpacked weights")
        return self.report(
            ctx, value,
            f"weight tuple `{label}` sums to {total:g}, must sum to 1")

    @staticmethod
    def _tuple_literals(node: ast.expr,
                        ctx: ModuleContext) -> Optional[List[float]]:
        if not isinstance(node, (ast.Tuple, ast.List)):
            return None
        values = [ctx.number_literal(element) for element in node.elts]
        if any(value is None for value in values):
            return None
        return values  # type: ignore[return-value]


@register
class BuiltinSumRule(Rule):
    """NUM003: builtin ``sum()`` of floats differs across interpreters.

    CPython 3.12 changed how ``sum`` adds floats, so the same float total
    can differ in its last bits between 3.11 and 3.12.  Float totals go
    through :func:`repro.obs.stats.ordered_sum`.  ``sum`` stays allowed
    where its argument is visibly integral: an int literal, ``len(...)``,
    ``int(...)``, a comparison, or arithmetic and conditionals over those,
    as the element of a comprehension or a literal list.
    """

    rule_id = "NUM003"
    severity = Severity.WARNING
    summary = "builtin sum() over terms not visibly integral"
    hint = ("use repro.obs.stats.ordered_sum for float totals, or make the "
            "integral terms visible (`sum(1 for ...)`, `sum(len(x) for "
            "...)`)")

    _INTEGRAL_CALLS = frozenset({"len", "int"})

    def applies_to(self, path: str) -> bool:
        return not _in_paths(path, "tests", "test", "benchmarks", "examples")

    def check_call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.resolve_call(node) != "sum" or not node.args:
            return
        terms = node.args[0]
        if isinstance(terms, (ast.GeneratorExp, ast.ListComp)):
            elements = [terms.elt]
        elif isinstance(terms, (ast.List, ast.Tuple)):
            elements = terms.elts
        else:
            elements = []
        if elements and all(self._integral(element, ctx)
                            for element in elements):
            return
        yield self.report(
            ctx, node,
            "builtin sum() over terms not visibly integral; its float "
            "total can differ between interpreter versions")

    def _integral(self, node: ast.expr, ctx: ModuleContext) -> bool:
        if isinstance(node, ast.Constant):
            return type(node.value) is int
        if isinstance(node, ast.Compare):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve_call(node) in self._INTEGRAL_CALLS
        if isinstance(node, ast.UnaryOp):
            return (isinstance(node.op, (ast.USub, ast.UAdd))
                    and self._integral(node.operand, ctx))
        if isinstance(node, ast.BinOp):
            return (isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                         ast.FloorDiv, ast.Mod))
                    and self._integral(node.left, ctx)
                    and self._integral(node.right, ctx))
        if isinstance(node, ast.IfExp):
            return (self._integral(node.body, ctx)
                    and self._integral(node.orelse, ctx))
        return False


# --------------------------------------------------------------------- #
# Observability facade                                                  #
# --------------------------------------------------------------------- #


@register
class RecorderFacadeRule(Rule):
    """OBS001: instrumented code holds a facade, never a concrete Recorder.

    The zero-overhead guarantee (see repro.obs) rests on call sites taking
    a recorder argument defaulting to ``NULL_RECORDER`` and using only the
    facade methods.  Constructing ``Recorder`` inside the library, type-
    switching on it, or reaching into ``recorder.trace`` / ``.registry`` /
    ``.profiler`` re-couples hot paths to the live implementation.
    ``repro.cli`` (the composition root) and ``repro.obs`` itself are the
    only places allowed to do those things.
    """

    rule_id = "OBS001"
    severity = Severity.WARNING
    summary = "bypassing the NULL_RECORDER facade"
    hint = ("accept `recorder: NullRecorder = NULL_RECORDER` and use the "
            "facade methods (event/inc/gauge/observe/span)")

    _RECORDER_PATTERN = re.compile(r"(^|\.)obs(\.recorder)?\.Recorder$")
    _INTERNALS = frozenset({"trace", "registry", "profiler"})

    def applies_to(self, path: str) -> bool:
        if _in_paths(path, "obs", "lint", "tests", "test", "benchmarks",
                     "examples"):
            return False
        if path.endswith(("cli.py", "__main__.py")):
            return False
        return _in_paths(path, "repro") or _in_paths(
            path, "core", "simulator", "dht", "traces", "analysis",
            "baselines")

    def _is_recorder(self, node: ast.AST, ctx: ModuleContext) -> bool:
        qualname = ctx.resolve(node)
        return (qualname is not None
                and self._RECORDER_PATTERN.search(qualname) is not None)

    def check_call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Diagnostic]:
        if self._is_recorder(node.func, ctx):
            yield self.report(
                ctx, node,
                "constructing a live Recorder inside the library; only "
                "the composition root (cli) wires one in")
        qualname = ctx.resolve_call(node)
        if (qualname == "isinstance" and len(node.args) == 2
                and self._is_recorder(node.args[1], ctx)):
            yield self.report(
                ctx, node,
                "type-switching on Recorder; gate on "
                "`recorder.enabled` instead")

    def check_attribute(self, node: ast.Attribute,
                        ctx: ModuleContext) -> Iterator[Diagnostic]:
        if node.attr not in self._INTERNALS:
            return
        if (isinstance(node.value, ast.Name)
                and (node.value.id == "recorder"
                     or node.value.id.endswith("_recorder"))):
            yield self.report(
                ctx, node,
                f"reaching into `{node.value.id}.{node.attr}` bypasses "
                "the facade; NULL_RECORDER has no such attribute")
