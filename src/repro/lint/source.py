"""One parse per source file for the AST lint layers.

The determinism (D001..D004), dataflow (E001..E006) and shard-isolation
(P006..P008) rules all pattern-match model source.  :class:`SourceFile`
reads and parses each file once and collects every hazard those rules
report, so a lint run pays one ``ast.parse`` per file no matter how
many source layers it requests.  The scanned code is never imported
or executed.  What each hazard means, and why it matters, is documented
with the rules that report it (:mod:`repro.lint.ast_rules`,
:mod:`repro.lint.dataflow_rules`, :mod:`repro.lint.partition_rules`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.core.simulator import EPSILON_LIMIT
from repro.lint.callgraph import MUTABLE_FACTORIES, MUTATORS
from repro.lint.shard_rules import REGISTRY_ATTRS

# -- determinism (D001..D004) -------------------------------------------------

# Module-global RNG entry points (both stdlib and legacy numpy).  The
# seeded-construction entry points are deliberately excluded.
_RANDOM_SAFE = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
}

_TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# -- dataflow (E001..E006) ----------------------------------------------------

#: Scheduling methods -> positional index of their (absolute time,
#: handler, epsilon) arguments, ``None`` where the method has none.
#: ``schedule`` takes a relative delay and auto-bumps epsilon at delay
#: 0, so it has no absolute time and is exempt from the same-tick check.
SCHED_ARGS: Dict[str, Tuple[Optional[int], Optional[int], int]] = {
    "call_at": (0, 1, 3),
    "schedule": (None, 0, 1),
    "schedule_at": (1, 0, 2),
    "add_event": (1, None, 2),
}
_TIME_ARG_KEYWORDS = {"time", "tick"}

#: CreditTracker internals (E005) and Event engine fields (E006).
_CREDIT_INTERNALS = {"_credits", "_capacity"}
_EVENT_ENGINE_FIELDS = {"fired", "cancelled", "generation"}

# -- shard isolation (P006..P008) ---------------------------------------------

#: Attribute names that conventionally hold a *peer component*
#: reference; reading past them reaches across a shard boundary.
_PEER_ATTRS = {"sink", "peer", "neighbor", "downstream", "upstream",
               "remote"}

#: Methods that run at construction time, before any shard boundary
#: exists -- wiring code legitimately touches every component there.
_CONSTRUCTION_METHODS = {"__init__", "__post_init__", "_build",
                         "finalize", "setup"}


class SourceFile:
    """One parsed source file plus every hazard the D-, E- and P-rules
    report.  ``parse_error`` is set (and every list stays empty) when the
    file cannot be read or parsed."""

    def __init__(self, path: str):
        self.path = path
        self.parse_error: Optional[str] = None
        # Determinism.
        #: (line, dotted name) calls into module-global RNG state.
        self.random_calls: List[Tuple[int, str]] = []
        #: (line, dotted name) wall-clock reads.
        self.time_calls: List[Tuple[int, str]] = []
        #: (line, variable names) ``global`` statements inside functions.
        self.global_stmts: List[Tuple[int, Tuple[str, ...]]] = []
        #: (line, description) lambda/local callables handed to a sweep.
        self.lambda_payloads: List[Tuple[int, str]] = []
        # Dataflow.
        #: (line, target, method) sched result assigned to a self attribute.
        self.handle_on_self: List[Tuple[int, str, str]] = []
        #: (line, description) sched result pushed into a container.
        self.handle_in_container: List[Tuple[int, str]] = []
        #: (line, method, time expression) same-tick scheduling with
        #: default/zero epsilon.
        self.same_tick_zero_eps: List[Tuple[int, str, str]] = []
        #: (line, method, epsilon value) epsilon outside [0, 2**20).
        self.bad_epsilon: List[Tuple[int, str, int]] = []
        #: (line, target) writes to CreditTracker internals.
        self.credit_mutations: List[Tuple[int, str]] = []
        #: (line, target) writes to Event engine-owned fields.
        self.event_field_writes: List[Tuple[int, str]] = []
        # Shard isolation.
        #: (line, expression) peer-reference reads/writes (P006).
        self.peer_access: List[Tuple[int, str]] = []
        #: (line, description) module-state writes from methods (P007).
        self.module_state_writes: List[Tuple[int, str]] = []
        #: (line, expression) handlers of another component (P008).
        self.foreign_schedules: List[Tuple[int, str]] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            self.parse_error = str(exc)
            return
        self._aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._determinism_call(node)
                self._dataflow_call(node)
            elif isinstance(node, ast.Global):
                self.global_stmts.append((node.lineno, tuple(node.names)))
            elif isinstance(node, ast.Assign):
                self._scan_assign(node.targets, node.value, node.lineno)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._scan_assign([node.target], node.value, node.lineno)
        self._module_mutables = _module_mutables(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name in _CONSTRUCTION_METHODS:
                    continue
                if not item.args.args or item.args.args[0].arg != "self":
                    continue
                self._scan_method(item)

    # -- determinism ---------------------------------------------------------

    def _determinism_call(self, node: ast.Call) -> None:
        name = _resolve(node.func, self._aliases)
        if name is not None:
            if (
                name.startswith(("random.", "numpy.random."))
                and name not in _RANDOM_SAFE
            ):
                self.random_calls.append((node.lineno, name))
            elif name in _TIME_CALLS:
                self.time_calls.append((node.lineno, name))
        # Lambdas handed to a sweep: unpicklable, so a parallel run
        # cannot ship them to workers.
        simple = _last_component(node.func)
        for keyword in node.keywords:
            if keyword.arg == "collect" and isinstance(
                keyword.value, ast.Lambda
            ):
                self.lambda_payloads.append(
                    (keyword.value.lineno, "lambda passed as collect=")
                )
        if simple is not None and "sweep" in simple.lower():
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    self.lambda_payloads.append(
                        (arg.lineno, f"lambda passed to {simple}()")
                    )

    # -- dataflow ------------------------------------------------------------

    def _scan_assign(
        self,
        targets: List[ast.expr],
        value: Optional[ast.expr],
        line: int,
    ) -> None:
        method = _sched_method(value) if value is not None else None
        for target in targets:
            if method is not None:
                if (
                    isinstance(target, ast.Attribute)
                    and _is_self(target.value)
                ):
                    self.handle_on_self.append(
                        (line, _unparse(target), method)
                    )
                elif isinstance(target, ast.Subscript):
                    self.handle_in_container.append(
                        (line, f"{method}() result stored into "
                               f"{_unparse(target)}")
                    )
            self._scan_protected_write(target, line)

    def _scan_protected_write(self, target: ast.expr, line: int) -> None:
        """E005/E006: the written location reaches a protected field."""
        # `tracker._credits[vc] = x` writes through a Subscript whose
        # value is the protected Attribute; unwrap to find it.
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        if _is_self(node.value):
            # The owning class maintaining its own fields is the API.
            return
        if node.attr in _CREDIT_INTERNALS:
            self.credit_mutations.append((line, _unparse(target)))
        elif node.attr in _EVENT_ENGINE_FIELDS:
            self.event_field_writes.append((line, _unparse(target)))

    def _dataflow_call(self, call: ast.Call) -> None:
        # Containers: list.append(self.schedule(...)) and friends.
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "append",
            "appendleft",
            "add",
            "insert",
        ):
            for arg in call.args:
                method = _sched_method(arg)
                if method is not None:
                    self.handle_in_container.append(
                        (call.lineno,
                         f"{method}() result passed to "
                         f"{_unparse(call.func)}()")
                    )
        method = _sched_method(call)
        if method is None:
            return
        time_pos, _handler_pos, epsilon_pos = SCHED_ARGS[method]
        epsilon = _argument(call, epsilon_pos, {"epsilon"})
        epsilon_value = _const_int(epsilon)
        if epsilon_value is not None and not (
            0 <= epsilon_value < EPSILON_LIMIT
        ):
            self.bad_epsilon.append((call.lineno, method, epsilon_value))
        if time_pos is not None:
            time_arg = _argument(call, time_pos, _TIME_ARG_KEYWORDS)
            if (
                isinstance(time_arg, ast.Attribute)
                and time_arg.attr == "tick"
                and (epsilon is None or epsilon_value == 0)
            ):
                self.same_tick_zero_eps.append(
                    (call.lineno, method, _unparse(time_arg))
                )

    # -- shard isolation -----------------------------------------------------

    def _scan_method(self, method: ast.FunctionDef) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute):
                self._scan_attribute(node)
            elif isinstance(node, ast.Global):
                self.module_state_writes.append((
                    node.lineno,
                    f"`global {', '.join(node.names)}` inside "
                    f"{method.name}()",
                ))
            elif isinstance(node, ast.Call):
                self._isolation_call(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._scan_store(target)

    def _scan_attribute(self, node: ast.Attribute) -> None:
        # P006a: <expr>.<peer_attr>.<anything>
        inner = node.value
        if isinstance(inner, ast.Attribute) and inner.attr in _PEER_ATTRS:
            self.peer_access.append((node.lineno, _unparse(node)))
            return
        # P006b: <expr>.routers[j].<anything> / .interfaces[j].<anything>
        if isinstance(inner, ast.Subscript):
            base = inner.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr in REGISTRY_ATTRS
            ):
                self.peer_access.append((node.lineno, _unparse(node)))

    def _isolation_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # P007: mutating a module-level container.
        if (
            func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._module_mutables
        ):
            self.module_state_writes.append((
                call.lineno,
                f"{func.value.id}.{func.attr}() mutates module-level "
                f"state",
            ))
        # P008: scheduling another component's bound method.
        if func.attr not in SCHED_ARGS:
            return
        position = SCHED_ARGS[func.attr][1]
        if position is None:
            return
        handler: Optional[ast.expr] = None
        for keyword in call.keywords:
            if keyword.arg == "handler":
                handler = keyword.value
        if handler is None and position < len(call.args):
            handler = call.args[position]
        if isinstance(handler, ast.Attribute) and not _is_self(
            handler.value
        ):
            self.foreign_schedules.append(
                (call.lineno, _unparse(handler))
            )

    def _scan_store(self, target: ast.expr) -> None:
        # P007: `MODULE_THING[key] = ...` from a method.
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            node is not target
            and isinstance(node, ast.Name)
            and node.id in self._module_mutables
        ):
            self.module_state_writes.append((
                target.lineno,
                f"subscript write to module-level `{node.id}`",
            ))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _unparse(node: ast.expr) -> str:
    """Source text of ``node`` for a finding message (best effort)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is best-effort context
        return "<expr>"


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """{local name: dotted module path} for every import in the file."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _module_mutables(tree: ast.Module) -> Set[str]:
    """Module-level names bound to a mutable container."""
    names: Set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set))
        if isinstance(value, ast.Call):
            func = value.func
            callee = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            mutable = callee in MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted call target with the first component expanded via imports."""
    name = _dotted(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _last_component(node: ast.expr) -> Optional[str]:
    name = _dotted(node)
    return name.rsplit(".", 1)[-1] if name else None


def _sched_method(node: ast.expr) -> Optional[str]:
    """The scheduling-method name when ``node`` is ``<expr>.sched(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in SCHED_ARGS:
            return node.func.attr
    return None


def _argument(call: ast.Call, position: int, keywords: set) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg in keywords:
            return keyword.value
    if position < len(call.args):
        return call.args[position]
    return None


def _const_int(node: Optional[ast.expr]) -> Optional[int]:
    """Fold the tiny constant-expression grammar epsilons are written in:
    plain ints, unary +/-, and the arithmetic/shift operators (so
    ``epsilon=1 << 20`` and ``epsilon=-1`` are still seen as constants).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return node.value
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        value = _const_int(node.operand)
        if value is None:
            return None
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.Pow):
                return left**right
        except (OverflowError, ValueError):
            return None
    return None
