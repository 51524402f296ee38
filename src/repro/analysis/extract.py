"""Layer 1: extract :class:`~repro.analysis.model.MachineModel` summaries.

Extraction walks each class's :class:`~repro.core.declarations.StateMachineSpec`
(for states, disciplines and handler bindings) plus the AST of every method
(``inspect.getsource`` + ``ast``) for the dynamic facts the spec cannot see:
``goto``/``push_state``/``pop_state`` transitions, ``send``/``raise_event``/
``notify_monitor`` sites, ``self.create(...)`` machine references and
``Receive(...)`` clauses inside generator handlers.

Name resolution is best-effort and *sound for reporting*: an expression is
resolved through the function's globals, its closure cells and attribute
chains (``module.Class.attr``); ``self.X`` attributes resolve only when every
assignment to ``X`` across the class agrees on a statically-known value.
Whatever cannot be resolved becomes ``None`` ("unknown") and the checkers
stay silent about it — dynamic code degrades analyzer coverage, never its
precision.
"""

from __future__ import annotations

import ast
import builtins
import collections
import functools
import inspect
import textwrap
import types
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.declarations import ANY_STATE, State, build_spec
from repro.core.events import Event, Receive
from repro.core.machine import Machine
from repro.core.monitors import Monitor

from .model import (
    GOTO,
    PUSH,
    AliasMutation,
    AliasRetention,
    AliasSend,
    CreateSite,
    MachineModel,
    NondetSite,
    NotifySite,
    PopSite,
    ProgramModel,
    QuerySite,
    RaiseSite,
    SendSite,
    SourceRef,
    TransitionEdge,
)

#: method names that mutate their receiver in place (payload-alias checker)
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "reverse",
        "update",
    }
)

#: container methods that cannot change which values the container holds in
#: a way that grows its membership (reads, plus pure removals would also be
#: safe, but only provably-read-only names are exempted)
_CONTAINER_READONLY = frozenset({"get", "keys", "values", "items", "copy", "count", "index"})

#: ``self.<verb>`` framework calls whose effect the model captures; finding
#: one inside a *deferred* body (lambda / nested def) taints the method as
#: external, because the effect would run outside this dispatch's footprint
_EFFECT_VERBS = frozenset(
    {
        "send",
        "raise_event",
        "notify_monitor",
        "create",
        "goto",
        "push_state",
        "pop_state",
        "halt",
        "count_pending",
    }
)

#: ``self.<verb>`` framework calls with no cross-machine effect at all
_BENIGN_SELF_VERBS = frozenset(
    {"log", "random", "random_integer", "choose", "assert_that"}
)

#: the kernel-surface spelling (``self._runtime.<name>``) of those calls,
#: which the modeled timer's loop uses to skip the Machine wrapper frames
_RUNTIME_VERBS = {
    "send_event": "send",
    "next_boolean": "random",
    "count_pending_events": "count_pending",
    "has_pending_event": "count_pending",
}

#: builtins a handler may call without leaving the event-level model (pure
#: value computation or fresh-container construction; identity-compared)
_BENIGN_CALLABLES = (
    isinstance, issubclass, len, sorted, reversed, set, list, dict, tuple,
    frozenset, min, max, sum, abs, range, enumerate, zip, any, all, str,
    int, float, bool, bytes, repr, format, hash, round, divmod, getattr,
    hasattr, type, id, print, iter, next, collections.deque,
)

#: expressions that build a *fresh* container (confined unless leaked)
_CONTAINER_FACTORIES = (set, list, dict, tuple, frozenset, sorted, collections.deque)

#: control-flow ancestors under which a send is no longer a must-fact
_CONDITIONAL_NODES = tuple(
    getattr(ast, name)
    for name in (
        "If", "IfExp", "For", "AsyncFor", "While", "Try", "TryStar",
        "ExceptHandler", "BoolOp", "Lambda", "FunctionDef",
        "AsyncFunctionDef", "ListComp", "SetComp", "DictComp",
        "GeneratorExp", "Match",
    )
    if hasattr(ast, name)
)


def _is_container_expr(node: ast.AST, scope: "_Scope") -> bool:
    """The expression constructs a fresh container this method owns."""
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.ListComp, ast.SetComp, ast.DictComp),
    ):
        return True
    if isinstance(node, ast.Call):
        resolved = _resolve_or_none(node.func, scope)
        return any(resolved is factory for factory in _CONTAINER_FACTORIES)
    return False


def _container_attrs(cls: type, funcs) -> Set[str]:
    """``self.X`` attributes whose *every* assignment is a fresh container.

    Method calls on such attributes (``self.pending.append(...)``) stay inside
    this machine, so they do not taint the method as external.
    """
    verdicts: Dict[str, List[bool]] = {}
    for _name, func in funcs.items():
        info = _function_ast(func)
        if info is None:
            continue
        fdef, _fname, _offset = info
        scope = _Scope(func, cls)
        for node in ast.walk(fdef):
            if isinstance(node, ast.Assign):
                pairs = [(target, node.value) for target in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            else:
                continue
            for target, value in pairs:
                if _is_self_attr(target):
                    verdicts.setdefault(target.attr, []).append(
                        _is_container_expr(value, scope)
                    )
    return {attr for attr, oks in verdicts.items() if all(oks)}


def _is_runtime_attr(node: ast.AST) -> bool:
    """``self._runtime.X`` / ``self.runtime.X`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "self"
        and node.value.attr in ("_runtime", "runtime")
    )


def _framework_verb(func: ast.AST) -> Optional[str]:
    """The ``self.<verb>`` that a call on ``self`` or on the runtime spells
    (``""`` for a runtime method the model cannot name); else ``None``."""
    if _is_self_attr(func):
        return func.attr
    if _is_runtime_attr(func):
        return _RUNTIME_VERBS.get(func.attr, "")
    return None


_PLAIN_CTOR_CACHE: Dict[type, bool] = {}


def _is_super_init_stmt(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "__init__"
        and isinstance(stmt.value.func.value, ast.Call)
        and isinstance(stmt.value.func.value.func, ast.Name)
        and stmt.value.func.value.func.id == "super"
    )


_BENIGN_CALL_NAMES = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "sorted", "len", "str",
     "int", "float", "bool", "deque", "isinstance"}
)


def _is_binding_stmt(stmt: ast.stmt) -> bool:
    """The ``__init__`` statement only binds arguments onto ``self``."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # docstring
    if _is_super_init_stmt(stmt):
        return True
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    else:
        return False
    if not all(_is_self_attr(target) for target in targets):
        return False
    for inner in ast.walk(value):
        if isinstance(inner, ast.Call):
            if not (
                isinstance(inner.func, ast.Name)
                and inner.func.id in _BENIGN_CALL_NAMES
            ):
                return False
        elif isinstance(inner, (ast.NamedExpr, ast.Await, ast.Yield, ast.YieldFrom)):
            return False
    return True


def _is_plain_ctor(cls: type) -> bool:
    """``cls(...)`` only builds a value carrier: a dataclass, enum, named
    tuple, or a class whose ``__init__`` does nothing but bind arguments."""
    cached = _PLAIN_CTOR_CACHE.get(cls)
    if cached is not None:
        return cached
    import dataclasses
    import enum

    result = False
    if dataclasses.is_dataclass(cls) or issubclass(cls, enum.Enum):
        result = True
    elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
        result = True
    else:
        init = None
        for klass in cls.__mro__:
            if klass is object:
                break
            candidate = vars(klass).get("__init__")
            if candidate is not None:
                init = candidate
                break
        if init is None:
            result = True  # object.__init__: no behavior at all
        elif isinstance(init, types.FunctionType):
            info = _function_ast(init)
            if info is not None:
                fdef, _fname, _offset = info
                result = all(_is_binding_stmt(stmt) for stmt in fdef.body)
    _PLAIN_CTOR_CACHE[cls] = result
    return result


# ---------------------------------------------------------------------------
# effect-confined classes
# ---------------------------------------------------------------------------
# A class is *effect-confined* when every method that can run on an instance
# provably touches only the instance's own state: locals, ``self``
# attributes, fresh containers, confined sub-objects, and pure builtins.
# Machines may then call methods on attributes holding such objects
# (``self.store.add_extent(...)``) without the method degrading to
# "external" — the effect stays inside the machine's own heap, which the
# independence table already accounts for.  Anything the walk cannot prove
# stays external.
_CONFINED_CLASS_CACHE: Dict[type, bool] = {}
_CONFINED_CTOR_CACHE: Dict[type, bool] = {}


def _class_functions(cls: type) -> Optional[Dict[str, types.FunctionType]]:
    """Every function that can run on an instance of ``cls`` (methods plus
    property accessors, across the MRO); ``None`` when the class carries a
    descriptor or callable attribute the walk cannot see through."""
    funcs: Dict[str, types.FunctionType] = {}
    for klass in reversed(cls.__mro__):
        if klass is object:
            continue
        for name, attr in vars(klass).items():
            if isinstance(attr, types.FunctionType):
                funcs[name] = attr
            elif isinstance(attr, property):
                for accessor in (attr.fget, attr.fset, attr.fdel):
                    if accessor is None:
                        continue
                    if not isinstance(accessor, types.FunctionType):
                        return None
                    funcs[f"{name}.{accessor.__name__}.{id(accessor):x}"] = accessor
            elif isinstance(attr, (staticmethod, classmethod)):
                return None  # may reach class-level shared state
            elif callable(attr) and not isinstance(attr, type):
                return None  # unknown descriptor / callable attribute
    return funcs


def _attr_ctor_value(node: ast.AST, scope: "_Scope"):
    """Value summary for ``self.X = <node>`` as a fresh helper object."""
    if isinstance(node, ast.Call):
        resolved = _resolve_or_none(node.func, scope)
        if isinstance(resolved, type) and not issubclass(
            resolved, (Machine, Monitor, Event)
        ):
            return resolved
    return None


def _chain_root(node: ast.AST) -> Tuple[ast.AST, Optional[ast.AST]]:
    """Walk an attribute/subscript chain down to its root expression.

    Returns ``(root, hop)`` where ``hop`` is the chain link directly above
    the root (``None`` when ``node`` is the root itself).
    """
    hop: Optional[ast.AST] = None
    base = node
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        hop = base
        base = base.value
    return base, hop


def _confined_receiver_owned(
    node: ast.AST,
    scope: "_Scope",
    container_attrs: Set[str],
    attr_classes: Dict[str, type],
) -> bool:
    """The receiver is a value this instance (or its caller) owns: rooted at
    a confined ``self`` attribute, a local/parameter name, a call result, a
    literal, or a fresh container — never a module-global."""
    base, hop = _chain_root(node)
    if isinstance(base, ast.Name):
        if base.id == "self":
            return isinstance(hop, ast.Attribute) and (
                hop.attr in container_attrs or hop.attr in attr_classes
            )
        return _resolve_or_none(base, scope) is None  # local or parameter
    return (
        isinstance(base, (ast.Call, ast.Constant))
        or _is_container_expr(base, scope)
    )


def _confined_store_ok(
    target: ast.AST,
    scope: "_Scope",
    container_attrs: Set[str],
    attr_classes: Dict[str, type],
) -> bool:
    if isinstance(target, ast.Name):
        return True
    if isinstance(target, (ast.Tuple, ast.List)):
        return all(
            _confined_store_ok(el, scope, container_attrs, attr_classes)
            for el in target.elts
        )
    if isinstance(target, ast.Starred):
        return _confined_store_ok(target.value, scope, container_attrs, attr_classes)
    base, hop = _chain_root(target)
    if isinstance(base, ast.Name):
        if base.id == "self":
            if isinstance(target, ast.Attribute) and target.value is base:
                return True  # plain own-attribute rebind
            return isinstance(hop, ast.Attribute) and (
                hop.attr in container_attrs or hop.attr in attr_classes
            )
        return _resolve_or_none(base, scope) is None
    return isinstance(base, ast.Call) or _is_container_expr(base, scope)


def _confined_call_ok(
    node: ast.Call,
    cls: type,
    scope: "_Scope",
    container_attrs: Set[str],
    attr_classes: Dict[str, type],
    stack: Set[type],
) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            base_cls = cls.__mro__[1] if len(cls.__mro__) > 1 else object
            if base_cls is object:
                return True
            if func.attr == "__init__":
                return _ctor_is_confined(base_cls, stack)
            return _is_effect_confined_class(base_cls, stack)
        if _is_self_attr(receiver):
            if receiver.attr in container_attrs:
                return True
            if receiver.attr in attr_classes:
                # a confined sub-object: all of its runnable code is (being)
                # checked by _is_effect_confined_class
                return True
        if func.attr in _MUTATING_METHODS or func.attr in _CONTAINER_READONLY:
            return _confined_receiver_owned(receiver, scope, container_attrs, attr_classes)
        if isinstance(receiver, ast.Constant):
            return True  # e.g. ", ".join(...)
        return False
    resolved = _resolve_or_none(func, scope)
    if resolved is None:
        return False
    if any(resolved is fn for fn in _BENIGN_CALLABLES):
        return True
    if isinstance(resolved, type):
        return (
            issubclass(resolved, BaseException)
            or _is_plain_ctor(resolved)
            or _ctor_is_confined(resolved, stack)
        )
    return False


def _method_effect_confined(
    cls: type,
    func: types.FunctionType,
    container_attrs: Set[str],
    attr_classes: Dict[str, type],
    stack: Set[type],
) -> Tuple[bool, Set[str]]:
    """Whether one method body provably has no effects outside the instance.

    Returns ``(verdict, self_calls)``; ``self_calls`` are own-method names
    invoked as ``self.m(...)`` (callers needing a closure follow them).
    """
    info = _function_ast(func)
    if info is None:
        return False, set()
    fdef, _fname, _offset = info
    scope = _Scope(func, cls)
    self_calls: Set[str] = set()
    for node in ast.walk(fdef):
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Await)):
            return False, self_calls
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            else:
                targets = [node.target]
            for target in targets:
                if not _confined_store_ok(target, scope, container_attrs, attr_classes):
                    return False, self_calls
        if isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id == "self"
            ):
                attr = getattr(cls, func_expr.attr, None)
                if isinstance(attr, (types.FunctionType, property)):
                    self_calls.add(func_expr.attr)
                    continue
                return False, self_calls
            if not _confined_call_ok(node, cls, scope, container_attrs, attr_classes, stack):
                return False, self_calls
    return True, self_calls


def _is_effect_confined_class(cls: type, _stack: Optional[Set[type]] = None) -> bool:
    cached = _CONFINED_CLASS_CACHE.get(cls)
    if cached is not None:
        return cached
    stack = _stack if _stack is not None else set()
    if cls in stack:
        return True  # provisional: co-recursive confinement is consistent
    result = False
    if not issubclass(cls, (Machine, Monitor, Event)):
        funcs = _class_functions(cls)
        if funcs is not None:
            inner = stack | {cls}
            container_attrs = _container_attrs(cls, funcs)
            attr_classes = {
                attr: target
                for attr, target in _attr_map(cls, funcs, _attr_ctor_value).items()
                if _is_effect_confined_class(target, inner)
            }
            result = all(
                _method_effect_confined(cls, fn, container_attrs, attr_classes, inner)[0]
                for fn in funcs.values()
            )
    if not stack:
        _CONFINED_CLASS_CACHE[cls] = result
    return result


def _ctor_is_confined(cls: type, _stack: Optional[Set[type]] = None) -> bool:
    """``cls(...)`` runs only confined code (argument binding, fresh
    sub-object construction, own-attribute initialization).  Weaker than
    full effect-confinement: later *method calls* on the instance may still
    have arbitrary effects, so callers must keep treating those separately.
    """
    cached = _CONFINED_CTOR_CACHE.get(cls)
    if cached is not None:
        return cached
    stack = _stack if _stack is not None else set()
    if cls in stack:
        return True
    result = False
    if _is_plain_ctor(cls):
        result = True
    elif not issubclass(cls, (Machine, Monitor)):
        init = None
        for klass in cls.__mro__:
            if klass is object:
                break
            candidate = vars(klass).get("__init__")
            if candidate is not None:
                init = candidate
                break
        if init is None:
            result = True
        elif isinstance(init, types.FunctionType):
            funcs = _class_functions(cls) or {"__init__": init}
            container_attrs = _container_attrs(cls, funcs)
            inner = stack | {cls}
            checked = {"__init__"}
            pending = [init]
            result = True
            while pending:
                fn = pending.pop()
                ok, calls = _method_effect_confined(cls, fn, container_attrs, {}, inner)
                if not ok:
                    result = False
                    break
                for name in sorted(calls - checked):
                    checked.add(name)
                    attr = getattr(cls, name, None)
                    if isinstance(attr, types.FunctionType):
                        pending.append(attr)
                    elif isinstance(attr, property):
                        pending.extend(
                            accessor
                            for accessor in (attr.fget, attr.fset)
                            if isinstance(accessor, types.FunctionType)
                        )
                    else:
                        result = False
                if not result:
                    break
    if not stack:
        _CONFINED_CTOR_CACHE[cls] = result
    return result


def _self_escapes_to_confined_ctor(node: ast.Name, parents, scope: "_Scope") -> bool:
    """Bare ``self`` passed directly to a plain/confined constructor: the
    constructor only binds the reference (it cannot invoke machine methods),
    so the machine does not escape into arbitrary code at this site."""
    parent = parents.get(node)
    call = None
    if isinstance(parent, ast.Call) and node in parent.args:
        call = parent
    elif isinstance(parent, ast.keyword):
        grand = parents.get(parent)
        if isinstance(grand, ast.Call) and parent in grand.keywords:
            call = grand
    if call is None:
        return False
    resolved = _resolve_or_none(call.func, scope)
    return isinstance(resolved, type) and _ctor_is_confined(resolved)


# ---------------------------------------------------------------------------
# uncontrolled nondeterminism (determinism lint)
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _nondet_callables() -> Tuple[object, ...]:
    import datetime
    import os
    import time
    import uuid

    candidates = (
        time.time, time.time_ns, time.monotonic, time.monotonic_ns,
        time.perf_counter, time.perf_counter_ns, os.urandom,
        getattr(os, "getrandom", None), uuid.uuid1, uuid.uuid4,
        datetime.datetime.now, datetime.datetime.utcnow, datetime.date.today,
    )
    return tuple(fn for fn in candidates if fn is not None)


_NONDET_MODULES = frozenset({"random", "secrets"})


def _nondet_call_reason(node: ast.Call, scope: "_Scope") -> Optional[str]:
    resolved = _resolve_or_none(node.func, scope)
    if resolved is None:
        return None
    for fn in _nondet_callables():
        if resolved is fn:
            module = getattr(fn, "__module__", "?")
            qualname = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
            return f"calls {module}.{qualname}(), an uncontrolled wall-clock/entropy source"
    module = getattr(resolved, "__module__", None)
    if module in _NONDET_MODULES and callable(resolved):
        name = getattr(resolved, "__name__", "?")
        return f"calls {module}.{name}(), drawing from uncontrolled global randomness"
    return None


def _is_set_expr(node: ast.AST, scope: "_Scope") -> bool:
    """The expression's value is an unordered set (iteration order is
    interpreter hash order, not program order)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = _resolve_or_none(node.func, scope)
        return resolved is set or resolved is frozenset
    return False


def _set_attrs(cls: type, funcs) -> Set[str]:
    """``self.X`` attributes whose *every* assignment is an unordered set."""
    verdicts: Dict[str, List[bool]] = {}
    for _name, func in funcs.items():
        info = _function_ast(func)
        if info is None:
            continue
        fdef, _fname, _offset = info
        scope = _Scope(func, cls)
        for node in ast.walk(fdef):
            if isinstance(node, ast.Assign):
                pairs = [(target, node.value) for target in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            else:
                continue
            for target, value in pairs:
                if _is_self_attr(target):
                    verdicts.setdefault(target.attr, []).append(
                        _is_set_expr(value, scope)
                    )
    return {attr for attr, oks in verdicts.items() if oks and all(oks)}


def _member_read_attr(node: ast.AST, container_attrs: Set[str]) -> Optional[str]:
    """``self.X[...]`` / ``self.X.get(...)`` over a confined container: the
    expression's value is one of the current members of ``self.X``."""
    if (
        isinstance(node, ast.Subscript)
        and _is_self_attr(node.value)
        and node.value.attr in container_attrs
    ):
        return node.value.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and _is_self_attr(node.func.value)
        and node.func.value.attr in container_attrs
    ):
        return node.func.value.attr
    return None


def _target_expr_of(
    node: ast.AST,
    scope: "_Scope",
    container_attrs: Set[str] = frozenset(),
    member_locals: Optional[Dict[str, str]] = None,
    event_param: Optional[str] = None,
) -> Tuple[str, str]:
    """Symbolic shape of a send/query target, for the independence table."""
    if _is_self_attr(node):
        if node.attr in ("id", "_id"):
            return ("self", "")
        return ("attr", node.attr)
    if isinstance(node, ast.Name):
        cls = scope.local_creates.get(node.id)
        if cls is not None:
            return ("class", f"{cls.__module__}.{cls.__qualname__}")
        if member_locals is not None:
            attr = member_locals.get(node.id)
            if attr is not None:
                return ("attr_item", attr)
    if (
        event_param is not None
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == event_param
    ):
        # the target is carried in the received event's payload; resolvable
        # at choice time by reading the field off the head event instance
        return ("event_field", node.attr)
    member = _member_read_attr(node, container_attrs)
    if member is not None:
        return ("attr_item", member)
    return ("unknown", "")


def _payload_fields(node: ast.AST, event_type: Optional[type]) -> Tuple[str, ...]:
    """Constructor field names a fresh-event site populates."""
    if not isinstance(node, ast.Call):
        return ()
    positional: List[str] = []
    if isinstance(event_type, type):
        try:
            params = inspect.signature(event_type.__init__).parameters
        except (TypeError, ValueError):
            params = {}
        positional = [
            name
            for name, param in params.items()
            if name != "self"
            and param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
        ]
    names: List[str] = []
    for index, arg in enumerate(node.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(positional):
            names.append(positional[index])
    for keyword in node.keywords:
        if keyword.arg:
            names.append(keyword.arg)
    return tuple(dict.fromkeys(names))


def _alias_key(node: ast.AST):
    """Aliasable expression key: a local name or a ``self`` attribute."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if _is_self_attr(node):
        return ("attr", node.attr)
    return None


class _Unresolved(Exception):
    """An expression could not be statically resolved to a Python value."""


# ---------------------------------------------------------------------------
# expression resolution
# ---------------------------------------------------------------------------
def _closure_env(func) -> Dict[str, object]:
    env: Dict[str, object] = {}
    if func.__closure__:
        for name, cell in zip(func.__code__.co_freevars, func.__closure__):
            try:
                env[name] = cell.cell_contents
            except ValueError:  # still-empty cell
                pass
    return env


class _Scope:
    """Resolution context for one method body."""

    def __init__(self, func, owner: type) -> None:
        self.func = func
        self.owner = owner
        self.globals = func.__globals__
        self.closure = _closure_env(func)
        #: local name -> machine class, from ``x = self.create(Cls, ...)``
        self.local_creates: Dict[str, type] = {}
        #: local name -> event type, from ``x = EventCls(...)``
        self.local_events: Dict[str, type] = {}
        self.event_param: Optional[str] = None
        self.event_param_type: Optional[type] = None

    def lookup(self, name: str):
        if name in self.closure:
            return self.closure[name]
        if name in self.globals:
            return self.globals[name]
        try:
            return getattr(builtins, name)
        except AttributeError:
            raise _Unresolved(name)


def _resolve(node: ast.AST, scope: _Scope):
    """Resolve a ``Name``/``Attribute``/``Constant`` chain to a value."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return scope.lookup(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, scope)
        try:
            return getattr(base, node.attr)
        except AttributeError:
            raise _Unresolved(node.attr)
    raise _Unresolved(ast.dump(node) if node else "<none>")


def _resolve_or_none(node: ast.AST, scope: _Scope):
    try:
        return _resolve(node, scope)
    except _Unresolved:
        return None


def _is_self_attr(node: ast.AST, attr: Optional[str] = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _state_name_of(node: ast.AST, scope: _Scope) -> Optional[str]:
    """Resolve a ``goto``/``push_state`` argument to a state name."""
    value = _resolve_or_none(node, scope)
    if isinstance(value, str):
        return value
    if isinstance(value, type) and issubclass(value, State):
        return value._state_name
    return None


def _event_type_of(node: ast.AST, scope: _Scope, model: MachineModel):
    """Resolve an event expression; returns ``(type | None, forwards_param)``."""
    if isinstance(node, ast.Call):
        func = _resolve_or_none(node.func, scope)
        if isinstance(func, type) and issubclass(func, Event):
            return func, False
        return None, False
    if isinstance(node, ast.Name):
        if node.id == scope.event_param:
            return scope.event_param_type, True
        if node.id in scope.local_events:
            return scope.local_events[node.id], False
        return None, False
    if _is_self_attr(node):
        return model.attr_event_types.get(node.attr), False
    return None, False


def _target_of(node: ast.AST, scope: _Scope, model: MachineModel) -> Optional[type]:
    """Resolve a send-target expression to a machine class."""
    if _is_self_attr(node):
        if node.attr in ("id", "_id"):
            return model.cls
        return model.attr_targets.get(node.attr)
    if isinstance(node, ast.Name):
        return scope.local_creates.get(node.id)
    return None


# ---------------------------------------------------------------------------
# source handling
# ---------------------------------------------------------------------------
_SOURCE_CACHE: Dict[object, Optional[Tuple[ast.FunctionDef, str, int]]] = {}


def _function_ast(func) -> Optional[Tuple[ast.FunctionDef, str, int]]:
    """``(funcdef, file, line_offset)`` for ``func``; None when unavailable.

    Line ``L`` (1-based) inside the parsed snippet corresponds to file line
    ``line_offset + L``.
    """
    code = func.__code__
    cached = _SOURCE_CACHE.get(code)
    if cached is not None or code in _SOURCE_CACHE:
        return cached
    result = None
    try:
        filename = inspect.getsourcefile(func)
        lines, start = inspect.getsourcelines(func)
    except (OSError, TypeError):
        filename = None
    if filename is not None:
        try:
            tree = ast.parse(textwrap.dedent("".join(lines)))
        except SyntaxError:
            tree = None
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == code.co_name:
                    result = (node, filename, start - 1)
                    break
    _SOURCE_CACHE[code] = result
    return result


def _abs_ref(node: ast.AST, filename: str, offset: int) -> SourceRef:
    return SourceRef(filename, offset + node.lineno)


# ---------------------------------------------------------------------------
# class inventory / scopes
# ---------------------------------------------------------------------------
def _own_functions(cls: type) -> Dict[str, types.FunctionType]:
    """Plain functions defined on ``cls`` and its non-framework bases.

    Handler functions declared inside nested ``State`` classes are included
    through the mangled copies the spec build hoists onto the owner class.
    """
    funcs: Dict[str, types.FunctionType] = {}
    for klass in reversed(cls.__mro__):
        if klass in (object, Machine, Monitor):
            continue
        if not issubclass(klass, (Machine, Monitor)):
            continue
        for name, attr in vars(klass).items():
            if isinstance(attr, types.FunctionType):
                funcs[name] = attr
    return funcs


def _method_states(spec, funcs: Dict[str, types.FunctionType]) -> Dict[str, Set[str]]:
    bound: Dict[str, Set[str]] = {}
    for (state, _event_type), info in spec.handlers.items():
        bound.setdefault(info.method_name, set()).add(state)
    for state, method_name in spec.entry_actions.items():
        bound.setdefault(method_name, set()).add(state)
    for state, method_name in spec.exit_actions.items():
        bound.setdefault(method_name, set()).add(state)
    scopes: Dict[str, Set[str]] = {}
    for name in funcs:
        if name in bound:
            scopes[name] = bound[name]
        elif name == "on_start":
            # on_start runs while the machine sits in its initial state
            scopes[name] = {spec.initial_state}
        else:
            # plain helper: callable from any handler, hence any state
            scopes[name] = {ANY_STATE}
    return scopes


def _declared_event_types(spec) -> Dict[str, Set[type]]:
    declared: Dict[str, Set[type]] = {}
    for (_state, _etype), info in spec.handlers.items():
        declared.setdefault(info.method_name, set()).add(info.event_type)
    return declared


# ---------------------------------------------------------------------------
# main extraction
# ---------------------------------------------------------------------------
_MODEL_CACHE: Dict[type, MachineModel] = {}


def clear_model_cache() -> None:
    """Drop memoized models (tests defining throwaway classes use this)."""
    _MODEL_CACHE.clear()
    _CONFINED_CLASS_CACHE.clear()
    _CONFINED_CTOR_CACHE.clear()


def extract_machine_model(cls: type) -> MachineModel:
    """Build (and memoize) the static summary for one machine/monitor class."""
    cached = _MODEL_CACHE.get(cls)
    if cached is not None:
        return cached

    kind = "monitor" if issubclass(cls, Monitor) else "machine"
    spec = cls.spec() if hasattr(cls, "spec") else build_spec(cls)
    try:
        filename = inspect.getsourcefile(cls) or "<unknown>"
        class_lines, class_line = inspect.getsourcelines(cls)
        class_end = class_line + max(len(class_lines) - 1, 0)
    except (OSError, TypeError):
        filename, class_line, class_end = "<unknown>", 0, 0

    model = MachineModel(
        cls=cls,
        kind=kind,
        spec=spec,
        module=cls.__module__,
        file=filename,
        line=class_line,
        end_line=class_end,
        initial=spec.initial_state,
        ignore_unhandled=bool(getattr(cls, "ignore_unhandled_events", False)),
    )
    if kind == "monitor":
        model.hot_states = set(spec.hot_states)

    funcs = _own_functions(cls)
    scopes = _method_states(spec, funcs)
    declared_events = _declared_event_types(spec)

    # attribute summaries: ``self.X = ...`` assignments across every method
    model.attr_targets = _attr_map(cls, funcs, _attr_create_value)
    model.attr_event_types = _attr_map(cls, funcs, _attr_event_value)
    container_attrs = _container_attrs(cls, funcs)
    set_attrs = _set_attrs(cls, funcs)
    # attrs holding a fresh, provably effect-confined helper object: method
    # calls on them stay inside this machine's heap (v2 external discipline)
    confined_objects = {
        attr
        for attr, target in _attr_map(cls, funcs, _attr_ctor_value).items()
        if _is_effect_confined_class(target)
    }

    for name, func in sorted(funcs.items()):
        info = _function_ast(func)
        if info is None:
            model.partial = True
            continue
        fdef, fname, offset = info
        model.method_refs[name] = SourceRef(fname, offset + fdef.lineno)
        states = tuple(sorted(scopes.get(name, {ANY_STATE})))
        model.method_states[name] = set(states)
        scope = _Scope(func, cls)
        etypes = declared_events.get(name, set())
        if len(etypes) == 1:
            scope.event_param_type = next(iter(etypes))
        args = fdef.args.args
        if len(args) >= 2 and args[0].arg == "self":
            scope.event_param = args[1].arg
        _extract_function(
            model, fdef, fname, offset, scope, name, states,
            container_attrs, confined_objects, set_attrs,
        )

    _MODEL_CACHE[cls] = model
    return model


def _attr_create_value(node: ast.AST, scope: _Scope):
    """Value summary for ``self.X = <node>`` as a machine-target source."""
    if (
        isinstance(node, ast.Call)
        and _is_self_attr(node.func, "create")
        and node.args
    ):
        target = _resolve_or_none(node.args[0], scope)
        if isinstance(target, type) and issubclass(target, (Machine, Monitor)):
            return target
    return None


def _attr_event_value(node: ast.AST, scope: _Scope):
    """Value summary for ``self.X = <node>`` as an event-type source."""
    if isinstance(node, ast.Call):
        func = _resolve_or_none(node.func, scope)
        if isinstance(func, type) and issubclass(func, Event):
            return func
    return None


def _attr_map(cls: type, funcs, classify) -> Dict[str, Optional[type]]:
    """``self.X`` attribute name -> class, when *every* assignment agrees."""
    values: Dict[str, Set[Optional[type]]] = {}
    for _name, func in funcs.items():
        info = _function_ast(func)
        if info is None:
            continue
        fdef, _fname, _offset = info
        scope = _Scope(func, cls)
        for node in ast.walk(fdef):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if _is_self_attr(target):
                    values.setdefault(target.attr, set()).add(
                        classify(node.value, scope)
                    )
    return {
        attr: next(iter(kinds))
        for attr, kinds in values.items()
        if len(kinds) == 1 and next(iter(kinds)) is not None
    }


def _extract_function(
    model: MachineModel,
    fdef: ast.FunctionDef,
    filename: str,
    offset: int,
    scope: _Scope,
    method: str,
    states: Tuple[str, ...],
    container_attrs: Set[str],
    confined_objects: Set[str] = frozenset(),
    set_attrs: Set[str] = frozenset(),
) -> None:
    # first pass: local bindings (create results, locally built events, local
    # names provably bound to fresh containers, and local names provably
    # bound to members of a confined container attribute)
    container_locals: Set[str] = set()
    tainted_locals: Set[str] = set()
    member_verdicts: Dict[str, List[Optional[str]]] = {}
    classified_stores: Set[int] = set()  # Name nodes already given a verdict
    for arg in ast.walk(fdef.args):
        if isinstance(arg, ast.arg):
            # a parameter is a binding our assignment scan never sees
            member_verdicts.setdefault(arg.arg, []).append(None)
    for node in ast.walk(fdef):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            for inner in ast.walk(node.target):
                if isinstance(inner, ast.Name):
                    tainted_locals.add(inner.id)
                    member_verdicts.setdefault(inner.id, []).append(None)
            continue
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            tainted_locals.add(node.target.id)
            member_verdicts.setdefault(node.target.id, []).append(None)
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            for inner in ast.walk(target):
                if isinstance(inner, ast.Name):
                    tainted_locals.add(inner.id)
                    member_verdicts.setdefault(inner.id, []).append(None)
            continue
        member_verdicts.setdefault(target.id, []).append(
            _member_read_attr(node.value, container_attrs)
        )
        classified_stores.add(id(target))
        if _is_container_expr(node.value, scope):
            container_locals.add(target.id)
        else:
            tainted_locals.add(target.id)
        created = _attr_create_value(node.value, scope)
        if created is not None:
            scope.local_creates[target.id] = created
        event = _attr_event_value(node.value, scope)
        if event is not None:
            scope.local_events[target.id] = event
    local_containers = container_locals - tainted_locals
    # catch-all: every other way a name can be (re)bound — walrus, with-as,
    # del, imports, except-as, match captures — disqualifies it, because the
    # scan above never saw what it was bound to
    for node in ast.walk(fdef):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and id(node) not in classified_stores
        ):
            member_verdicts.setdefault(node.id, []).append(None)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                member_verdicts.setdefault(bound, []).append(None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            member_verdicts.setdefault(node.name, []).append(None)
        elif hasattr(ast, "MatchAs") and isinstance(
            node, (ast.MatchAs, ast.MatchStar)
        ) and node.name:
            member_verdicts.setdefault(node.name, []).append(None)
        elif hasattr(ast, "MatchMapping") and isinstance(node, ast.MatchMapping) and node.rest:
            member_verdicts.setdefault(node.rest, []).append(None)
    # every binding of the name must read a member of the same container
    # (the scan is flow-insensitive, so one divergent binding disqualifies)
    member_locals: Dict[str, str] = {
        name: verdicts[0]
        for name, verdicts in member_verdicts.items()
        if verdicts[0] is not None and all(v == verdicts[0] for v in verdicts)
    }
    # the received-event parameter, when nothing in the body rebinds it (its
    # only binding is the parameter itself); an ``event.f`` send target is
    # then resolvable at choice time off the head event instance
    event_param_stable = (
        scope.event_param
        if scope.event_param
        and len(member_verdicts.get(scope.event_param, [None, None])) == 1
        else None
    )
    # fields attached to locally built events after construction
    # (``evt = E(...); evt.extra = ...``): a may-set the dataflow layer folds
    # into each site's provided-field union
    event_attr_writes: Dict[str, Set[str]] = {}
    for node in ast.walk(fdef):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in scope.local_events
            ):
                event_attr_writes.setdefault(target.value.id, set()).add(target.attr)

    def _payload_extra(event_node: ast.AST) -> Tuple[str, ...]:
        if isinstance(event_node, ast.Name):
            return tuple(sorted(event_attr_writes.get(event_node.id, ())))
        return ()

    # parent links: needed to find the loop (if any) enclosing a send
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(fdef):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    # Nodes excluded from the dispatch-time effect analysis:
    #
    # * decorators and argument defaults run at class-definition time, not
    #   during a dispatch;
    # * suites guarded by ``self._runtime.wall_clock`` model production-only
    #   behavior — the flag is a class attribute that is statically False on
    #   every controlled runtime, and both the analyzer's rules and the
    #   independence table reason exclusively about controlled executions,
    #   so the guarded suite is dead code for every explorable schedule.
    skipped_nodes: Set[int] = set()
    for def_time in [*fdef.decorator_list, fdef.args]:
        for node in ast.walk(def_time):
            skipped_nodes.add(id(node))
    for node in ast.walk(fdef):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        negated = isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
        if negated:
            test = test.operand
        if not (_is_runtime_attr(test) and test.attr == "wall_clock"):
            continue
        for stmt in node.orelse if negated else node.body:
            for inner in ast.walk(stmt):
                skipped_nodes.add(id(inner))

    # a send is a must-fact only when nothing can skip it: no conditional
    # ancestor and no early exit anywhere in the method
    has_exit = any(
        isinstance(n, (ast.Return, ast.Raise)) and id(n) not in skipped_nodes
        for n in ast.walk(fdef)
    )

    def _is_unconditional(node: ast.AST) -> bool:
        if has_exit:
            return False
        cursor = parents.get(node)
        while cursor is not None and cursor is not fdef:
            if isinstance(cursor, _CONDITIONAL_NODES):
                return False
            cursor = parents.get(cursor)
        return True

    def _enclosing_loop(node: ast.AST):
        cursor = parents.get(node)
        while cursor is not None and cursor is not fdef:
            if isinstance(cursor, (ast.For, ast.While)):
                return cursor
            cursor = parents.get(cursor)
        return None

    def _rebound_within(loop: ast.AST, key) -> bool:
        for inner in ast.walk(loop):
            if isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if _alias_key(target) == key:
                        return True
            elif isinstance(inner, (ast.For,)) and _alias_key(inner.target) == key:
                return True
        return False

    def _record_alias_send(call: ast.Call, expr: ast.AST, event_type, forwards) -> None:
        key = _alias_key(expr)
        if key is None:
            return
        loop = _enclosing_loop(call)
        model.alias_sends.append(
            AliasSend(
                key=key,
                event_type=event_type,
                forwards_param=forwards,
                method=method,
                ref=_abs_ref(call, filename, offset),
                loop_reuses_instance=loop is not None and not _rebound_within(loop, key),
            )
        )

    # second pass: calls, plus everything that can taint the method as
    # "external" — an effect the event-level model cannot account for.
    external = False
    for node in ast.walk(fdef):
        if id(node) in skipped_nodes:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            external = True
            continue
        if isinstance(node, ast.Name):
            if node.id == "self":
                parent = parents.get(node)
                if not (isinstance(parent, ast.Attribute) and parent.value is node):
                    # bare ``self`` escaping (argument, container element,
                    # ...): the callee could do anything with the machine —
                    # unless the callee is a plain/confined constructor that
                    # provably only binds the reference
                    if not _self_escapes_to_confined_ctor(node, parents, scope):
                        external = True
            elif isinstance(node.ctx, ast.Load):
                # a bare reference to a plain function (e.g. passed as a
                # predicate) defers a call our call rules never see
                value = _resolve_or_none(node, scope)
                if isinstance(value, types.FunctionType):
                    external = True
            continue
        if _is_self_attr(node):
            parent = parents.get(node)
            if not (isinstance(parent, ast.Call) and parent.func is node):
                # ``self.helper`` referenced without calling it: treat it as
                # a call edge so the closure still covers its effects
                candidate = getattr(model.cls, node.attr, None)
                if isinstance(candidate, types.FunctionType):
                    model.method_calls.setdefault(method, set()).add(node.attr)
        if (
            isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fdef
        ):
            # a deferred body: any framework effect inside it would run at an
            # unpredictable time, outside this dispatch's footprint
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and _framework_verb(inner.func) in _EFFECT_VERBS:
                    external = True
            continue
        if isinstance(node, ast.For):
            unordered = _is_set_expr(node.iter, scope) or (
                _is_self_attr(node.iter) and node.iter.attr in set_attrs
            )
            if unordered and any(
                isinstance(inner, ast.Call)
                and _framework_verb(inner.func) in _EFFECT_VERBS
                and id(inner) not in skipped_nodes
                for stmt in node.body
                for inner in ast.walk(stmt)
            ):
                model.nondet_sites.append(
                    NondetSite(
                        reason=(
                            "iterates over an unordered set while producing "
                            "framework effects, so send/create order depends "
                            "on interpreter hash order"
                        ),
                        method=method,
                        ref=_abs_ref(node, filename, offset),
                    )
                )
        if not isinstance(node, ast.Call):
            continue
        ref = _abs_ref(node, filename, offset)
        nondet_reason = _nondet_call_reason(node, scope)
        if nondet_reason is not None:
            model.nondet_sites.append(
                NondetSite(reason=nondet_reason, method=method, ref=ref)
            )
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and not (isinstance(func.value, ast.Name) and func.value.id == "self")
        ):
            key = _alias_key(func.value)
            if key is not None:
                model.alias_mutations.append(
                    AliasMutation(key=key, method=method, ref=ref)
                )
        verb = _framework_verb(func)
        if verb is not None:
            if verb == "send":
                if len(node.args) < 2:
                    external = True
                    continue
                event_type, forwards = _event_type_of(node.args[1], scope, model)
                model.sends.append(
                    SendSite(
                        event_type=event_type,
                        target=_target_of(node.args[0], scope, model),
                        states=states,
                        method=method,
                        ref=ref,
                        event_expr=ast.unparse(node.args[1]),
                        forwards_param=forwards,
                        unconditional=_is_unconditional(node),
                        payload_fields=_payload_fields(node.args[1], event_type),
                        payload_extra=_payload_extra(node.args[1]),
                        target_expr=_target_expr_of(
                            node.args[0], scope, container_attrs, member_locals,
                            event_param_stable,
                        ),
                    )
                )
                _record_alias_send(node, node.args[1], event_type, forwards)
            elif verb == "raise_event":
                if not node.args:
                    external = True
                    continue
                event_type, forwards = _event_type_of(node.args[0], scope, model)
                model.raises.append(
                    RaiseSite(
                        event_type=event_type,
                        states=states,
                        method=method,
                        ref=ref,
                        event_expr=ast.unparse(node.args[0]),
                        unconditional=_is_unconditional(node),
                        payload_fields=_payload_fields(node.args[0], event_type),
                        payload_extra=_payload_extra(node.args[0]),
                    )
                )
                _record_alias_send(node, node.args[0], event_type, forwards)
            elif verb == "notify_monitor":
                if len(node.args) < 2:
                    external = True
                    continue
                monitor = _resolve_or_none(node.args[0], scope)
                if not (isinstance(monitor, type) and issubclass(monitor, Monitor)):
                    monitor = None
                event_type, _ = _event_type_of(node.args[1], scope, model)
                model.notifies.append(
                    NotifySite(
                        monitor=monitor,
                        event_type=event_type,
                        states=states,
                        method=method,
                        ref=ref,
                        payload_fields=_payload_fields(node.args[1], event_type),
                        payload_extra=_payload_extra(node.args[1]),
                    )
                )
            elif verb in ("goto", "push_state") and node.args:
                dst = _state_name_of(node.args[0], scope)
                kind = GOTO if verb == "goto" else PUSH
                for src in states:
                    model.edges.append(
                        TransitionEdge(src=src, dst=dst, kind=kind, method=method, ref=ref)
                    )
            elif verb == "pop_state":
                model.pops.append(PopSite(states=states, method=method, ref=ref))
            elif verb == "create":
                if not node.args:
                    external = True
                    continue
                created = _resolve_or_none(node.args[0], scope)
                if not (isinstance(created, type) and issubclass(created, (Machine, Monitor))):
                    created = None
                model.creates.append(CreateSite(machine=created, method=method, ref=ref))
            elif verb == "halt":
                model.method_halts.add(method)
            elif verb == "count_pending":
                if not node.args:
                    external = True
                    continue
                model.queries.append(
                    QuerySite(
                        target_expr=_target_expr_of(
                            node.args[0], scope, container_attrs, member_locals,
                            event_param_stable,
                        ),
                        method=method,
                        ref=ref,
                    )
                )
            elif verb in _BENIGN_SELF_VERBS:
                pass
            elif not verb:
                external = True
            else:
                # ``self.helper(...)``: an own method (followed through the
                # call graph) or something we cannot name — the independence
                # layer degrades unresolvable entries to external
                model.method_calls.setdefault(method, set()).add(verb)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            confined = (
                isinstance(receiver, ast.Constant)
                or _is_container_expr(receiver, scope)
                or (_is_self_attr(receiver) and receiver.attr in container_attrs)
                or (isinstance(receiver, ast.Name) and receiver.id in local_containers)
                # a call on an effect-confined helper object stays inside
                # this machine's heap
                or (_is_self_attr(receiver) and receiver.attr in confined_objects)
            )
            if not confined:
                # a method call on an object this machine does not confine:
                # its effects are invisible to the event-level model
                external = True
            elif (
                _is_self_attr(receiver)
                and receiver.attr in container_attrs
                and func.attr not in _CONTAINER_READONLY
            ):
                # the call may insert values the model cannot prove fresh,
                # which blocks choice-time ``attr_item`` resolution
                model.method_container_stores.setdefault(method, set()).add(
                    receiver.attr
                )
        else:
            resolved = _resolve_or_none(func, scope)
            if resolved is Receive:
                for arg in node.args:
                    event_type = _resolve_or_none(arg, scope)
                    if isinstance(event_type, type) and issubclass(event_type, Event):
                        model.receive_types.add(event_type)
                    else:
                        model.receives_unknown = True
            elif any(resolved is fn for fn in _BENIGN_CALLABLES):
                pass
            elif isinstance(resolved, type) and (
                issubclass(resolved, BaseException) or _ctor_is_confined(resolved)
            ):
                pass
            else:
                external = True

    # third pass: assignment-shaped mutations and sender-side retentions,
    # plus the store-confinement check for the independence footprint
    def _store_is_confined(target: ast.AST) -> bool:
        if isinstance(target, ast.Name):
            return True  # local rebind
        if isinstance(target, (ast.Tuple, ast.List)):
            return all(_store_is_confined(element) for element in target.elts)
        if isinstance(target, ast.Starred):
            return _store_is_confined(target.value)
        if _is_self_attr(target):
            return True  # own-attribute rebind
        if isinstance(target, ast.Subscript):
            base = target.value
            if _is_self_attr(base) and base.attr in container_attrs:
                return True
            if isinstance(base, ast.Name) and base.id in local_containers:
                return True
        return False

    for node in ast.walk(fdef):
        if id(node) in skipped_nodes:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                if not _store_is_confined(target):
                    # writing through an object this machine does not own —
                    # e.g. mutating a payload or a shared table
                    external = True
                if (
                    isinstance(target, ast.Subscript)
                    and _is_self_attr(target.value)
                    and target.value.attr in container_attrs
                    and not isinstance(node, ast.Delete)
                ):
                    # ``self.X[k] = v`` grows the membership of a confined
                    # container; harmless for ``attr_item`` resolution only
                    # when ``v`` is a machine created within this dispatch
                    stored = getattr(node, "value", None)
                    fresh = (
                        isinstance(node, ast.Assign)
                        and isinstance(stored, ast.Name)
                        and stored.id in scope.local_creates
                    )
                    if not fresh:
                        model.method_container_stores.setdefault(
                            method, set()
                        ).add(target.value.attr)
                for inner in ast.walk(target):
                    if _is_self_attr(inner) and inner is target:
                        model.method_attr_stores.setdefault(method, set()).add(
                            inner.attr
                        )
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    key = _alias_key(target.value)
                    # ``self.X = ...`` rebinds an attribute, it mutates no
                    # payload; ``x.field = ...`` / ``self.X[k] = ...`` do.
                    if key is not None and key != ("name", "self"):
                        model.alias_mutations.append(
                            AliasMutation(
                                key=key,
                                method=method,
                                ref=_abs_ref(node, filename, offset),
                            )
                        )
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _is_self_attr(target):
                    key = _alias_key(node.value)
                    if key is not None and key[0] == "name" and key[1] != "self":
                        model.alias_retentions.append(
                            AliasRetention(
                                key=key,
                                method=method,
                                ref=_abs_ref(node, filename, offset),
                            )
                        )
    if external:
        model.method_external.add(method)

    # payload fields read off the received-event parameter (field-sensitive
    # dataflow); None = the parameter escapes, so any field may be read
    if scope.event_param:
        model.handler_field_reads[method] = _event_param_reads(
            fdef, scope.event_param, parents, skipped_nodes, scope
        )
    else:
        model.handler_field_reads[method] = frozenset()

    # referenced machine/monitor classes, for program-closure discovery
    for code in _iter_code_objects(scope.func.__code__):
        for name in set(code.co_names) | set(code.co_freevars):
            try:
                value = scope.lookup(name)
            except _Unresolved:
                continue
            if (
                isinstance(value, type)
                and issubclass(value, (Machine, Monitor))
                and value not in (Machine, Monitor)
            ):
                model.referenced.add(value)


def _event_param_reads(
    fdef: ast.FunctionDef,
    param: str,
    parents: Dict[ast.AST, ast.AST],
    skipped_nodes: Set[int],
    scope: _Scope,
) -> Optional[frozenset]:
    """Payload field names ``fdef`` reads off its event parameter.

    Every use of the parameter must be a plain ``event.f`` attribute load
    (or an ``isinstance(event, T)`` type test).  Any other use — rebinding,
    attribute stores, forwarding into a call, ``hasattr``/``getattr``
    indirection, container membership — makes the read set unknowable and
    returns ``None``, the "any field may be read" verdict.
    """
    reads: Set[str] = set()
    for node in ast.walk(fdef):
        if id(node) in skipped_nodes:
            continue
        if not (isinstance(node, ast.Name) and node.id == param):
            continue
        if not isinstance(node.ctx, ast.Load):
            return None  # rebound or deleted: the name no longer names the event
        parent = parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if isinstance(parent.ctx, ast.Load):
                reads.add(parent.attr)
                continue
            return None  # ``event.f = ...`` / ``del event.f``
        if isinstance(parent, ast.Call) and node in parent.args:
            resolved = _resolve_or_none(parent.func, scope)
            if resolved is isinstance and parent.args and parent.args[0] is node:
                continue  # isinstance(event, T) reads no payload field
            return None  # escapes into a call
        return None  # comparison, store, container element, yield, ...
    return frozenset(reads)


# ---------------------------------------------------------------------------
# program closure + scenario discovery
# ---------------------------------------------------------------------------
def _iter_code_objects(code) -> Iterable[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _iter_code_objects(const)


def build_program(roots: Iterable[type]) -> ProgramModel:
    """Extract models for ``roots`` plus every machine they create/reference."""
    program = ProgramModel()
    frontier: List[type] = [cls for cls in roots]
    seen: Set[type] = set()
    while frontier:
        cls = frontier.pop()
        if cls in seen or cls in (Machine, Monitor):
            continue
        seen.add(cls)
        model = extract_machine_model(cls)
        program.add(model)
        related: Set[type] = set(model.referenced)
        related.update(site.machine for site in model.creates if site.machine)
        related.update(site.monitor for site in model.notifies if site.monitor)
        for other in related:
            if other not in seen:
                frontier.append(other)
    return program


def discover_classes(build) -> Set[type]:
    """Machine/monitor classes reachable from a scenario's ``build`` factory.

    Walks the factory's code objects (including nested closures and lambdas,
    whose raw source is often unparseable) resolving every referenced global,
    free variable and default argument; recurses into functions from the same
    package tree.  This over-approximates — e.g. a factory with a
    ``store_cls=FlushStoreMachine`` default contributes that default even when
    a caller overrides it — which is the safe direction for analysis coverage.
    """
    return _discover_types(build, (Machine, Monitor))


def discover_event_types(build) -> Set[type]:
    """Event types a scenario's ``build`` factory references directly.

    The entry function may construct and post events no machine ever sends
    (driver kick-offs); the dead-event rule must count those as produced.
    """
    return _discover_types(build, (Event,))


def _discover_types(build, bases: Tuple[type, ...]) -> Set[type]:
    classes: Set[type] = set()
    seen: Set[object] = set()
    roots = {"repro"}
    module = getattr(build, "__module__", None)
    if module:
        roots.add(module.split(".")[0])
    work: List[object] = [build]
    while work:
        obj = work.pop()
        if isinstance(obj, type):
            if issubclass(obj, bases) and obj not in bases:
                classes.add(obj)
            continue
        if isinstance(obj, functools.partial):
            work.append(obj.func)
            work.extend(obj.args)
            work.extend(obj.keywords.values())
            continue
        if isinstance(obj, types.MethodType):
            obj = obj.__func__
        if not isinstance(obj, types.FunctionType) or obj in seen:
            continue
        seen.add(obj)
        obj_module = getattr(obj, "__module__", "") or ""
        if obj is not build and obj_module.split(".")[0] not in roots:
            continue
        closure = _closure_env(obj)
        names: Set[str] = set()
        for code in _iter_code_objects(obj.__code__):
            names.update(code.co_names)
            names.update(code.co_freevars)
        for name in sorted(names):
            value = closure.get(name, obj.__globals__.get(name))
            if value is not None:
                work.append(value)
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):
            signature = None
        if signature is not None:
            for parameter in signature.parameters.values():
                if parameter.default is not inspect.Parameter.empty:
                    work.append(parameter.default)
    return classes
