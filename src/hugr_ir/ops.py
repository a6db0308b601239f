"""Operation vocabulary: core structural ops plus registry-resolved extension ops.

Core ops (functions, control flow, constants) are baked into the representation
and fully determine their own port rows. Everything else — gates, arithmetic —
is an :class:`ExtensionOp` resolved against a :class:`Registry`, so passes that
do not know an operation can still reason about the graph around it. Extension
ops therefore carry their concrete signature alongside the (extension, name)
reference; validation cross-checks the two.

Ops and port kinds are interned like types (see :mod:`hugr_ir.types`): one
live object per distinct value, compared and hashed by identity. A ``Const``
of type ``F64`` stores its value as a float, so ``Const(1, F64)`` is
``Const(1.0, F64)``; other constants keep the exact value given, so
``Const(1, I64)`` and ``Const(1.0, I64)`` stay two ops. Each op computes its
port rows once, on first use, and every node holding it shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .types import (
    BOOL,
    F64,
    QUBIT,
    EnumType,
    Interned,
    PolySignature,
    Signature,
    Type,
    TypeError_,
    instantiate,
    monomorphic,
)

ConstValue = float | int  # f64/i64 payloads; enum constants store the tag


class OpError(Exception):
    """Raised for unresolvable or ill-parametrised operations."""


@dataclass(frozen=True, eq=False)
class OpKind(Interned):
    """Base class for node operations."""

    @cached_property
    def rows(self) -> tuple[tuple[PortKind, ...], tuple[PortKind, ...]]:
        """Full (incoming, outgoing) port rows, computed once per op."""
        return port_rows(self)


@dataclass(frozen=True, eq=False)
class Module(OpKind):
    """Root namespace holding function definitions and declarations."""


@dataclass(frozen=True, eq=False)
class FuncDef(OpKind):
    """Function defined by a child dataflow region."""

    name: str
    scheme: PolySignature


@dataclass(frozen=True, eq=False)
class FuncDecl(OpKind):
    """External function reference, linked with a definition later."""

    name: str
    scheme: PolySignature


@dataclass(frozen=True, eq=False)
class Input(OpKind):
    """Source of a dataflow region; one output port per region input."""

    types: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class Output(OpKind):
    """Sink of a dataflow region; one input port per region output."""

    types: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class Call(OpKind):
    """Call a statically known function at a concrete instantiation."""

    type_args: tuple[Type, ...]
    scheme: PolySignature


@dataclass(frozen=True, eq=False)
class LoadFunction(OpKind):
    """Turn a static function into a runtime function value."""

    type_args: tuple[Type, ...]
    scheme: PolySignature


@dataclass(frozen=True, eq=False)
class Const(OpKind):
    """Compile-time constant emitted on a static edge."""

    value: ConstValue
    type: Type

    @staticmethod
    def _canonical(args: tuple) -> tuple:
        value, ty = args
        # f64 constants are floats even when written as integers
        return (float(value), ty) if ty is F64 and type(value) is not float else args


@dataclass(frozen=True, eq=False)
class LoadConst(OpKind):
    """Turn a static constant into a runtime value."""

    type: Type


@dataclass(frozen=True, eq=False)
class Conditional(OpKind):
    """Branch between case regions on an enum discriminant (input port 0)."""

    cardinality: int
    other_inputs: tuple[Type, ...]
    outputs: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class Case(OpKind):
    """One branch body of a conditional; all data flows via the parent's ports."""


@dataclass(frozen=True, eq=False)
class TailLoop(OpKind):
    """Loop whose body emits a leading bool: true = finished, false = repeat."""

    loop_vars: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class Cfg(OpKind):
    """Unstructured control flow over child basic blocks."""

    signature: Signature


@dataclass(frozen=True, eq=False)
class BasicBlock(OpKind):
    """CFG block; its body emits a leading enum picking the successor."""

    inputs: tuple[Type, ...]
    successor_count: int


@dataclass(frozen=True, eq=False)
class ExitBlock(OpKind):
    """Unique exit of a CFG; carries the CFG's output row."""

    outputs: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class ExtensionOp(OpKind):
    """Registry-defined operation at a concrete instantiation.

    ``signature`` is the instantiated dataflow signature as declared when the
    node was created; it keeps the graph self-describing when the defining
    extension is not loaded.
    """

    extension: str
    name: str
    type_args: tuple[Type, ...] = ()
    signature: Signature = field(default_factory=Signature)


# ── Port rows ──────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class PortKind(Interned):
    """What an edge or port carries."""


@dataclass(frozen=True, eq=False)
class Value(PortKind):
    """Runtime value of a given type."""

    type: Type


@dataclass(frozen=True, eq=False)
class Static(PortKind):
    """Compile-time value: a constant's type or a function scheme."""

    payload: Type | PolySignature


@dataclass(frozen=True, eq=False)
class ControlFlow(PortKind):
    """Control-flow successor link between basic blocks."""


def value_signature(op: OpKind) -> Signature:
    """The dataflow (value-port) signature an op presents to its region.

    Self-describing for every op kind: extension ops use their stored
    signature, structural ops compute theirs from their parameters.
    """
    if isinstance(op, (Module, Case, FuncDef, FuncDecl, Const, BasicBlock, ExitBlock)):
        return Signature()
    if isinstance(op, Input):
        return Signature((), op.types)
    if isinstance(op, Output):
        return Signature(op.types, ())
    if isinstance(op, Call):
        return instantiate(op.scheme, op.type_args)
    if isinstance(op, LoadFunction):
        from .types import FunctionType

        return Signature((), (FunctionType(instantiate(op.scheme, op.type_args)),))
    if isinstance(op, LoadConst):
        return Signature((), (op.type,))
    if isinstance(op, Conditional):
        return Signature((EnumType(op.cardinality),) + op.other_inputs, op.outputs)
    if isinstance(op, TailLoop):
        return Signature(op.loop_vars, op.loop_vars)
    if isinstance(op, Cfg):
        return op.signature
    if isinstance(op, ExtensionOp):
        return op.signature
    raise OpError(f"unknown op kind {op!r}")


def port_rows(op: OpKind) -> tuple[tuple[PortKind, ...], tuple[PortKind, ...]]:
    """Full (incoming, outgoing) port rows: value ports, then static, then flow."""
    sig = value_signature(op)
    ins: list[PortKind] = [Value(t) for t in sig.inputs]
    outs: list[PortKind] = [Value(t) for t in sig.outputs]
    if isinstance(op, (FuncDef, FuncDecl)):
        outs.append(Static(op.scheme))
    elif isinstance(op, Const):
        outs.append(Static(op.type))
    elif isinstance(op, (Call, LoadFunction)):
        ins.append(Static(op.scheme))
    elif isinstance(op, LoadConst):
        ins.append(Static(op.type))
    elif isinstance(op, BasicBlock):
        ins.append(ControlFlow())
        outs.extend(ControlFlow() for _ in range(op.successor_count))
    elif isinstance(op, ExitBlock):
        ins.append(ControlFlow())
    return tuple(ins), tuple(outs)


# ── Extensions and registry ───────────────────────────────────────

@dataclass(frozen=True)
class TypeDef:
    """A type brought in by an extension."""

    name: str
    linear: bool
    arity: int = 0


@dataclass(frozen=True)
class OpDef:
    """An operation brought in by an extension."""

    name: str
    scheme: PolySignature
    doc: str = ""


@dataclass(frozen=True)
class Extension:
    """A named package of types and operations."""

    id: str
    types: tuple[TypeDef, ...] = ()
    ops: tuple[OpDef, ...] = ()

    def __post_init__(self) -> None:
        names = [t.name for t in self.types] + [o.name for o in self.ops]
        if len(names) != len(set(names)):
            raise OpError(f"duplicate names within extension {self.id!r}")


class Registry:
    """Immutable map from extension ids to extensions."""

    def __init__(self, extensions: tuple[Extension, ...] = ()):
        self._extensions: dict[str, Extension] = {}
        for e in extensions:
            if e.id in self._extensions:
                raise OpError(f"extension {e.id!r} already registered")
            self._extensions[e.id] = e
        # validation's problems per extension op; a function of the op and
        # the (fixed) extensions, so memoising it keeps the registry immutable
        self.extop_problems: dict[ExtensionOp, list[str]] = {}

    def extensions(self) -> tuple[Extension, ...]:
        return tuple(self._extensions.values())

    def has_extension(self, ext_id: str) -> bool:
        return ext_id in self._extensions

    def type_def(self, ext_id: str, name: str) -> TypeDef:
        ext = self._extensions.get(ext_id)
        if ext is None:
            raise TypeError_(f"extension {ext_id!r} is not registered")
        for t in ext.types:
            if t.name == name:
                return t
        raise TypeError_(f"extension {ext_id!r} defines no type {name!r}")

    def op_def(self, ext_id: str, name: str) -> OpDef:
        ext = self._extensions.get(ext_id)
        if ext is None:
            raise OpError(f"extension {ext_id!r} is not registered")
        for o in ext.ops:
            if o.name == name:
                return o
        raise OpError(f"extension {ext_id!r} defines no op {name!r}")


def register(registry: Registry, extension: Extension) -> Registry:
    """A new registry with ``extension`` added; the input is untouched."""
    return Registry(registry.extensions() + (extension,))


def signature_of(op: OpKind, registry: Registry) -> Signature:
    """The monomorphic signature governing the node's value ports.

    For extension ops this resolves through the registry (the authoritative
    definition) rather than trusting the signature stored on the node.
    """
    if isinstance(op, ExtensionOp):
        d = registry.op_def(op.extension, op.name)
        return instantiate(d.scheme, op.type_args)
    return value_signature(op)


def ext_op(registry: Registry, ext_id: str, name: str, type_args: tuple[Type, ...] = ()) -> ExtensionOp:
    """Build an extension op with its signature resolved from the registry."""
    d = registry.op_def(ext_id, name)
    return ExtensionOp(ext_id, name, type_args, instantiate(d.scheme, type_args))


# ── Standard library ──────────────────────────────────────────────

def _q(ins: tuple[Type, ...], outs: tuple[Type, ...]) -> PolySignature:
    return monomorphic(ins, outs)


QUANTUM_EXTENSION = Extension(
    "stdlib.quantum",
    types=(TypeDef("qubit", linear=True),),
    ops=(
        OpDef("H", _q((QUBIT,), (QUBIT,)), "Hadamard"),
        OpDef("X", _q((QUBIT,), (QUBIT,)), "Pauli X"),
        OpDef("Z", _q((QUBIT,), (QUBIT,)), "Pauli Z"),
        OpDef("CX", _q((QUBIT, QUBIT), (QUBIT, QUBIT)), "controlled X; control first"),
        OpDef("Rz", _q((QUBIT, F64), (QUBIT,)), "Z rotation by an angle in radians"),
        OpDef("Rx", _q((QUBIT, F64), (QUBIT,)), "X rotation by an angle in radians"),
        OpDef("T", _q((QUBIT,), (QUBIT,)), "pi/8 phase"),
        OpDef("Tdg", _q((QUBIT,), (QUBIT,)), "inverse T"),
        OpDef("TxDg", _q((QUBIT,), (QUBIT,)), "X-basis inverse T: H then Tdg then H"),
        OpDef("Measure", _q((QUBIT,), (QUBIT, BOOL)), "computational-basis measurement"),
        OpDef("QAlloc", _q((), (QUBIT,)), "fresh qubit in |0>"),
        OpDef("QFree", _q((QUBIT,), ()), "release a (separable) qubit"),
    ),
)

CLASSICAL_EXTENSION = Extension(
    "stdlib.classical",
    types=(TypeDef("f64", linear=False), TypeDef("i64", linear=False)),
    ops=(
        OpDef("Add", _q((F64, F64), (F64,))),
        OpDef("Sub", _q((F64, F64), (F64,))),
        OpDef("Mul", _q((F64, F64), (F64,))),
        OpDef("Neg", _q((F64,), (F64,))),
        OpDef("Eq", _q((F64, F64), (BOOL,))),
        OpDef("Neq", _q((F64, F64), (BOOL,))),
        OpDef("Lt", _q((F64, F64), (BOOL,))),
        OpDef("Le", _q((F64, F64), (BOOL,))),
        OpDef("Gt", _q((F64, F64), (BOOL,))),
        OpDef("Ge", _q((F64, F64), (BOOL,))),
        OpDef("Not", _q((BOOL,), (BOOL,))),
        OpDef("And", _q((BOOL, BOOL), (BOOL,))),
        OpDef("Or", _q((BOOL, BOOL), (BOOL,))),
    ),
)

def stdlib() -> Registry:
    """Registry preloaded with the standard quantum and classical extensions."""
    return Registry((QUANTUM_EXTENSION, CLASSICAL_EXTENSION))
