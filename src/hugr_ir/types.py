"""Static types for edges and operation signatures.

Every edge in a graph carries a type. Types are immutable values; linearity
(use-exactly-once) is a property of the type's definition, never of the port
it flows through. Function and enum types are always copyable. Polymorphic
signatures bind type variables by de Bruijn index.

Types, signatures and schemes are hash-consed (Filliâtre & Conchon, *Type-Safe
Modular Hash-Consing*, 2006): constructing one returns the single live object
with exactly those field values, held in a weak table, whether the fields are
given positionally, by keyword or by default. Equality and hashing are
therefore identity. "Exactly" tells ``1`` from ``1.0`` from ``True`` and
``0.0`` from ``-0.0``, so no two values that print differently are merged.
Ops share the table (:mod:`hugr_ir.ops`); a class may normalise its fields
before the lookup, as ``Const`` turns an integral ``F64`` value into a float.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .ops import Registry


class TypeError_(Exception):
    """Raised for ill-formed or unresolvable types."""


# every live interned object, by (class, exact field values, field value classes)
_INSTANCES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INSERTING = threading.Lock()  # two threads must not both add one value


class _Interning(type):
    """Metaclass whose call returns the live instance with equal fields."""

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        names = cls.__dataclass_fields__
        if kwargs or len(args) != len(names):
            # bind keywords and defaults as the dataclass __init__ does
            proto = super().__call__(*args, **kwargs)
            args = tuple(getattr(proto, name) for name in names)
        args = cls._canonical(args)
        kinds = tuple(map(type, args))
        exact = args
        if float in kinds:  # 0.0 == -0.0, but they are different constants
            exact = tuple(a.hex() if type(a) is float else a for a in args)
        key = (cls, exact, kinds)
        obj = _INSTANCES.get(key)
        if obj is None:
            with _INSERTING:
                obj = _INSTANCES.get(key)
                if obj is None:
                    obj = _INSTANCES[key] = super().__call__(*args)
        return obj


class Interned(metaclass=_Interning):
    """Base of hash-consed frozen dataclasses declared with ``eq=False``."""

    @staticmethod
    def _canonical(args: tuple) -> tuple:
        """The field values to store, given the constructor's."""
        return args

    def __reduce__(self) -> tuple:
        # copies and unpickled objects go through the table too
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass(frozen=True, eq=False)
class Type(Interned):
    """Base class for edge types."""


@dataclass(frozen=True, eq=False)
class ExtType(Type):
    """A type defined by an extension, e.g. ``stdlib.quantum.qubit``."""

    extension: str
    name: str
    args: tuple[Type, ...] = ()

    def __repr__(self) -> str:
        args = "" if not self.args else f"[{', '.join(map(repr, self.args))}]"
        return f"{self.extension}.{self.name}{args}"


@dataclass(frozen=True, eq=False)
class EnumType(Type):
    """Finite enumeration with tags ``0 .. cardinality-1``. ``EnumType(2)`` is bool."""

    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise TypeError_("enums need at least one tag")

    def __repr__(self) -> str:
        return "bool" if self.cardinality == 2 else f"enum({self.cardinality})"


@dataclass(frozen=True, eq=False)
class FunctionType(Type):
    """A runtime function value. Always monomorphic."""

    signature: "Signature"

    def __repr__(self) -> str:
        return f"fn{self.signature!r}"


@dataclass(frozen=True, eq=False)
class VarType(Type):
    """Type variable, a de Bruijn index into the enclosing polymorphic scheme."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TypeError_(f"type variable index {self.index} is negative")

    def __repr__(self) -> str:
        return f"var{self.index}"


@dataclass(frozen=True, eq=False)
class Signature(Interned):
    """Ordered input and output rows of an operation or function."""

    inputs: tuple[Type, ...] = ()
    outputs: tuple[Type, ...] = ()

    def __repr__(self) -> str:
        ins = ", ".join(map(repr, self.inputs))
        outs = ", ".join(map(repr, self.outputs))
        return f"({ins} -> {outs})"


@dataclass(frozen=True, eq=False)
class PolySignature(Interned):
    """A signature scheme abstracted over ``param_count`` type variables."""

    param_count: int
    body: Signature = field(default_factory=Signature)

    def __post_init__(self) -> None:
        for t in self.body.inputs + self.body.outputs:
            _check_vars_bound(t, self.param_count)


def monomorphic(inputs: tuple[Type, ...], outputs: tuple[Type, ...]) -> PolySignature:
    """Scheme with no type parameters."""
    return PolySignature(0, Signature(tuple(inputs), tuple(outputs)))


def _check_vars_bound(t: Type, param_count: int) -> None:
    if isinstance(t, VarType):
        if t.index >= param_count:
            raise TypeError_(f"type variable {t.index} out of range (< {param_count})")
    elif isinstance(t, ExtType):
        for a in t.args:
            _check_vars_bound(a, param_count)
    elif isinstance(t, FunctionType):
        for x in t.signature.inputs + t.signature.outputs:
            _check_vars_bound(x, param_count)


def contains_var(t: Type) -> bool:
    if isinstance(t, VarType):
        return True
    if isinstance(t, ExtType):
        return any(contains_var(a) for a in t.args)
    if isinstance(t, FunctionType):
        return any(contains_var(x) for x in t.signature.inputs + t.signature.outputs)
    return False


def is_linear(t: Type, registry: "Registry") -> bool:
    """True iff values of ``t`` must be used exactly once.

    Extension types resolve their linearity flag through the registry;
    function and enum types are copyable by definition.
    """
    if isinstance(t, ExtType):
        return registry.type_def(t.extension, t.name).linear
    if isinstance(t, (EnumType, FunctionType)):
        return False
    if isinstance(t, VarType):
        raise TypeError_("linearity of an uninstantiated type variable is undefined")
    raise TypeError_(f"unknown type {t!r}")


def substitute(t: Type, args: tuple[Type, ...]) -> Type:
    if isinstance(t, VarType):
        return args[t.index]
    if isinstance(t, ExtType) and t.args:
        return ExtType(t.extension, t.name, tuple(substitute(a, args) for a in t.args))
    if isinstance(t, FunctionType):
        sig = t.signature
        return FunctionType(
            Signature(
                tuple(substitute(x, args) for x in sig.inputs),
                tuple(substitute(x, args) for x in sig.outputs),
            )
        )
    return t


def instantiate(scheme: PolySignature, args: tuple[Type, ...]) -> Signature:
    """Capture-free substitution of the scheme's variables by ``args``.

    Arguments must be monomorphic, so the result contains no variables.
    """
    if len(args) != scheme.param_count:
        raise TypeError_(
            f"scheme expects {scheme.param_count} type arguments, got {len(args)}"
        )
    for a in args:
        if contains_var(a):
            raise TypeError_(f"type argument {a!r} contains an unbound variable")
    body = scheme.body
    return Signature(
        tuple(substitute(t, args) for t in body.inputs),
        tuple(substitute(t, args) for t in body.outputs),
    )


def types_equal(a: Type, b: Type) -> bool:
    """Structural equality of monomorphic types."""
    if contains_var(a) or contains_var(b):
        raise TypeError_("types_equal is defined on monomorphic types only")
    return a == b


# Shared aliases. bool is literally the two-tag enum.
BOOL = EnumType(2)
QUBIT = ExtType("stdlib.quantum", "qubit")
F64 = ExtType("stdlib.classical", "f64")
I64 = ExtType("stdlib.classical", "i64")
