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

A record class derives from :class:`Interned` and declares its fields as
class annotations, base class fields first; a class attribute of the same
name is the field's default, as in ``args: tuple[Type, ...] = ()``. The
metaclass reads the fields once per class and binds positional, keyword and
default arguments from them. Records are immutable, print as
``Name(field=value, ...)`` unless the class defines ``__repr__``, and may
check their fields in ``__post_init__``.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .ops import Registry


class TypeError_(Exception):
    """Raised for ill-formed or unresolvable types."""


# every live interned object, by (class, exact field values, field value classes)
_INSTANCES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INSERTING = threading.Lock()  # two threads must not both add one value
_REQUIRED = object()  # the default of a field that has none


class _Interning(type):
    """Metaclass whose call returns the live instance with equal fields.

    It reads each class's fields and defaults once, when the class is made.
    """

    def __init__(cls, name: str, bases: tuple, namespace: dict) -> None:
        super().__init__(name, bases, namespace)
        defaults: dict[str, Any] = {}
        for klass in reversed(cls.__mro__):
            for field in klass.__dict__.get("__annotations__", ()):
                defaults[field] = klass.__dict__.get(field, _REQUIRED)
        cls._fields = tuple(defaults)
        cls._defaults = {k: v for k, v in defaults.items() if v is not _REQUIRED}

    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call, with keywords and defaults filled in."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but "
                            f"{len(args)} were given; the extra ones are {args[len(names):]!r}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(values)

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
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
                    obj = object.__new__(cls)
                    obj.__dict__.update(zip(cls._fields, args))
                    obj.__post_init__()
                    _INSTANCES[key] = obj
        return obj


class Interned(metaclass=_Interning):
    """Base of hash-consed immutable records (see the module docstring).

    The metaclass builds instances, so a subclass defines no ``__init__``.
    """

    @staticmethod
    def _canonical(args: tuple) -> tuple:
        """The field values to store, given the constructor's."""
        return args

    def __post_init__(self) -> None:
        """Check the field values of a new instance; raise to refuse them."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copies and unpickled objects go through the table too
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Type(Interned):
    """Base class for edge types."""


class ExtType(Type):
    """A type defined by an extension, e.g. ``stdlib.quantum.qubit``."""

    extension: str
    name: str
    args: tuple[Type, ...] = ()

    def __repr__(self) -> str:
        args = "" if not self.args else f"[{', '.join(map(repr, self.args))}]"
        return f"{self.extension}.{self.name}{args}"


class EnumType(Type):
    """Finite enumeration with tags ``0 .. cardinality-1``. ``EnumType(2)`` is bool."""

    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise TypeError_("enums need at least one tag")

    def __repr__(self) -> str:
        return "bool" if self.cardinality == 2 else f"enum({self.cardinality})"


class FunctionType(Type):
    """A runtime function value. Always monomorphic."""

    signature: "Signature"

    def __repr__(self) -> str:
        return f"fn{self.signature!r}"


class VarType(Type):
    """Type variable, a de Bruijn index into the enclosing polymorphic scheme."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TypeError_(f"type variable index {self.index} is negative")

    def __repr__(self) -> str:
        return f"var{self.index}"


class Signature(Interned):
    """Ordered input and output rows of an operation or function."""

    inputs: tuple[Type, ...] = ()
    outputs: tuple[Type, ...] = ()

    def __repr__(self) -> str:
        ins = ", ".join(map(repr, self.inputs))
        outs = ", ".join(map(repr, self.outputs))
        return f"({ins} -> {outs})"


class PolySignature(Interned):
    """A signature scheme abstracted over ``param_count`` type variables."""

    param_count: int
    body: Signature = Signature()

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
