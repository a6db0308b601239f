"""Type language: linearity, instantiation, structural equality."""

import numpy as np
import pytest

from hugr_ir import stdlib
from hugr_ir.ops import OpDef
from hugr_ir.types import (
    BOOL,
    F64,
    QUBIT,
    EnumType,
    ExtType,
    FunctionType,
    PolySignature,
    Signature,
    TypeError_,
    VarType,
    instantiate,
    is_linear,
    types_equal,
)


class TestLinearity:
    def test_qubit_is_linear(self, registry):
        assert is_linear(QUBIT, registry)

    def test_f64_is_copyable(self, registry):
        assert not is_linear(F64, registry)

    def test_function_values_are_copyable(self, registry):
        fn = FunctionType(Signature((QUBIT,), (QUBIT,)))
        assert not is_linear(fn, registry)

    def test_enum_is_copyable(self, registry):
        assert not is_linear(BOOL, registry)
        assert not is_linear(EnumType(5), registry)

    def test_unresolved_extension_type(self, registry):
        with pytest.raises(TypeError_):
            is_linear(ExtType("no.such", "thing"), registry)

    def test_bare_variable_has_no_linearity(self, registry):
        with pytest.raises(TypeError_):
            is_linear(VarType(0), registry)


class TestInstantiate:
    def test_identity_scheme(self):
        s = PolySignature(1, Signature((VarType(0),), (VarType(0),)))
        assert instantiate(s, (QUBIT,)) == Signature((QUBIT,), (QUBIT,))

    def test_substitution(self):
        s = PolySignature(1, Signature((VarType(0), VarType(0)), (BOOL,)))
        assert instantiate(s, (F64,)) == Signature((F64, F64), (BOOL,))

    def test_nullary_scheme(self):
        sig = Signature((QUBIT, QUBIT), (BOOL,))
        assert instantiate(PolySignature(0, sig), ()) == sig

    def test_arity_mismatch(self):
        s = PolySignature(1, Signature((VarType(0),), ()))
        with pytest.raises(TypeError_):
            instantiate(s, ())

    def test_polymorphic_argument_rejected(self):
        s = PolySignature(1, Signature((VarType(0),), ()))
        with pytest.raises(TypeError_):
            instantiate(s, (VarType(0),))

    def test_unbound_variable_rejected_at_construction(self):
        with pytest.raises(TypeError_):
            PolySignature(1, Signature((VarType(3),), ()))

    def test_substitutes_under_nesting(self):
        inner = FunctionType(Signature((VarType(0),), (VarType(0),)))
        s = PolySignature(1, Signature((inner,), ()))
        out = instantiate(s, (F64,))
        assert out.inputs[0] == FunctionType(Signature((F64,), (F64,)))


class TestEquality:
    def test_same_type(self):
        assert types_equal(QUBIT, QUBIT)

    def test_bool_is_the_two_tag_enum(self):
        assert types_equal(EnumType(2), BOOL)

    def test_function_types_differ_by_signature(self):
        a = FunctionType(Signature((QUBIT,), (QUBIT,)))
        b = FunctionType(Signature((F64,), (F64,)))
        assert not types_equal(a, b)

    def test_polymorphic_input_rejected(self):
        with pytest.raises(TypeError_):
            types_equal(VarType(0), QUBIT)


def _random_type(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        return [QUBIT, F64, BOOL, EnumType(int(rng.integers(1, 6)))][int(rng.integers(4))]
    if roll < 0.6:
        args = tuple(_random_type(rng, depth + 1) for _ in range(int(rng.integers(0, 3))))
        return ExtType("gen.ext", f"t{int(rng.integers(3))}", args)
    return FunctionType(Signature(
        tuple(_random_type(rng, depth + 1) for _ in range(int(rng.integers(0, 3)))),
        tuple(_random_type(rng, depth + 1) for _ in range(int(rng.integers(0, 2))))))


def test_instantiation_always_monomorphic():
    from hugr_ir.types import contains_var

    rng = np.random.default_rng(3)
    for _ in range(200):
        params = int(rng.integers(1, 4))
        body_types = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                body_types.append(VarType(int(rng.integers(params))))
            else:
                body_types.append(_random_type(rng))
        cut = int(rng.integers(len(body_types) + 1))
        s = PolySignature(params, Signature(tuple(body_types[:cut]), tuple(body_types[cut:])))
        args = tuple(_random_type(rng) for _ in range(params))
        out = instantiate(s, args)
        assert not any(contains_var(t) for t in out.inputs + out.outputs)


def test_types_equal_is_an_equivalence_relation():
    rng = np.random.default_rng(4)
    types = [_random_type(rng) for _ in range(30)]
    for a in types:
        assert types_equal(a, a)
    for a in types:
        for b in types:
            assert types_equal(a, b) == types_equal(b, a)
            if types_equal(a, b):
                for c in types:
                    if types_equal(b, c):
                        assert types_equal(a, c)


class TestInterning:
    def test_one_object_however_constructed(self):
        assert ExtType("stdlib.classical", "f64") is F64
        assert ExtType(extension="stdlib.classical", name="f64", args=()) is F64
        assert ExtType("stdlib.classical", name="f64") is F64
        sig = Signature((QUBIT,), (QUBIT,))
        assert Signature(inputs=(QUBIT,), outputs=(QUBIT,)) is sig
        assert Signature() is Signature((), ()) is Signature(outputs=())
        assert PolySignature(0) is PolySignature(0, Signature()) is PolySignature(param_count=0)

    def test_equality_and_hashing_are_identity(self):
        lst = ExtType("acme.list", "list", (F64,))
        assert lst == ExtType("acme.list", "list", (F64,))
        assert lst != ExtType("acme.list", "list", (QUBIT,))
        assert {lst: 1}[ExtType("acme.list", "list", (F64,))] == 1
        assert EnumType.__eq__ is object.__eq__ and EnumType.__hash__ is object.__hash__

    def test_keys_are_exact_about_value_types(self):
        assert EnumType(2) is BOOL and EnumType(True) is not BOOL
        assert repr(EnumType(True)) == "enum(True)"  # not merged into bool either way

    def test_copies_and_pickles_are_the_same_object(self):
        import copy
        import pickle

        fn = FunctionType(Signature((QUBIT, F64), (BOOL,)))
        assert copy.copy(fn) is fn and copy.deepcopy(fn) is fn
        assert pickle.loads(pickle.dumps(fn)) is fn

    def test_construction_still_checks_its_arguments(self):
        with pytest.raises(TypeError_):
            EnumType(0)
        with pytest.raises(TypeError_):
            PolySignature(0, Signature((VarType(0),), ()))
        with pytest.raises(TypeError):
            ExtType("a", "b", (), 3)


def test_concurrent_construction_yields_one_object():
    import sys
    import threading

    results: list[list] = []
    start = threading.Barrier(8)

    def build():
        start.wait()
        results.append([ExtType("stress", f"t{i}", (F64,)) for i in range(300)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    for objs in zip(*results):
        assert all(o is objs[0] for o in objs)


def _interned_classes() -> list[type]:
    import hugr_ir.ops  # noqa: F401  (the op, port-kind and extension records)
    from hugr_ir.types import Interned

    found, todo = [], [Interned]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(set(found), key=lambda c: c.__qualname__)


# a valid value for every field name the records use; none is a default
_SAMPLES = {
    "extension": "acme", "name": "thing", "args": (F64,), "cardinality": 3,
    "signature": Signature((QUBIT,), ()), "index": 1, "inputs": (QUBIT,), "outputs": (BOOL,),
    "param_count": 2, "body": Signature((VarType(1),), ()), "types": (QUBIT, F64),
    "type_args": (F64,), "scheme": PolySignature(1, Signature((VarType(0),), ())),
    "value": 0.5, "type": F64, "other_inputs": (F64,), "successor_count": 2,
    "loop_vars": (QUBIT,), "payload": F64, "linear": True, "arity": 1, "doc": "a gadget",
    "id": "acme.gadgets", "ops": (OpDef("g", PolySignature(0)),),
}


@pytest.mark.parametrize("cls", _interned_classes(), ids=lambda c: c.__name__)
class TestRecordContract:
    """What every interned record class promises, whatever its fields."""

    def test_fields_are_the_annotations_base_first(self, cls):
        expected: list[str] = []
        for klass in reversed(cls.__mro__):
            expected += [n for n in klass.__dict__.get("__annotations__", {}) if n not in expected]
        assert list(cls._fields) == expected

    def test_positional_keyword_and_default_construction_agree(self, cls):
        values = [_SAMPLES[name] for name in cls._fields]
        obj = cls(*values)
        assert [getattr(obj, name) for name in cls._fields] == values
        assert cls(**dict(zip(cls._fields, values))) is obj
        for k in range(len(values)):
            assert cls(*values[:k], **dict(zip(cls._fields[k:], values[k:]))) is obj
        required = [name for name in cls._fields if name not in cls._defaults]
        assert cls._fields[:len(required)] == tuple(required)  # defaults come last
        defaulted = cls(*values[:len(required)])
        assert defaulted is cls(*values[:len(required)], *cls._defaults.values())
        assert defaulted is cls(**dict(zip(required, values)))
        assert [getattr(defaulted, name) for name in cls._defaults] == list(cls._defaults.values())

    def test_bad_arguments_are_named(self, cls):
        kwargs = {name: _SAMPLES[name] for name in cls._fields}
        for name in cls._fields:
            if name not in cls._defaults:
                with pytest.raises(TypeError, match=f"{cls.__name__}.*missing.*'{name}'"):
                    cls(**{k: v for k, v in kwargs.items() if k != name})
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'surplus'"):
            cls(*kwargs.values(), "surplus")
        with pytest.raises(TypeError, match=f"{cls.__name__}.*unexpected.*'bogus'"):
            cls(**kwargs, bogus=1)
        if cls._fields:
            first = cls._fields[0]
            with pytest.raises(TypeError, match=f"multiple values.*'{first}'"):
                cls(kwargs[first], **kwargs)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        obj = cls(*(_SAMPLES[name] for name in cls._fields))
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError, match=name):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(obj, name)
        assert [getattr(obj, name) for name in cls._fields] == [_SAMPLES[n] for n in cls._fields]
        assert not hasattr(obj, "extra")

    def test_copies_and_pickles_are_the_same_object(self, cls):
        import copy
        import pickle

        obj = cls(*(_SAMPLES[name] for name in cls._fields))
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj


def _prints_itself(cls: type) -> bool:
    from hugr_ir.types import Interned

    return any("__repr__" in c.__dict__ for c in cls.__mro__[:cls.__mro__.index(Interned)])


@pytest.mark.parametrize("cls", [c for c in _interned_classes() if not _prints_itself(c)],
                         ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    obj = cls(*(_SAMPLES[name] for name in cls._fields))
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in cls._fields)
    assert repr(obj) == f"{cls.__qualname__}({fields})"


def test_record_reprs_keep_the_dataclass_form():
    from hugr_ir.ops import Const, ExtensionOp, Module

    assert repr(Const(1, F64)) == "Const(value=1.0, type=stdlib.classical.f64)"
    assert repr(Module()) == "Module()"
    assert repr(ExtensionOp("acme", "g")) == (
        "ExtensionOp(extension='acme', name='g', type_args=(), signature=( -> ))")
    assert repr(PolySignature(0)) == "PolySignature(param_count=0, body=( -> ))"


def test_op_rows_are_cached_on_the_record():
    from hugr_ir.ops import ExtensionOp, Value

    op = ExtensionOp("acme", "g", (), Signature((QUBIT,), (QUBIT, BOOL)))
    rows = op.rows
    assert rows == ((Value(QUBIT),), (Value(QUBIT), Value(BOOL))) and op.rows is rows
    assert op.__dict__["rows"] is rows
