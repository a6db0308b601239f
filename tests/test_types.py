"""Type language: linearity, instantiation, structural equality."""

import numpy as np
import pytest

from hugr_ir import stdlib
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
