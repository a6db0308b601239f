"""``validate`` and ``encode`` against the code they replaced, kept in oracles.py.

Diagnostic lists must render identically, and documents must be the same
bytes, on the fixtures, the acceptance suite's fault-injected graphs, the
decodable fuzz mutants, structured random CFGs and hand-built graphs with
unusual terms.
"""

import json
import random

import numpy as np
import pytest

from hugr_ir import Hugr, decode, encode, in_port, out_port
from hugr_ir.build import new_module
from hugr_ir.ops import (
    Call,
    Const,
    ExtensionOp,
    FuncDecl,
    FuncDef,
    Input,
    LoadConst,
    LoadFunction,
    Output,
    Static,
    Value,
)
from hugr_ir.programs import all_programs
from hugr_ir.rewrite import RewriteRule
from hugr_ir.rules import standard_rules
from hugr_ir.serial import DecodeError, encode_rule
from hugr_ir.structure import structure_all
from hugr_ir.types import (
    BOOL,
    F64,
    QUBIT,
    ExtType,
    FunctionType,
    PolySignature,
    Signature,
    VarType,
    monomorphic,
)
from hugr_ir.validate import render, validate, validate_region

from generators import FAULT_KINDS, inject_fault, random_circuit, random_reducible_cfg
from oracles import naive_encode, naive_encode_rule, naive_validate, naive_validate_region
from test_fuzz import MUTANTS, _mutate, _paths


def _same_diagnostics(h, registry):
    assert render(validate(h, registry)) == render(naive_validate(h, registry))


def test_fixtures_validate_and_encode_as_before(registry):
    for name, h in all_programs(registry).items():
        _same_diagnostics(h, registry)
        for n in h.preorder():
            assert render(validate_region(h, n, registry)) == \
                render(naive_validate_region(h, n, registry)), (name, n)
        assert encode(h) == naive_encode(h), name


def test_fault_injected_graphs_validate_as_before(registry):
    rng = np.random.default_rng(2024)  # the graphs of acceptance criterion 2
    for i in range(1002):
        h = random_circuit(rng, n_qubits=3, n_gates=14, registry=registry,
                           p_measure=0.12, ensure_rz_and_measure=True)
        _same_diagnostics(h, registry)
        inject_fault(h, FAULT_KINDS[i % len(FAULT_KINDS)], rng, registry)
        _same_diagnostics(h, registry)
        assert validate(h, registry)


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:ignoring unknown document field")
def test_decodable_fuzz_mutants_validate_as_before(registry):
    # the mutants of tests/test_fuzz.py, in the same order from the same seed
    texts = [encode(h) for h in all_programs(registry).values()] + [encode(Hugr())]
    paths = [list(_paths(json.loads(text))) for text in texts]
    rng = random.Random(2006)
    invalid = 0
    for i in range(MUTANTS):
        text = _mutate(texts[i % len(texts)], paths[i % len(texts)], rng)
        try:
            h = decode(text)
        except DecodeError:
            continue
        _same_diagnostics(h, registry)
        invalid += bool(validate(h, registry))
    assert invalid > 0


def test_structured_cfgs_validate_and_encode_as_before(registry):
    rng = np.random.default_rng(88)
    for _ in range(200):
        h = random_reducible_cfg(rng, max_blocks=8, registry=registry)
        structure_all(h, registry)
        _same_diagnostics(h, registry)
        assert encode(h) == naive_encode(h)


def test_port_facts_per_op_validate_as_before(registry):
    # a type variable is linear until instantiated: fanning it out is an error
    var = VarType(0)
    h = Hugr()
    f = h.add_node(FuncDef("dup", PolySignature(1, Signature((var,), (var, var)))), h.root)
    inp = h.add_node(Input((var,)), f)
    out = h.add_node(Output((var, var)), f)
    for k in range(2):
        h.connect(out_port(inp, 0), in_port(out, k), Value(var))
    _same_diagnostics(h, registry)
    assert validate(h, registry)
    # two ops of one class, with a copyable and a linear output
    m = new_module(registry)
    b = m.define_function("main", Signature((F64,), (F64,)))
    (x,) = b.inputs()
    (y,) = b.cl("Neg", x)
    b.q("QAlloc")
    b.set_outputs(y)
    _same_diagnostics(m.hugr, registry)
    assert validate(m.hugr, registry)


def _unusual_graph():
    """Non-ASCII names, static and function-typed edges, signed and huge
    constants, and edge ties that only the kind name (or nothing) orders."""
    thing = ExtType("éxt.ünï", "τύπος")
    flip = monomorphic((QUBIT,), (QUBIT,))
    h = Hugr()
    f = h.add_node(FuncDef("φ→ψ", monomorphic((thing,), (thing,))), h.root)
    decl = h.add_node(FuncDecl("外部", flip), h.root)
    h.add_node(Input((thing, QUBIT)), f)
    out = h.add_node(Output((thing, QUBIT, FunctionType(flip.body), F64, F64, F64)), f)
    gate = h.add_node(ExtensionOp("éxt.ünï", "gäte✓", (), Signature((thing,), (thing,))), f)
    call = h.add_node(Call((), flip), f)
    load = h.add_node(LoadFunction((), flip), f)
    h.connect(out_port(decl, 0), in_port(call, 1), Static(flip))
    h.connect(out_port(decl, 0), in_port(load, 0), Static(flip))
    h.connect(out_port(load, 0), in_port(out, 2), Value(FunctionType(flip.body)))
    for k, value in enumerate([1e300, -0.0, 0.0]):
        const = h.add_node(Const(value, F64), f)
        loaded = h.add_node(LoadConst(F64), f)
        h.connect(out_port(const, 0), in_port(loaded, 0), Static(F64))
        h.connect(out_port(loaded, 0), in_port(out, 5 - k), Value(F64))
        h.connect(out_port(loaded, 0), in_port(gate, 0), Value(F64))
    # two edges between one pair of ports, written against their canonical order
    h.connect(out_port(call, 0), in_port(out, 1), Value(QUBIT))
    h.connect(out_port(call, 0), in_port(out, 1), Value(BOOL))
    h.connect(out_port(call, 0), in_port(out, 1), Static(QUBIT))
    return h


def test_unusual_terms_encode_as_before(registry):
    h = _unusual_graph()
    text = encode(h)
    assert text == naive_encode(h)
    assert "\\u00e9xt.\\u00fcn\\u00ef" in text  # the encoder escapes non-ASCII
    assert json.loads(text)["extensions_required"] == ["stdlib.classical", "stdlib.quantum",
                                                        "éxt.ünï"]
    assert [json.dumps(n["op"]["value"]) for n in json.loads(text)["nodes"]
            if n["op"]["kind"] == "Const"] == ["1e+300", "-0.0", "0.0"]
    assert encode(decode(text)) == text
    _same_diagnostics(h, registry)
    rule = standard_rules(registry)[0]
    renamed = RewriteRule(rule.lhs, rule.rhs, "ħ·ħ ⇒ 1")
    assert encode_rule(renamed) == naive_encode_rule(renamed)
