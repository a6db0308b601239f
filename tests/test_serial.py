"""Canonical serialization: roundtrips, tolerant decoding, error paths."""

import json

import numpy as np
import pytest

from hugr_ir import Hugr, decode, encode, register, stdlib, structurally_equal
from hugr_ir.ops import Extension, FuncDecl, OpDef, monomorphic
from hugr_ir.programs import all_programs, external_call, rus_cfg
from hugr_ir.serial import DecodeError
from hugr_ir.types import QUBIT, Signature
from hugr_ir.validate import Code, validate

from generators import main_region, random_circuit, random_reducible_cfg


def test_empty_module_document():
    doc = json.loads(encode(Hugr()))
    assert doc["version"] == 1
    assert len(doc["nodes"]) == 1
    assert doc["edges"] == []


def test_every_program_roundtrips(registry):
    for name, h in all_programs(registry).items():
        text = encode(h)
        again = decode(text)
        assert encode(again) == text, name
        assert structurally_equal(h, again)


def test_external_call_serializes_a_static_edge(registry):
    h = external_call(registry)
    doc = json.loads(encode(h))
    static_edges = [e for e in doc["edges"] if e["kind"] == "Static"]
    assert len(static_edges) == 1
    src_id = static_edges[0]["src"][0]
    src_op = next(n["op"] for n in doc["nodes"] if n["id"] == src_id)
    assert src_op["kind"] == "FuncDecl"


def test_cfg_program_serializes_control_flow_edges(registry):
    h = rus_cfg(registry)
    doc = json.loads(encode(h))
    assert any(e["kind"] == "ControlFlow" for e in doc["edges"])
    again = decode(encode(h))
    assert validate(again, registry) == []


def test_roundtrip_random_graphs(registry):
    rng = np.random.default_rng(21)
    for i in range(40):
        h = random_circuit(rng, n_qubits=3, n_gates=15, registry=registry,
                           p_measure=0.1)
        text = encode(h)
        assert encode(decode(text)) == text
    for i in range(10):
        h = random_reducible_cfg(rng, max_blocks=6, registry=registry)
        text = encode(h)
        assert encode(decode(text)) == text


def test_canonical_form_ignores_construction_history(registry):
    # build the same circuit wiring edges in different orders
    from hugr_ir import Value, ext_op, in_port, out_port
    from hugr_ir.build import new_module

    def build(wire_order):
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
        h = m.hugr
        q0, q1 = b.inputs()
        cx = h.add_node(ext_op(registry, "stdlib.quantum", "CX"), b.container)
        for k in wire_order:
            h.connect((q0, q1)[k], in_port(cx, k), Value(QUBIT))
        b.set_outputs(out_port(cx, 0), out_port(cx, 1))
        return m.hugr

    assert encode(build([0, 1])) == encode(build([1, 0]))


def test_dense_reindexing_hides_removed_ids(registry):
    from generators import chain_circuit

    a = chain_circuit(["H", "X"], registry)
    b = chain_circuit(["H", "Z", "X"], registry)
    z = b.children(main_region(b))[3]
    b.remove_node(z)
    # reconnect H -> X after removing the middle gate
    from hugr_ir import Value, in_port, out_port

    hnode = b.children(main_region(b))[2]
    xnode = b.children(main_region(b))[3]
    b.connect(out_port(hnode, 0), in_port(xnode, 0), Value(QUBIT))
    assert encode(a) == encode(b)


def test_unknown_node_reference_is_a_decode_error(registry):
    doc = json.loads(encode(all_programs(registry)["rotation_pipeline"]))
    doc["edges"][0]["src"][0] = 999
    with pytest.raises(DecodeError):
        decode(json.dumps(doc))


def test_dangling_parent_is_a_decode_error():
    doc = json.loads(encode(Hugr()))
    doc["nodes"].append({"id": 1, "parent": 42, "op": {"kind": "Case"}})
    with pytest.raises(DecodeError):
        decode(json.dumps(doc))


def test_version_gate():
    doc = json.loads(encode(Hugr()))
    doc["version"] = 2
    with pytest.raises(DecodeError):
        decode(json.dumps(doc))


def test_malformed_json():
    with pytest.raises(DecodeError):
        decode("{not json")


def test_unknown_toplevel_field_warns():
    doc = json.loads(encode(Hugr()))
    doc["future_extension"] = {"x": 1}
    with pytest.warns(UserWarning):
        h = decode(json.dumps(doc))
    assert len(h) == 1


def test_unknown_extension_op_decodes_and_validates_per_registry(registry):
    gadget = Extension("acme.gadgets",
                       ops=(OpDef("spin", monomorphic((QUBIT,), (QUBIT,))),))
    rich = register(registry, gadget)
    from hugr_ir.build import new_module

    m = new_module(rich)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.ext("acme.gadgets", "spin", q)
    b.set_outputs(q)
    text = encode(m.hugr)

    again = decode(text)  # decoding needs no registry knowledge
    assert encode(again) == text
    plain_diags = validate(again, registry)
    assert {d.code for d in plain_diags} == {Code.UnknownOp}
    assert validate(again, rich) == []


def test_float_values_roundtrip_exactly(registry):
    rng = np.random.default_rng(5)
    h = random_circuit(rng, n_qubits=2, n_gates=10, registry=registry, p_rz=0.9)
    text = encode(h)
    assert encode(decode(text)) == text


# ── the op-term table against the per-kind code it replaced ───────

def _same_op(a, b):
    assert a == b and repr(a) == repr(b)  # repr tells 1 from 1.0


def _assert_as_before(h):
    from oracles import naive_encode, naive_term_to_op
    from hugr_ir.serial import term_to_op

    text = encode(h)
    assert text == naive_encode(h)
    for rec in json.loads(text)["nodes"]:
        _same_op(term_to_op(rec["op"]), naive_term_to_op(rec["op"]))


def _every_op_kind():
    from hugr_ir.ops import (
        BasicBlock, Call, Case, Cfg, Conditional, Const, ExitBlock, ExtensionOp,
        FuncDef, Input, LoadConst, LoadFunction, Module, Output, TailLoop,
    )
    from hugr_ir.types import BOOL, F64, EnumType, ExtType, FunctionType, PolySignature, VarType

    lst = ExtType("acme.list", "list", (F64,))
    fn = FunctionType(Signature((QUBIT,), (lst,)))
    ident = PolySignature(1, Signature((VarType(0),), (VarType(0),)))
    flip = monomorphic((QUBIT,), (QUBIT, BOOL))
    return [
        Module(), FuncDef("f", ident), FuncDecl("g", flip),
        Input((QUBIT, F64, fn)), Output((lst, BOOL)),
        Call((), flip), Call((lst,), ident),
        LoadFunction((), flip), LoadFunction((fn,), ident),
        Const(0.25, F64), Const(2, EnumType(3)), LoadConst(F64),
        Conditional(3, (QUBIT,), (fn,)), Case(), TailLoop((QUBIT, lst)),
        Cfg(Signature((QUBIT, F64), (QUBIT,))), BasicBlock((QUBIT,), 2), ExitBlock((lst,)),
        ExtensionOp("stdlib.quantum", "H", (), Signature((QUBIT,), (QUBIT,))),
        ExtensionOp("acme.list", "push", (F64,), Signature((lst, F64), (lst,))),
    ]


def test_every_op_kind_encodes_and_decodes_as_before():
    from oracles import naive_op_to_term, naive_term_to_op
    from hugr_ir.ops import OpKind
    from hugr_ir.serial import op_to_term, term_to_op

    ops = _every_op_kind()
    assert {type(op) for op in ops} == set(OpKind.__subclasses__())
    h = Hugr()
    for op in ops:
        term = op_to_term(op)
        assert json.dumps(term) == json.dumps(naive_op_to_term(op))
        _same_op(term_to_op(term), op)
        _same_op(term_to_op(term), naive_term_to_op(term))
        h.add_node(op, h.root)
    _assert_as_before(h)
    assert json.loads(encode(h))["extensions_required"] == \
        ["acme.list", "stdlib.classical", "stdlib.quantum"]


def test_an_integral_f64_constant_decodes_to_a_float():
    from oracles import naive_term_to_op
    from hugr_ir.ops import Const
    from hugr_ir.serial import term_to_op
    from hugr_ir.types import F64

    term = {"kind": "Const", "value": 1, "type": {"ext": "stdlib.classical", "name": "f64"}}
    _same_op(term_to_op(term), naive_term_to_op(term))
    _same_op(term_to_op(term), Const(1.0, F64))


def test_fixtures_and_criterion_6_graphs_encode_as_before(registry):
    for h in all_programs(registry).values():
        _assert_as_before(h)
    rng = np.random.default_rng(66)  # the graphs of criterion 6
    for i in range(500):
        if i % 5 == 4:
            h = random_reducible_cfg(rng, max_blocks=6, registry=registry)
        else:
            h = random_circuit(rng, n_qubits=int(rng.integers(1, 5)),
                               n_gates=int(rng.integers(0, 30)),
                               registry=registry, p_measure=0.1)
        _assert_as_before(h)


def test_rules_encode_as_before(registry):
    from oracles import naive_encode_rule
    from hugr_ir.rules import standard_rules
    from hugr_ir.serial import encode_rule

    from generators import perf_setup

    _, commuting, _ = perf_setup(n_rules=10, n_gates=20)
    for rule in standard_rules(registry) + commuting:
        assert encode_rule(rule) == naive_encode_rule(rule)


@pytest.mark.parametrize("term", [
    {"kind": "Conditional", "cardinality": "x", "inputs": [], "outputs": []},
    {"kind": "BasicBlock", "inputs": [], "successors": "two"},
    {"kind": "LoadConst", "type": {"enum": 0}},
    {"kind": "FuncDecl", "name": "f",
     "scheme": {"params": 0, "inputs": [{"var": 0}], "outputs": []}},
], ids=["cardinality", "successors", "enum", "unbound-var"])
def test_malformed_op_terms_are_decode_errors(term):
    doc = json.loads(encode(Hugr()))
    doc["nodes"].append({"id": 1, "parent": 0, "op": term})
    with pytest.raises(DecodeError):
        decode(json.dumps(doc))
