"""Canonical serialization: roundtrips, tolerant decoding, error paths."""

import json
import re

import numpy as np
import pytest

from hugr_ir import (
    Hugr,
    decode,
    encode,
    in_port,
    out_port,
    register,
    serial,
    stdlib,
    structurally_equal,
)
from hugr_ir.ops import (
    BasicBlock,
    ControlFlow,
    ExitBlock,
    Extension,
    FuncDecl,
    FuncDef,
    Input,
    OpDef,
    Output,
    Value,
    monomorphic,
)
from hugr_ir.programs import all_programs, external_call, rus_cfg
from hugr_ir.serial import DecodeError, from_document
from hugr_ir.types import QUBIT, ExtType, Signature
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
    # integer fields take JSON integers only: int() would coerce these
    {"kind": "Conditional", "cardinality": "2", "inputs": [], "outputs": []},
    {"kind": "Conditional", "cardinality": 2.0, "inputs": [], "outputs": []},
    {"kind": "BasicBlock", "inputs": [], "successors": 0.0},
    {"kind": "LoadConst", "type": {"enum": 2.7}},
    {"kind": "LoadConst", "type": {"enum": True}},
    {"kind": "FuncDecl", "name": "f",
     "scheme": {"params": 1.0, "inputs": [{"var": 0}], "outputs": []}},
    {"kind": "FuncDecl", "name": "f",
     "scheme": {"params": 1, "inputs": [{"var": False}], "outputs": []}},
    {"kind": "Call", "scheme": {"params": 0, "inputs": [{"var": -1}], "outputs": []}},
    {"kind": "FuncDecl", "name": "f",
     "scheme": {"params": 1, "inputs": [{"var": -1}], "outputs": []}},
], ids=["cardinality", "successors", "enum", "unbound-var", "cardinality-str",
        "cardinality-float", "successors-float", "enum-float", "enum-bool", "params-float",
        "var-bool", "negative-var-call", "negative-var"])
def test_malformed_op_terms_are_decode_errors(term):
    doc = json.loads(encode(Hugr()))
    doc["nodes"].append({"id": 1, "parent": 0, "op": term})
    with pytest.raises(DecodeError):
        decode(json.dumps(doc))


# ── interned ops and the per-document term memo ───────────────────

def _constants_graph():
    from hugr_ir.ops import Const
    from hugr_ir.types import BOOL, F64, I64

    h = Hugr()
    ops = [Const(0.0, F64), Const(-0.0, F64), Const(1, I64), Const(1.0, I64),
           Const(True, I64), Const(1, BOOL), Const(True, BOOL), Const(1.0, I64)]
    for op in ops:
        h.add_node(op, h.root)
    return h, ops


def test_constants_that_print_differently_stay_distinct():
    h, ops = _constants_graph()
    text = encode(h)
    values = [n["op"]["value"] for n in json.loads(text)["nodes"][1:]]
    assert [json.dumps(v) for v in values] == \
        ["0.0", "-0.0", "1", "1.0", "true", "1", "true", "1.0"]
    again = decode(text)
    assert encode(again) == text
    assert [again.op(n) for n in again.children(again.root)] == ops
    assert len({id(op) for op in ops}) == 7


def test_decoded_terms_are_memoised_exactly():
    h, _ = _constants_graph()
    doc = json.loads(encode(h))
    # the same constants read from terms the encoder did not write
    for rec, value in zip(doc["nodes"][1:], [0, -0.0, 1, 1.0, True, 1, True, 1.0]):
        rec["op"] = dict(rec["op"], value=value)
    again = from_document(doc)
    reread = [again.op(n) for n in again.children(again.root)]
    assert [repr(op.value) for op in reread] == \
        ["0.0", "-0.0", "1", "1.0", "True", "1", "True", "1.0"]
    assert reread[3] is reread[7]


def test_integral_f64_constants_encode_canonically(registry):
    from hugr_ir.build import new_module
    from hugr_ir.types import F64

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.q("Rz", q, b.const(1, F64))
    b.set_outputs(q)
    text = encode(m.hugr)
    assert '"value":1.0' in text
    assert encode(decode(text)) == text


def test_equal_ops_share_one_rows_object(registry):
    from generators import chain_circuit

    h = decode(encode(chain_circuit(["H", "X", "H"], registry)))
    first, _, third = h.children(main_region(h))[2:5]
    assert h.op(first) is h.op(third)
    assert h.node(first).rows is h.node(third).rows


@pytest.mark.parametrize("place,junk,where", [
    (("nodes", 1, "parent"), [0], "nodes[1]"),
    (("nodes", 3, "op", "types", 0), {"enum": 0}, "nodes[3].op"),
    (("edges", 0, "src"), ["a", 0], "edges[0]"),
    (("edges", 0, "type"), {"ext": "stdlib.quantum"}, "edges[0].type"),
], ids=["parent", "op", "src", "type"])
def test_decode_errors_name_the_bad_term(registry, place, junk, where):
    doc = json.loads(encode(external_call(registry)))
    *path, key = place
    target = doc
    for k in path:
        target = target[k]
    target[key] = junk
    with pytest.raises(DecodeError, match=rf"^{re.escape(where)}: "):
        from_document(doc)


_RECORD_INTEGERS = {"id": ("nodes", 1, "id"), "parent": ("nodes", 2, "parent"),
                    "src-node": ("edges", 0, "src", 0), "src-port": ("edges", 0, "src", 1),
                    "dst-node": ("edges", 0, "dst", 0), "dst-port": ("edges", 0, "dst", 1)}


# each loose value is one that int() maps back to the same integer
@pytest.mark.parametrize("field,loose", [(f, loose) for f in _RECORD_INTEGERS for loose in (float, str)]
                         + [(f, bool) for f in ("id", "parent", "src-node", "src-port")])
def test_record_integers_must_be_json_integers(registry, field, loose):
    doc = json.loads(encode(external_call(registry)))
    *path, key = place = _RECORD_INTEGERS[field]
    target = doc
    for k in path:
        target = target[k]
    value = target[key]
    target[key] = loose(value)
    assert int(target[key]) == value
    where = f"{place[0]}[{place[1]}]"
    with pytest.raises(DecodeError, match=rf"^{re.escape(where)}: malformed"):
        from_document(doc)


def test_malformed_extension_and_rule_files_are_decode_errors(registry):
    from hugr_ir.ops import QUANTUM_EXTENSION
    from hugr_ir.rules import standard_rules
    from hugr_ir.serial import decode_extension, decode_rule, encode_extension, encode_rule

    ext = json.loads(encode_extension(QUANTUM_EXTENSION))
    ext["types"][0]["arity"] = "x"
    op = {"name": "f", "scheme": {"params": 0, "inputs": [], "outputs": []}}
    twice = {"id": "a", "ops": [op, op]}
    rule = json.loads(encode_rule(standard_rules(registry)[0]))
    anchor, rule["anchor"] = rule["anchor"], "x"
    mistyped = [{"id": [1]}, {"id": "a", "types": [{"name": "t", "linear": "false"}]},
                {"id": "a", "types": [{"name": 1, "linear": True}]},
                {"id": "a", "types": [{"name": "t", "linear": True, "arity": True}]},
                {"id": "a", "ops": [{**op, "name": 1}]}, {"id": "a", "ops": [{**op, "doc": 1}]}]
    anchors = [dict(rule, anchor=loose(anchor)) for loose in (float, str)]
    files = [(decode_extension, ext), (decode_extension, twice), (decode_rule, rule)]
    files += [(decode_rule, doc) for doc in anchors]
    for read, doc in files + [(decode_extension, doc) for doc in mistyped]:
        with pytest.raises(DecodeError):
            read(json.dumps(doc))


def test_more_successors_than_edges_is_a_decode_error():
    doc = json.loads(encode(Hugr()))
    doc["nodes"].append({"id": 1, "parent": 0,
                         "op": {"kind": "BasicBlock", "inputs": [], "successors": 10**9}})
    # one port per successor would exhaust memory; the count is refused first
    with pytest.raises(DecodeError, match=r"^nodes\[1\]\.op: 1000000000 successors but 0 edges"):
        from_document(doc)


def _block_document():
    """A block with two successors, in a document of exactly two edges."""
    h = Hugr()
    block = h.add_node(BasicBlock((), 2), h.root)
    exit_ = h.add_node(ExitBlock(()), h.root)
    for k in range(2):
        h.connect(out_port(block, k), in_port(exit_, 0), ControlFlow())
    return json.loads(encode(h))


def test_the_successor_bound_holds_on_a_memo_hit():
    doc = _block_document()
    h = from_document(doc)  # keeps the block op, and so its memo entry, alive
    assert serial._OPS.get(serial._term_key(doc["nodes"][1]["op"])) is BasicBlock((), 2)
    short = dict(doc, edges=doc["edges"][:1])
    with pytest.raises(DecodeError, match=r"^nodes\[1\]\.op: 2 successors but 1 edges"):
        from_document(short)
    assert encode(h) == encode(from_document(doc))


def test_the_term_memo_drops_the_terms_of_dead_graphs():
    import gc

    probe = ExtType("memo.probe", "t")
    h = Hugr()
    f = h.add_node(FuncDef("probe", monomorphic((probe,), (probe,))), h.root)
    inp = h.add_node(Input((probe,)), f)
    out = h.add_node(Output((probe,)), f)
    h.connect(out_port(inp, 0), in_port(out, 0), Value(probe))
    doc = json.loads(encode(h))
    ops = [serial._term_key(n["op"]) for n in doc["nodes"][1:]]  # all but the module
    kinds = [serial._term_key((e["kind"], e.get("type"))) for e in doc["edges"]]
    again = from_document(doc)
    assert all(k in serial._OPS for k in ops) and all(k in serial._KINDS for k in kinds)
    del h, f, inp, out, again
    gc.collect()
    assert not any(k in serial._OPS for k in ops)
    assert not any(k in serial._KINDS for k in kinds)


def test_concurrent_decoding_yields_the_same_bytes(registry):
    import sys
    import threading

    texts = [encode(h) for h in all_programs(registry).values()]
    expected = [encode(decode(t)) for t in texts]
    results: list[list[str]] = []
    start = threading.Barrier(8)

    def decode_all():
        start.wait()
        # each round's graphs die before the next, so terms are read afresh
        results.append([encode(decode(t)) for _ in range(20) for t in texts])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert all(r == expected * 20 for r in results)
