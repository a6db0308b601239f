"""Validation: fixtures, every diagnostic code, determinism, locality."""

import numpy as np
import pytest

from hugr_ir import Hugr, Value, ext_op, in_port, out_port
from hugr_ir.build import new_module
from hugr_ir.ops import (
    BasicBlock,
    Case,
    Cfg,
    Conditional,
    Const,
    ExitBlock,
    ExtensionOp,
    FuncDef,
    Input,
    LoadConst,
    Output,
    Static,
    TailLoop,
)
from hugr_ir.programs import all_programs, fanout_rejected
from hugr_ir.types import BOOL, F64, QUBIT, PolySignature, Signature
from hugr_ir.validate import Code, validate, validate_region

from generators import main_region, random_circuit, inject_fault, FAULT_KINDS


VALID_PROGRAMS = ["rotation_pipeline", "measurement_branch", "external_call",
                  "rus_loop", "rus_cfg"]


def test_valid_programs_have_no_diagnostics(registry):
    programs = all_programs(registry)
    for name in VALID_PROGRAMS:
        assert validate(programs[name], registry) == [], name


def test_fanout_yields_exactly_one_linearity_violation(registry):
    diags = validate(fanout_rejected(registry), registry)
    assert len(diags) == 1
    assert diags[0].code is Code.LinearityViolation


def test_diagnostic_rendering_format(registry):
    diags = validate(fanout_rejected(registry), registry)
    line = diags[0].render()
    assert line.startswith(f"LinearityViolation node={diags[0].node} port=out0: ")


def test_conditional_case_arity(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((BOOL, F64), (F64,)))
    flag, x = b.inputs()
    outs, cases = b.conditional(flag, (x,), (F64,))
    for c in cases:
        c.set_outputs(*c.inputs())
    b.set_outputs(outs[0])
    h = m.hugr
    cond = next(n for n in h.preorder() if isinstance(h.op(n), Conditional))
    h.add_node(Case(), cond)  # a third case for a two-tag discriminant
    extra = h.children(cond)[-1]
    h.add_node(Input((F64,)), extra)
    h.add_node(Output((F64,)), extra)
    codes = {d.code for d in validate(h, registry)}
    assert Code.CaseArityMismatch in codes


class TestEveryCodeReachable:
    def _function(self, registry, inputs=(F64,), outputs=(F64,)):
        m = new_module(registry)
        b = m.define_function("main", Signature(inputs, outputs))
        return m.hugr, b

    def test_non_tree_hierarchy(self, registry):
        h = Hugr(FuncDef("main", PolySignature(0, Signature())))
        codes = {d.code for d in validate(h, registry)}
        assert Code.NonTreeHierarchy in codes

    def test_bad_child_kind(self, registry):
        h = Hugr()
        h.add_node(ext_op(registry, "stdlib.classical", "Add"), h.root)
        codes = {d.code for d in validate(h, registry)}
        assert Code.BadChildKind in codes

    def test_missing_io(self, registry):
        h = Hugr()
        h.add_node(FuncDef("main", PolySignature(0, Signature())), h.root)
        codes = {d.code for d in validate(h, registry)}
        assert Code.MissingIO in codes

    def test_edge_type_mismatch(self, registry):
        h, b = self._function(registry, (F64, QUBIT), (QUBIT,))
        x, q = b.inputs()
        rz = h.add_node(ext_op(registry, "stdlib.quantum", "Rz"), b.container)
        h.connect(q, in_port(rz, 0), Value(QUBIT))
        h.connect(x, in_port(rz, 1), Value(F64))
        b.set_outputs(out_port(rz, 0))
        assert validate(h, registry) == []
        angle_edge = h.edges_at(in_port(rz, 1))[0]
        h.disconnect(angle_edge)
        h.connect(q, in_port(rz, 1), Value(QUBIT))  # qubit into the f64 port
        codes = {d.code for d in validate(h, registry)}
        assert Code.EdgeTypeMismatch in codes

    def test_linearity_violation(self, registry):
        codes = {d.code for d in validate(fanout_rejected(registry), registry)}
        assert codes == {Code.LinearityViolation}

    def test_input_port_unwired(self, registry):
        h, b = self._function(registry)
        (x,) = b.inputs()
        add = h.add_node(ext_op(registry, "stdlib.classical", "Add"), b.container)
        h.connect(x, in_port(add, 0), Value(F64))
        b.set_outputs(out_port(add, 0))
        codes = {d.code for d in validate(h, registry)}
        assert Code.InputPortUnwired in codes

    def test_dataflow_cycle(self, registry):
        h, b = self._function(registry)
        (x,) = b.inputs()
        a1 = h.add_node(ext_op(registry, "stdlib.classical", "Add"), b.container)
        a2 = h.add_node(ext_op(registry, "stdlib.classical", "Add"), b.container)
        h.connect(x, in_port(a1, 0), Value(F64))
        h.connect(out_port(a2, 0), in_port(a1, 1), Value(F64))
        h.connect(x, in_port(a2, 0), Value(F64))
        h.connect(out_port(a1, 0), in_port(a2, 1), Value(F64))
        out_node = h.children(b.container)[1]
        h.connect(out_port(a1, 0), in_port(out_node, 0), Value(F64))
        codes = {d.code for d in validate(h, registry)}
        assert Code.DataflowCycle in codes

    def test_case_arity_and_signature(self, registry):
        h, b = self._function(registry, (BOOL, F64), (F64,))
        flag, x = b.inputs()
        cond = h.add_node(Conditional(2, (F64,), (F64,)), b.container)
        h.connect(flag, in_port(cond, 0), Value(BOOL))
        h.connect(x, in_port(cond, 1), Value(F64))
        b.set_outputs(out_port(cond, 0))
        good = h.add_node(Case(), cond)
        gi = h.add_node(Input((F64,)), good)
        go = h.add_node(Output((F64,)), good)
        h.connect(out_port(gi, 0), in_port(go, 0), Value(F64))
        bad = h.add_node(Case(), cond)
        h.add_node(Input((BOOL,)), bad)  # wrong row
        bo = h.add_node(Output((F64,)), bad)
        cn = h.add_node(Const(0.0, F64), bad)
        load = h.add_node(LoadConst(F64), bad)
        h.connect(out_port(cn, 0), in_port(load, 0), Static(F64))
        h.connect(out_port(load, 0), in_port(bo, 0), Value(F64))
        codes = {d.code for d in validate(h, registry)}
        assert Code.CaseSignatureMismatch in codes

    def test_loop_signature_mismatch(self, registry):
        h, b = self._function(registry)
        (x,) = b.inputs()
        loop = h.add_node(TailLoop((F64,)), b.container)
        h.connect(x, in_port(loop, 0), Value(F64))
        b.set_outputs(out_port(loop, 0))
        li = h.add_node(Input((F64,)), loop)
        lo = h.add_node(Output((F64,)), loop)  # missing the leading bool
        h.connect(out_port(li, 0), in_port(lo, 0), Value(F64))
        codes = {d.code for d in validate(h, registry)}
        assert Code.LoopSignatureMismatch in codes

    def test_cfg_shape_error(self, registry):
        h, b = self._function(registry, (QUBIT,), (QUBIT,))
        (q,) = b.inputs()
        cfg = h.add_node(Cfg(Signature((QUBIT,), (QUBIT,))), b.container)
        h.connect(q, in_port(cfg, 0), Value(QUBIT))
        b.set_outputs(out_port(cfg, 0))
        # no exit block at all
        blk = h.add_node(BasicBlock((QUBIT,), 1), cfg)
        bi = h.add_node(Input((QUBIT,)), blk)
        bo = h.add_node(Output((BOOL, QUBIT)), blk)
        codes = {d.code for d in validate(h, registry)}
        assert Code.CfgShapeError in codes

    def test_static_scope_error(self, registry):
        h, b = self._function(registry, (BOOL,), (F64,))
        (flag,) = b.inputs()
        outs, (case0, case1) = b.conditional(flag, (), (F64,))
        const = h.add_node(Const(1.5, F64), case0.container)
        load = h.add_node(LoadConst(F64), case1.container)
        h.connect(out_port(const, 0), in_port(load, 0), Static(F64))
        case0.set_outputs(case0.const(0.0, F64))
        case1.set_outputs(out_port(load, 0))
        b.set_outputs(outs[0])
        codes = {d.code for d in validate(h, registry)}
        assert Code.StaticScopeError in codes

    def test_unknown_op(self, registry):
        h, b = self._function(registry, (QUBIT,), (QUBIT,))
        (q,) = b.inputs()
        mystery = ExtensionOp("vendor.secret", "gadget", (),
                              Signature((QUBIT,), (QUBIT,)))
        (q2,) = b.add(mystery, q)
        b.set_outputs(q2)
        codes = {d.code for d in validate(h, registry)}
        assert Code.UnknownOp in codes


def test_validate_is_deterministic(registry):
    h = fanout_rejected(registry)
    assert [d.render() for d in validate(h, registry)] == \
        [d.render() for d in validate(h, registry)]


def test_diagnostics_sorted_by_node_then_port(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
    q0, q1 = b.inputs()
    # two dangling allocations and an unwired output row
    h = m.hugr
    h.add_node(ext_op(registry, "stdlib.quantum", "QAlloc"), b.container)
    h.add_node(ext_op(registry, "stdlib.quantum", "QAlloc"), b.container)
    diags = validate(h, registry)
    keys = [(d.node, d.port.offset if d.port else -1) for d in diags]
    assert keys == sorted(keys)


def test_validate_region_is_local(registry):
    from hugr_ir.programs import measurement_branch

    h = measurement_branch(registry)
    cond = next(n for n in h.preorder() if isinstance(h.op(n), Conditional))
    case_a, case_b = h.children(cond)
    # break case_b only: give its gate's qubit output a second consumer
    assert validate_region(h, case_a, registry) == []
    sink = h.add_node(ext_op(registry, "stdlib.quantum", "QFree"), case_b)
    gate = h.children(case_b)[2]
    h.connect(out_port(gate, 0), in_port(sink, 0), Value(QUBIT))
    assert validate_region(h, case_a, registry) == []
    assert validate_region(h, case_b, registry) != []


def test_region_cycle_detected_locally(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((F64,), (F64,)))
    (x,) = b.inputs()
    h = m.hugr
    a1 = h.add_node(ext_op(registry, "stdlib.classical", "Add"), b.container)
    h.connect(x, in_port(a1, 0), Value(F64))
    h.connect(out_port(a1, 0), in_port(a1, 1), Value(F64))  # self-cycle
    b.set_outputs(out_port(a1, 0))
    codes = {d.code for d in validate_region(h, b.container, registry)}
    assert Code.DataflowCycle in codes


def test_monotone_locality_under_rewrites(registry):
    """A rewrite confined to one region leaves sibling diagnostics unchanged."""
    from hugr_ir.rewrite import apply, find_matches
    from hugr_ir.rules import hh_cancel

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, BOOL), (QUBIT,)))
    q, flag = b.inputs()
    outs, (c0, c1) = b.conditional(flag, (q,), (QUBIT,))
    (hq,) = c0.q("H", *c0.inputs())
    (hq,) = c0.q("H", hq)
    c0.set_outputs(hq)
    c1.set_outputs(*c1.inputs())
    b.set_outputs(outs[0])
    h = m.hugr

    cond = next(n for n in h.preorder() if isinstance(h.op(n), Conditional))
    case0, case1 = h.children(cond)
    before_sibling = [d.render() for d in validate_region(h, case1, registry)]
    rule = hh_cancel(registry)
    (match,) = find_matches(rule.lhs, h, case0)
    apply(rule, match, h, registry)
    after_sibling = [d.render() for d in validate_region(h, case1, registry)]
    assert before_sibling == after_sibling


def test_discarded_copyable_output_is_a_lint_not_an_error(registry):
    from hugr_ir.validate import discarded_value_lints

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    q, _flag = b.q("Measure", q)  # the bool is dropped
    b.set_outputs(q)
    h = m.hugr
    assert validate(h, registry) == []
    lints = discarded_value_lints(h, registry)
    assert len(lints) == 1 and "bool" in lints[0]


def test_fault_injection_sample(registry):
    rng = np.random.default_rng(0)
    for i, kind in enumerate(FAULT_KINDS * 10):
        h = random_circuit(rng, n_qubits=3, n_gates=12, registry=registry,
                           p_measure=0.1, ensure_rz_and_measure=True)
        assert validate(h, registry) == []
        expected = inject_fault(h, kind, rng, registry)
        codes = {d.code.value for d in validate(h, registry)}
        assert expected in codes, (kind, codes)


# ── hierarchy faults: reported, never raised ───────────────────────

def test_a_dangling_child_is_reported(registry):
    from oracles import naive_validate

    h = all_programs(registry)["rotation_pipeline"]
    region = main_region(h)
    gate = h.children(region)[2]
    del h._nodes[gate]  # its id stays in the children list
    diags = validate(h, registry)
    assert [d.render() for d in diags] == \
        [f"NonTreeHierarchy node={region} port=-: child {gate} does not exist"]
    with pytest.raises(KeyError):  # the old walk followed the dangling id
        naive_validate(h, registry)


def test_an_orphan_node_is_reported(registry):
    from hugr_ir.graph import Node
    from oracles import naive_validate

    h = all_programs(registry)["rotation_pipeline"]
    orphan = h.next_id
    h._nodes[orphan] = Node(orphan, main_region(h), Case())  # in no children list
    diags = validate(h, registry)
    assert [d.render() for d in diags] == \
        [f"NonTreeHierarchy node={orphan} port=-: node not reachable from the root"]
    assert naive_validate(h, registry) == []  # the old check looked at reachable nodes only


def test_a_block_with_no_successors_is_a_diagnostic(registry):
    import json

    from hugr_ir import decode, encode
    from hugr_ir.programs import rus_cfg

    doc = json.loads(encode(rus_cfg(registry)))
    rec = next(n for n in doc["nodes"] if n["op"]["kind"] == "BasicBlock")
    rec["op"]["successors"] = 0
    doc["edges"] = [e for e in doc["edges"]
                    if e["src"][0] != rec["id"] or e["kind"] != "ControlFlow"]
    h = decode(json.dumps(doc))
    assert "block body must emit enum(0) first" in \
        [d.message for d in validate(h, registry) if d.code is Code.CfgShapeError]


def test_a_control_edge_into_a_non_block_is_a_diagnostic(registry):
    import json

    from hugr_ir import decode, encode
    from hugr_ir.programs import rus_cfg

    doc = json.loads(encode(rus_cfg(registry)))
    cfg = next(n for n in doc["nodes"] if n["op"]["kind"] == "CFG")
    qubit = [{"ext": "stdlib.quantum", "name": "qubit"}]
    gate = {"kind": "ExtensionOp", "ext": "stdlib.quantum", "name": "H",
            "signature": {"inputs": qubit, "outputs": qubit}}
    doc["nodes"].append({"id": 999, "parent": cfg["id"], "op": gate})
    edge = next(e for e in doc["edges"] if e["kind"] == "ControlFlow")
    edge["dst"] = [999, 0]
    h = decode(json.dumps(doc))
    messages = {(d.code, d.message) for d in validate(h, registry)}
    assert (Code.CfgShapeError, "control edges must target a sibling block") in messages
    assert (Code.BadChildKind,
            "CFGs may only contain basic blocks and one exit block") in messages
