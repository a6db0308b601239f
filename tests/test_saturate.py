"""The worklist saturation against the full-rescan oracle, and its incrementality."""

import numpy as np

from hugr_ir import encode, validate
from hugr_ir.build import new_module
from hugr_ir.graph import in_port
from hugr_ir.rewrite import MatchStats, Pattern, RewriteRule, find_matches, saturate
from hugr_ir.rules import _passthrough, cx_cx_cancel, hh_cancel, standard_rules, xx_cancel
from hugr_ir.types import BOOL, F64, QUBIT, Signature

from generators import main_region, perf_setup, random_circuit
from oracles import naive_saturate


def _assert_same_as_naive(rules, h, registry, budget=10_000):
    reference = h.copy()
    _, expected = naive_saturate(rules, reference, budget, registry)
    _, applied = saturate(rules, h, budget, registry)
    assert applied == expected
    assert encode(h) == encode(reference)
    return applied


def _nested_regions(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, BOOL), (QUBIT,)))
    q, flag = b.inputs()
    outs, (c0, c1) = b.conditional(flag, (q,), (QUBIT,))
    (cq,) = c0.q("H", *c0.inputs())
    (cq,) = c0.q("H", cq)
    c0.set_outputs(cq)
    (dq,) = c1.q("X", *c1.inputs())
    (dq,) = c1.q("X", dq)
    c1.set_outputs(dq)
    b.set_outputs(outs[0])
    return m.hugr


def _far_convexity(registry):
    """(rules, host): rule P becomes convex only after a rewrite ~30 hops away.

    P matches CX1 on (q0, q1) feeding CX2 on (q0, q2) through q0 only. In the
    host the path CX1 -> T^30 -> CXa -> CXb -> T^30 -> CX2 leaves and re-enters
    the image until cx_cx_cancel removes CXa.CXb.
    """
    m = new_module(registry)
    b = m.define_function("fragment", Signature((QUBIT,) * 3, (QUBIT,) * 3))
    x, y, z = b.inputs()
    c1, t1 = b.q("CX", x, y)
    anchor = c1.node
    c2, t2 = b.q("CX", c1, z)
    b.set_outputs(c2, t1, t2)
    p = RewriteRule(Pattern(m.hugr, anchor), _passthrough(registry, (QUBIT,) * 3),
                    "far_convex")

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,) * 3, (QUBIT,) * 3))
    q0, q1, q2 = b.inputs()

    def ts(q, k=30):
        for _ in range(k):
            (q,) = b.q("T", q)
        return q

    q2 = ts(q2)
    q0, q1 = b.q("CX", q0, q1)
    q1 = ts(q1)
    q1, q2 = b.q("CX", q1, q2)
    q1, q2 = b.q("CX", q1, q2)
    q1, q2 = ts(q1), ts(q2)
    q0, q2 = b.q("CX", q0, q2)
    b.set_outputs(q0, q1, q2)
    return [p, cx_cx_cancel(registry)], m.hugr


def _shared_angle(registry):
    """(rules, host): Rz;Rz on one angle source matches once Neg;Neg is gone.

    The rewrite touches the angle's source and the second Rz; the anchor, the
    first Rz, is one hop from both.
    """
    m = new_module(registry)
    b = m.define_function("fragment", Signature((QUBIT, F64), (QUBIT,)))
    q, a = b.inputs()
    first = b.q("Rz", q, a)
    anchor = first[0].node
    (q,) = b.q("Rz", *first, a)
    b.set_outputs(q)
    lhs = Pattern(m.hugr, anchor)
    m = new_module(registry)
    b = m.define_function("fragment", Signature((QUBIT, F64), (QUBIT,)))
    q, a = b.inputs()
    (q,) = b.q("Rz", q, *b.cl("Add", a, a))
    b.set_outputs(q)
    shared = RewriteRule(lhs, m.hugr, "shared_angle")

    m = new_module(registry)
    b = m.define_function("fragment", Signature((F64,), (F64,)))
    (a,) = b.inputs()
    first = b.cl("Neg", a)
    anchor = first[0].node
    b.set_outputs(*b.cl("Neg", *first))
    neg_neg = RewriteRule(Pattern(m.hugr, anchor), _passthrough(registry, (F64,)), "neg_neg")

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    angle = b.const(0.3, F64)
    (q,) = b.q("Rz", q, angle)
    (q,) = b.q("Rz", q, *b.cl("Neg", *b.cl("Neg", angle)))
    b.set_outputs(q)
    return [shared, neg_neg], m.hugr


def _chain(registry, gates):
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    for g in gates:
        (q,) = b.ext("perf.gates", f"g{g:02d}", q)
    b.set_outputs(q)
    return m.hugr


def _hh_beside_a_value_cycle(registry):
    """H·H, and in the same region an Add fed back through a Neg: a value
    cycle that leaves the region without a topological order."""
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, F64), (QUBIT,)))
    q, a = b.inputs()
    (q,) = b.q("H", q)
    (q,) = b.q("H", q)
    (s,) = b.cl("Add", a, a)
    (n,) = b.cl("Neg", s)
    (edge,) = m.hugr.edges_at(in_port(s.node, 1))
    m.hugr.disconnect(edge)
    b.connect(n, in_port(s.node, 1))
    b.set_outputs(q)
    return m.hugr


class TestAgainstFullRescan:
    def test_perf_setup(self):
        reg, rules, h = perf_setup(n_rules=100, n_gates=1000)
        assert _assert_same_as_naive(rules, h, reg)

    def test_random_circuits(self, registry):
        rng = np.random.default_rng(2402)
        rules = standard_rules(registry)
        fired = 0
        for i in range(200):
            h = random_circuit(rng, n_qubits=2 + i % 2, n_gates=40, registry=registry)
            fired += len(_assert_same_as_naive(rules, h, registry))
        assert fired > 0

    def test_random_circuits_under_budget(self, registry):
        rng = np.random.default_rng(5)
        rules = standard_rules(registry)
        for budget in range(4):
            h = random_circuit(rng, n_qubits=2, n_gates=40, registry=registry)
            _assert_same_as_naive(rules, h, registry, budget)

    def test_nested_regions(self, registry):
        h = _nested_regions(registry)
        applied = _assert_same_as_naive([hh_cancel(registry), xx_cancel(registry)], h, registry)
        assert sorted(name for name, _ in applied) == ["hh_cancel", "xx_cancel"]

    def test_far_convexity(self, registry):
        rules, h = _far_convexity(registry)
        applied = _assert_same_as_naive(rules, h, registry)
        assert [name for name, _ in applied] == ["cxcx_cancel", "far_convex"]
        assert validate(h, registry) == []

    def test_region_with_a_value_cycle(self, registry):
        # convexity walks without positions where the region has no order
        h = _hh_beside_a_value_cycle(registry)
        applied = _assert_same_as_naive(standard_rules(registry), h, registry)
        assert applied == [("hh_cancel", 4)]

    def test_anchor_one_hop_from_the_rewrite(self, registry):
        rules, h = _shared_angle(registry)
        applied = _assert_same_as_naive(rules, h, registry)
        assert [name for name, _ in applied] == ["neg_neg", "shared_angle"]
        assert validate(h, registry) == []


def test_anchors_tried_per_application_flat_in_chain_length():
    reg, rules, _ = perf_setup(n_ops=8, n_rules=28, n_gates=8, n_qubits=1)
    per_application = []
    for length in (1000, 4000):
        gates = [i * 8 // length for i in range(length)]
        # swap the two gates at each block boundary: one inversion each
        for k in range(1, 8):
            at = k * length // 8
            gates[at - 1], gates[at] = gates[at], gates[at - 1]
        h = _chain(reg, gates)
        initial = MatchStats()
        for rule in rules:
            find_matches(rule.lhs, h, main_region(h), initial)
        stats = MatchStats()
        _, applied = saturate(rules, h, 10_000, reg, stats)
        assert len(applied) == 7
        per_application.append((stats.anchors_tried - initial.anchors_tried) / len(applied))
    small, large = per_application
    assert large / small < 1.5
