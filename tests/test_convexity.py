"""Verify-once application, position-bounded convexity and its repair."""

import pytest

from hugr_ir import encode
from hugr_ir import rewrite
from hugr_ir.build import new_module
from hugr_ir.ops import FuncDecl
from hugr_ir.rewrite import (
    Match,
    MatchStats,
    Pattern,
    RewriteRule,
    StaleMatch,
    WouldCreateCycle,
    _is_convex,
    apply,
    find_matches,
    saturate,
)
from hugr_ir.rules import _passthrough, hh_cancel
from hugr_ir.types import QUBIT, PolySignature, Signature

from generators import chain_circuit, main_region
from oracles import naive_saturate

Q2 = (QUBIT,) * 2
Q3 = (QUBIT,) * 3


def _assert_same_as_naive(rules, h, registry, budget=10_000):
    reference = h.copy()
    _, expected = naive_saturate(rules, reference, budget, registry)
    _, applied = saturate(rules, h, budget, registry)
    assert applied == expected
    assert encode(h) == encode(reference)
    return applied


@pytest.fixture
def order_builds(monkeypatch):
    """Records the graphs whose region orders saturate builds: the host's for
    its positions, and each applied rule's rhs for the order of added nodes."""
    calls = []

    def counted(h, region):
        calls.append(h)
        return order(h, region)

    order = rewrite.region_order
    monkeypatch.setattr(rewrite, "region_order", counted)
    return calls


def _cx_then_cx(registry):
    """CX(0,1);CX(1,2): the first target is the second control."""
    m = new_module(registry)
    b = m.define_function("fragment", Signature(Q3, Q3))
    x, y, z = b.inputs()
    c1, t1 = b.q("CX", x, y)
    anchor = c1.node
    c2, t2 = b.q("CX", t1, z)
    b.set_outputs(c1, c2, t2)
    return Pattern(m.hugr, anchor)


def _detour_host(registry):
    """CX(0,1);CX(1,2) on wires 0-2, where the consumer C of output 0 is
    placed before the source S of input 2. A CX A on wires 2-3 feeds S and,
    through its target, C. So {A, C} is convex until the rhs routes input 2
    to output 0, which makes A -> S -> ... -> C a path that leaves it and
    comes back; with S still placed after C, a walk bounded by C skips it.
    """
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,) * 4, (QUBIT,) * 4))
    q0, q1, q2, q3 = b.inputs()
    q2, q3 = b.q("CX", q2, q3)  # A
    q0, q1 = b.q("CX", q0, q1)
    q0, q3 = b.q("CX", q0, q3)  # C: lower id than S, so placed before it
    (q2,) = b.q("H", q2)  # S
    q1, q2 = b.q("CX", q1, q2)
    b.set_outputs(q0, q1, q2, q3)
    return m.hugr


def _target_feeds_target(registry):
    """CX;CX where the first target feeds the second target, removed."""
    m = new_module(registry)
    b = m.define_function("fragment", Signature(Q3, Q3))
    x, y, z = b.inputs()
    c1, t1 = b.q("CX", x, y)
    anchor = c1.node
    c2, t2 = b.q("CX", z, t1)
    b.set_outputs(c1, c2, t2)
    return RewriteRule(Pattern(m.hugr, anchor), _passthrough(registry, Q3), "tt_drop")


class TestRecheck:
    def test_lost_convexity_is_a_cycle(self, registry):
        m = new_module(registry)
        b = m.define_function("fragment", Signature(Q3, Q3))
        x, y, z = b.inputs()
        c1, t1 = b.q("CX", x, y)
        anchor = c1.node
        c2, t2 = b.q("CX", c1, z)
        b.set_outputs(c2, t1, t2)
        rule = RewriteRule(Pattern(m.hugr, anchor), _passthrough(registry, Q3), "cx_pair")

        m = new_module(registry)
        b = m.define_function("main", Signature(Q3, Q3))
        q0, q1, q2 = b.inputs()
        q0, q1 = b.q("CX", q0, q1)
        (mid,) = b.q("H", q1)
        (side,) = b.q("X", q2)
        q0, q2 = b.q("CX", q0, side)
        b.set_outputs(q0, mid, q2)
        h = m.hugr
        (match,) = find_matches(rule.lhs, h, main_region(h))

        # route the H between the two CX gates: its path leaves the image and comes back
        into_cx, into_output = h.edges_at(side)[0], h.edges_at(mid)[0]
        h.disconnect(into_cx)
        h.disconnect(into_output)
        h.connect(mid, into_cx.dst, into_cx.kind)
        h.connect(side, into_output.dst, into_output.kind)
        assert into_cx.dst.node in match.image()
        before = encode(h)
        with pytest.raises(WouldCreateCycle):
            apply(rule, match, h, registry)
        assert encode(h) == before

    def test_a_copy_at_the_same_version_is_rechecked(self, registry):
        h = chain_circuit(["H", "H", "X"], registry)
        rule = hh_cancel(registry)
        (match,) = find_matches(rule.lhs, h, main_region(h))
        version = h.version
        h.remove_node(match.anchor_host())
        c = h.copy()
        pad = FuncDecl("pad", PolySignature(0, Signature()))
        while c.version < version:
            c.add_node(pad, c.root)
        assert c.version == version  # the stamp's version alone would let it through
        with pytest.raises(StaleMatch):
            apply(rule, match, c, registry)

    def test_a_verified_match_is_not_rechecked(self, registry, monkeypatch):
        checks = []
        recheck = rewrite._recheck
        monkeypatch.setattr(rewrite, "_recheck", lambda *a: (checks.append(a), recheck(*a)))
        rule = hh_cancel(registry)
        h = chain_circuit(["H", "H", "X", "H", "H"], registry)
        first, second = find_matches(rule.lhs, h, main_region(h))
        apply(rule, first, h, registry)
        assert checks == []
        # built by hand, as an oracle does: no stamp, so checked in full
        apply(rule, Match(second.pattern, second.region, second.mapping,
                          second.boundary_sources), h, registry)
        assert len(checks) == 1


class TestPositionRepair:
    def test_reordering_rhs_leaves_no_gap(self, registry, order_builds):
        m = new_module(registry)
        b = m.define_function("fragment", Signature(Q3, Q3))
        x, y, z = b.inputs()
        a, c = b.q("CX", y, z)
        d, e = b.q("CX", x, a)
        b.set_outputs(d, e, c)
        rule = RewriteRule(_cx_then_cx(registry), m.hugr, "cx_reorder")
        h = _detour_host(registry)
        applied = _assert_same_as_naive([rule, _target_feeds_target(registry)], h, registry)
        assert [name for name, _ in applied] == ["cx_reorder"]
        # dropped after the rewrite, rebuilt for the next check
        assert order_builds.count(h) == 2

    def test_one_gap_used_up(self, registry, order_builds):
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        anchor = b.q("T", q)
        b.set_outputs(*anchor)
        lhs = Pattern(m.hugr, anchor[0].node)
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        b.set_outputs(*b.q("T", *b.q("H", q)))
        rule = RewriteRule(lhs, m.hugr, "h_before_t")
        h = chain_circuit(["X", "T", "X"], registry)
        # each application puts two nodes into the gap left by the last one
        applied = _assert_same_as_naive([rule], h, registry, budget=150)
        assert len(applied) == 150
        assert order_builds.count(h) >= 2

    def test_pass_through_rhs(self, registry, order_builds):
        m = new_module(registry)
        b = m.define_function("fragment", Signature(Q3, Q3))
        x, y, z = b.inputs()
        b.set_outputs(z, x, y)  # input 2 to output 0: backwards on the host below
        rule = RewriteRule(_cx_then_cx(registry), m.hugr, "cx_rotate")
        h = _detour_host(registry)
        applied = _assert_same_as_naive([rule, _target_feeds_target(registry)], h, registry)
        assert [name for name, _ in applied] == ["cx_rotate"]
        assert order_builds.count(h) == 2

    def test_added_nodes_follow_the_rhs_order(self, registry, order_builds):
        """CX(x,y) with a Z on its control becomes H(x);CX(H,y). Afterwards the
        upstream CX A and the new CX form a tt_drop image that is not convex,
        A -> H -> CX, which a walk sees only if H is placed before the new CX."""
        m = new_module(registry)
        b = m.define_function("fragment", Signature(Q2, Q2))
        x, y = b.inputs()
        c, t = b.q("CX", x, y)
        anchor = c.node
        (c,) = b.q("Z", c)
        b.set_outputs(c, t)
        lhs = Pattern(m.hugr, anchor)
        m = new_module(registry)
        b = m.define_function("fragment", Signature(Q2, Q2))
        x, y = b.inputs()
        b.set_outputs(*b.q("CX", *b.q("H", x), y))
        rule = RewriteRule(lhs, m.hugr, "cx_z_to_h_cx")

        m = new_module(registry)
        b = m.define_function("main", Signature(Q3, Q3))
        q0, q1, q2 = b.inputs()
        q0, q1 = b.q("CX", q0, q1)  # A
        q0, q1 = b.q("CX", q0, q1)
        (q0,) = b.q("Z", q0)
        b.set_outputs(q0, q1, q2)
        h = m.hugr
        applied = _assert_same_as_naive([rule, _target_feeds_target(registry)], h, registry)
        assert [name for name, _ in applied] == ["cx_z_to_h_cx"]
        assert order_builds.count(h) == 1  # placed, not rebuilt

    def test_pass_through_along_the_order(self, registry, order_builds):
        h = chain_circuit(["X", "H", "H", "T", "H", "H", "X"], registry)
        _assert_same_as_naive([hh_cancel(registry)], h, registry)
        assert order_builds.count(h) == 1


class TestCounters:
    @staticmethod
    def _per_application(registry, gates):
        pairs = 25
        h = chain_circuit(["H"] * (2 * pairs) + ["T"] * (gates - 2 * pairs), registry)
        stats = MatchStats()
        _, applied = saturate([hh_cancel(registry)], h, 10_000, registry, stats)
        assert len(applied) == pairs
        return stats.convexity_checks / pairs, stats.convexity_visits / pairs

    def test_visits_per_application_flat_in_wire_length(self, registry):
        small = self._per_application(registry, 1000)
        large = self._per_application(registry, 16_000)
        assert small[0] == large[0] == 1  # one check per application, none in apply
        assert large[1] <= small[1]

    def test_a_walk_without_positions_reaches_downstream(self, registry):
        h = chain_circuit(["H", "H", "T", "T", "T"], registry)
        region = main_region(h)
        (match,) = find_matches(hh_cancel(registry).lhs, h, region)
        stats = MatchStats()
        assert _is_convex(h, region, match.image(), None, stats)
        assert (stats.convexity_checks, stats.convexity_visits) == (1, 4)  # 3 T and the Output
