"""Pattern matching and rule application, cross-checked against a naive oracle."""

import json

import numpy as np
import pytest

from hugr_ir import (
    Cfg,
    Interpreter,
    Scripted,
    Value,
    decode,
    encode,
    ext_op,
    in_port,
    out_port,
    state_fidelity,
    stdlib,
    unitary_fidelity,
    unitary_of,
    validate,
)
from hugr_ir.build import ModuleBuilder, new_module, splice_region
from hugr_ir.rewrite import (
    MatchStats,
    Pattern,
    RewriteError,
    RewriteRule,
    StaleMatch,
    ValidationFailed,
    apply,
    find_matches,
    saturate,
    undo,
    wildcard,
)
from hugr_ir.rules import cx_cx_cancel, hh_cancel, rz_merge, standard_rules, xx_cancel
from hugr_ir.serial import DecodeError, decode_rule
from hugr_ir.types import F64, QUBIT, Signature

from generators import (
    PATTERN_FAULTS,
    REPLACEMENT_FAULTS,
    chain_circuit,
    hierarchy_faults,
    main_region,
    malformed_rule,
    random_circuit,
    stock_rule_circuit,
)
from oracles import naive_find_matches


def _swap_idiom(registry):
    """Three alternating CX gates computing a swap."""
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
    a, c = b.inputs()
    a, c = b.q("CX", a, c)
    c, a = b.q("CX", c, a)
    a, c = b.q("CX", a, c)
    b.set_outputs(a, c)
    return m.hugr


def _crossed_cx_pattern(registry):
    """CX followed by CX with the qubit roles exchanged (control becomes target)."""
    m = new_module(registry)
    b = m.define_function("fragment", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
    x, y = b.inputs()
    c1, t1 = b.q("CX", x, y)
    anchor = c1.node
    c2, t2 = b.q("CX", t1, c1)
    b.set_outputs(c2, t2)
    return Pattern(m.hugr, anchor)


def _matches_as_sets(matches):
    return {frozenset(m.mapping.items()) for m in matches}


class TestFindMatches:
    def test_hh_on_hhx(self, registry):
        h = chain_circuit(["H", "H", "X"], registry)
        ms = find_matches(hh_cancel(registry).lhs, h, main_region(h))
        assert len(ms) == 1
        assert _matches_as_sets(ms) == naive_find_matches(
            hh_cancel(registry).lhs, h, main_region(h))

    def test_overlapping_rotation_pairs(self, registry):
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT, F64, F64, F64), (QUBIT,)))
        q, a1, a2, a3 = b.inputs()
        (q,) = b.q("Rz", q, a1)
        (q,) = b.q("Rz", q, a2)
        (q,) = b.q("Rz", q, a3)
        b.set_outputs(q)
        h = m.hugr
        pattern = rz_merge(registry).lhs
        ms = find_matches(pattern, h, main_region(h))
        assert len(ms) == 2
        assert _matches_as_sets(ms) == naive_find_matches(pattern, h, main_region(h))

    def test_cx_pairs_on_the_swap_idiom(self, registry):
        h = _swap_idiom(registry)
        region = main_region(h)
        crossed = _crossed_cx_pattern(registry)
        ms = find_matches(crossed, h, region)
        oracle = naive_find_matches(crossed, h, region)
        assert _matches_as_sets(ms) == oracle
        assert len(ms) == 2
        # the straight (cancellation) pattern must not fire on a swap
        straight = cx_cx_cancel(registry).lhs
        assert find_matches(straight, h, region) == []
        assert naive_find_matches(straight, h, region) == set()

    def test_matches_ordered_by_anchor(self, registry):
        h = chain_circuit(["H", "H", "H", "H"], registry)
        ms = find_matches(hh_cancel(registry).lhs, h, main_region(h))
        anchors = [m.anchor_host() for m in ms]
        assert anchors == sorted(anchors)
        assert len(ms) == 3  # overlapping pairs all reported

    def test_wildcard_matches_by_signature(self, registry):
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        first = b.q("H", q)
        anchor = first[0].node
        (q2,) = b.add(wildcard(Signature((QUBIT,), (QUBIT,))), *first)
        b.set_outputs(q2)
        pattern = Pattern(m.hugr, anchor)
        h = chain_circuit(["H", "T"], registry)
        ms = find_matches(pattern, h, main_region(h))
        assert len(ms) == 1
        h2 = chain_circuit(["H"], registry)
        assert find_matches(pattern, h2, main_region(h2)) == []

    def test_non_convex_embedding_rejected(self, registry):
        # pattern: CX -> CX via one wire; the other wire is a boundary detour
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT, QUBIT, QUBIT), (QUBIT, QUBIT, QUBIT)))
        x, y, z = b.inputs()
        c1, t1 = b.q("CX", x, y)
        anchor = c1.node
        c2, t2 = b.q("CX", c1, z)
        b.set_outputs(c2, t2, t1)
        pattern = Pattern(m.hugr, anchor)

        # host: the detour wire passes through an H between the two CX gates
        m2 = new_module(registry)
        hb = m2.define_function("main", Signature((QUBIT, QUBIT, QUBIT), (QUBIT, QUBIT, QUBIT)))
        hx, hy, hz = hb.inputs()
        hc1, ht1 = hb.q("CX", hx, hy)
        (mid,) = hb.q("H", ht1)  # leaves and re-enters the would-be image? no: detour on output wire
        hc2, ht2 = hb.q("CX", hc1, hz)
        hb.set_outputs(hc2, ht2, mid)
        host = m2.hugr
        region = main_region(host)
        assert _matches_as_sets(find_matches(pattern, host, region)) == \
            naive_find_matches(pattern, host, region)

        # now make the detour feed back into the second CX: non-convex
        m3 = new_module(registry)
        nb = m3.define_function("main", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
        nx, ny = nb.inputs()
        nc1, nt1 = nb.q("CX", nx, ny)
        (nmid,) = nb.q("H", nt1)
        nc2, nt2 = nb.q("CX", nc1, nmid)
        nb.set_outputs(nc2, nt2)
        host3 = m3.hugr
        region3 = main_region(host3)
        assert find_matches(pattern, host3, region3) == []
        assert naive_find_matches(pattern, host3, region3) == set()

    def test_linear_ports_extend_uniquely(self, registry):
        stats = MatchStats()
        h = chain_circuit(["H", "H", "X", "H", "H"], registry)
        find_matches(hh_cancel(registry).lhs, h, main_region(h), stats)
        assert stats.frontier_steps > 0
        assert stats.candidates_explored == stats.frontier_steps

    def test_oracle_agreement_on_random_circuits(self, registry):
        rng = np.random.default_rng(23)
        patterns = [r.lhs for r in standard_rules(registry)]
        for _ in range(25):
            h = random_circuit(rng, n_qubits=3, n_gates=6, registry=registry)
            region = main_region(h)
            if len(h.children(region)) > 12:
                continue
            for pattern in patterns:
                fast = _matches_as_sets(find_matches(pattern, h, region))
                assert fast == naive_find_matches(pattern, h, region)


class TestApply:
    def test_hh_to_wire_preserves_semantics(self, registry):
        h = chain_circuit(["H", "H"], registry)
        before = unitary_of(h, "main", registry)
        rule = hh_cancel(registry)
        (m,) = find_matches(rule.lhs, h, main_region(h))
        apply(rule, m, h, registry)
        assert validate(h, registry) == []
        after = unitary_of(h, "main", registry)
        assert unitary_fidelity(before, after) >= 1 - 1e-9
        assert len(h.children(main_region(h))) == 2  # only Input and Output left

    def test_rz_merge_preserves_semantics(self, registry):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = new_module(registry)
            b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
            (q,) = b.inputs()
            a1 = b.const(float(rng.uniform(-3, 3)), F64)
            a2 = b.const(float(rng.uniform(-3, 3)), F64)
            (q2,) = b.q("Rz", q, a1)
            (q3,) = b.q("Rz", q2, a2)
            b.set_outputs(q3)
            h = m.hugr
            before = unitary_of(h, "main", registry)
            rule = rz_merge(registry)
            (match,) = find_matches(rule.lhs, h, main_region(h))
            apply(rule, match, h, registry)
            assert validate(h, registry) == []
            after = unitary_of(h, "main", registry)
            assert unitary_fidelity(before, after) >= 1 - 1e-9

    def test_mismatched_boundary_rejected_at_construction(self, registry):
        lhs = hh_cancel(registry).lhs
        from hugr_ir.rules import _passthrough

        with pytest.raises(RewriteError):
            RewriteRule(lhs, _passthrough(registry, (QUBIT, QUBIT)), "bad")

    def test_malformed_replacement_rolls_back(self, registry):
        # rhs with a stray allocation dangling: validation fails, host unchanged
        rule = hh_cancel(registry)
        m = new_module(registry)
        rb = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
        (q,) = rb.inputs()
        rb.q("QAlloc")  # dangling linear output
        rb.set_outputs(q)
        bad = RewriteRule(rule.lhs, m.hugr, "bad_rhs")
        h = chain_circuit(["H", "H"], registry)
        reference = encode(h)
        (match,) = find_matches(bad.lhs, h, main_region(h))
        with pytest.raises(ValidationFailed):
            apply(bad, match, h, registry)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    def test_replacement_with_an_unwired_output_is_refused(self, registry):
        rule = hh_cancel(registry)
        m = new_module(registry)
        m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))  # Output left unwired
        bad = RewriteRule(rule.lhs, m.hugr, "unwired_rhs")
        h = chain_circuit(["H", "H"], registry)
        reference = encode(h)
        (match,) = find_matches(bad.lhs, h, main_region(h))
        with pytest.raises(ValidationFailed, match="leaves outputs \\[0\\] unwired"):
            apply(bad, match, h, registry)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    @pytest.mark.parametrize("case", PATTERN_FAULTS)
    def test_a_malformed_pattern_is_refused_when_made(self, registry, case):
        doc = json.loads(malformed_rule(case, registry))
        with pytest.raises(RewriteError) as made:
            Pattern(decode(json.dumps(doc["lhs"])), doc["anchor"])
        with pytest.raises(DecodeError) as read:
            decode_rule(json.dumps(doc))
        assert str(read.value) == f"invalid rule {doc['name']!r}: {made.value}"

    def test_a_pattern_in_two_pieces_is_refused(self, registry):
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
        q, r = b.inputs()
        (q,) = b.q("H", q)
        (r,) = b.q("H", r)
        b.set_outputs(q, r)
        with pytest.raises(RewriteError, match="must be connected"):
            Pattern(m.hugr, q.node)

    @pytest.mark.parametrize("case", REPLACEMENT_FAULTS)
    def test_a_malformed_replacement_is_refused_when_applied(self, registry, case):
        rule = decode_rule(malformed_rule(case, registry))
        h = stock_rule_circuit(registry)
        reference = encode(h)
        (match,) = find_matches(rule.lhs, h, main_region(h))
        with pytest.raises(ValidationFailed, match=f"rule {rule.name!r}: "):
            apply(rule, match, h, registry)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    def test_stale_match_detected(self, registry):
        h = chain_circuit(["H", "H"], registry)
        rule = hh_cancel(registry)
        (match,) = find_matches(rule.lhs, h, main_region(h))
        # mutate the host behind the match's back
        victim = match.anchor_host()
        removed = h.remove_node(victim)
        with pytest.raises(StaleMatch):
            apply(rule, match, h, registry)
        assert hierarchy_faults(h) == []
        h.restore(removed)
        apply(rule, match, h, registry)  # valid again after restoring

    def test_apply_undo_roundtrip(self, registry):
        h = chain_circuit(["H", "H", "X"], registry)
        reference = encode(h)
        rule = hh_cancel(registry)
        (match,) = find_matches(rule.lhs, h, main_region(h))
        delta = apply(rule, match, h, registry)
        assert encode(h) != reference
        undo(h, delta)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    def test_apply_preserves_validity_on_random_circuits(self, registry):
        rng = np.random.default_rng(12)
        rules = standard_rules(registry)
        for _ in range(15):
            h = random_circuit(rng, n_qubits=3, n_gates=20, registry=registry)
            assert validate(h, registry) == []
            for _ in range(8):
                hit = None
                for rule in rules:
                    for region in [main_region(h)]:
                        ms = find_matches(rule.lhs, h, region)
                        if ms:
                            hit = (rule, ms[0])
                            break
                    if hit:
                        break
                if hit is None:
                    break
                apply(hit[0], hit[1], h, registry)
                assert validate(h, registry) == []


class TestSaturate:
    def test_even_h_chain_to_bare_wire(self, registry):
        for k in (1, 2, 3):
            h = chain_circuit(["H"] * (2 * k), registry)
            _, applied = saturate([hh_cancel(registry)], h, 100, registry)
            assert len(applied) == k
            assert len(h.children(main_region(h))) == 2

    def test_budget_zero_is_identity(self, registry):
        h = chain_circuit(["H", "H"], registry)
        reference = encode(h)
        _, applied = saturate([hh_cancel(registry)], h, 0, registry)
        assert applied == []
        assert encode(h) == reference

    def test_no_fire_across_an_intermediate_gate(self, registry):
        # the rule set must not fire on H;Tdg;H: no adjacent H pair exists
        h = chain_circuit(["H", "Tdg", "H"], registry)
        reference = encode(h)
        _, applied = saturate([hh_cancel(registry), rz_merge(registry)], h, 100, registry)
        assert applied == []
        assert encode(h) == reference
        # brute-force adjacency check backs this up
        assert naive_find_matches(hh_cancel(registry).lhs, h, main_region(h)) == set()

    def test_deterministic_trace(self, registry):
        def one():
            rng = np.random.default_rng(77)
            h = random_circuit(rng, n_qubits=3, n_gates=25, registry=registry)
            _, applied = saturate(standard_rules(registry), h, 50, registry)
            return applied, encode(h)

        assert one() == one()

    def test_saturate_inside_nested_regions(self, registry):
        from hugr_ir.types import BOOL

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
        h = m.hugr
        _, applied = saturate([hh_cancel(registry), xx_cancel(registry)], h, 10, registry)
        assert sorted(name for name, _ in applied) == ["hh_cancel", "xx_cancel"]
        assert validate(h, registry) == []


def test_edges_reuse_the_kind_of_their_source_port(registry):
    # connect, splice and apply take the interned kind from the port row
    h = random_circuit(np.random.default_rng(41), n_qubits=3, n_gates=40, registry=registry,
                       p_rz=0.4)
    h, applied = saturate(standard_rules(registry), h, 100, registry)
    assert applied
    for e in h.all_edges():
        if isinstance(e.kind, Value):
            assert e.kind is h.port_kind(e.src)


def _cfg_fragment(registry, name: str):
    """A module whose function ``name`` holds a one-block CFG that applies X."""
    m = new_module(registry)
    b = m.define_function(name, Signature((QUBIT,), (QUBIT,)))
    (out,), cb = b.cfg(b.inputs(), (QUBIT,))
    blk, body = cb.add_block((QUBIT,), 1, (QUBIT,))
    body.set_outputs(body.tag_const(0, 1), *body.q("X", *body.inputs()))
    cb.link(blk, 0, cb.add_exit((QUBIT,)))
    b.set_outputs(out)
    return m.hugr


def _cfgs(h):
    return [n for n in h.preorder() if isinstance(h.op(n), Cfg)]


def _state_after(h, entry, registry):
    """The one-qubit state ``entry`` leaves from |0>; runs CFGs, which
    ``unitary_of`` refuses."""
    it = Interpreter(h, registry, Scripted([]))
    return it.state.statevector(it.run(entry, [it.state.alloc()]))


class TestSpliceNestedCfg:
    """A nested CFG is copied whole, its control-flow edges included."""

    def test_a_rule_whose_rhs_holds_a_cfg_applies(self, registry):
        rule = RewriteRule(hh_cancel(registry).lhs, _cfg_fragment(registry, "fragment"),
                           "hh_to_cfg")
        h = chain_circuit(["H", "T", "H", "H", "Tdg"], registry)
        want = _state_after(chain_circuit(["H", "T", "X", "Tdg"], registry), "main", registry)
        _, applied = saturate([rule], h, 10, registry)
        assert [name for name, _ in applied] == ["hh_to_cfg"]
        assert validate(h, registry) == []
        assert len(_cfgs(h)) == 1
        assert state_fidelity(_state_after(h, "main", registry), want) >= 1 - 1e-9

    @pytest.mark.parametrize("same_graph", [False, True])
    def test_a_function_body_holding_a_cfg_validates(self, registry, same_graph):
        src = _cfg_fragment(registry, "inner")
        dst = ModuleBuilder(src, registry) if same_graph else new_module(registry)
        b = dst.define_function("copy", Signature((QUBIT,), (QUBIT,)))
        b.set_outputs(*splice_region(b, src, src.children(src.root)[0], b.inputs()))
        assert validate(dst.hugr, registry) == []
        assert len(_cfgs(dst.hugr)) == (2 if same_graph else 1)
        want = _state_after(chain_circuit(["X"], registry), "main", registry)
        assert state_fidelity(_state_after(dst.hugr, "copy", registry), want) >= 1 - 1e-9
