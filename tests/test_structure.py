"""Dominators, reducibility, and CFG-to-structured conversion."""

from collections import Counter

import numpy as np
import pytest

from hugr_ir import (
    Cfg,
    Conditional,
    Interpreter,
    Scripted,
    TailLoop,
    encode,
    state_fidelity,
    stdlib,
    validate,
)
from hugr_ir.build import new_module
from hugr_ir.interp import ScriptExhausted
from hugr_ir.programs import rotation_pipeline, rus_cfg, rus_loop
from hugr_ir.structure import (
    CfgView,
    IrreducibleCfg,
    StructuringError,
    UnsupportedCfg,
    _reduce,
    dominators,
    is_reducible,
    loop_candidates,
    structure_all,
    structure_cfg,
)
from hugr_ir.types import QUBIT, Signature

from generators import (
    cfg_per_function,
    main_region,
    nested_cfg_module,
    random_reducible_cfg,
    successor_cfg,
)
from oracles import (
    _naive_needs_dispatch,
    naive_is_reducible,
    naive_reduce,
    naive_structure_all,
    removal_idom,
    revalidating_structure_all,
)


def _cfg_node(h):
    return next(n for n in h.preorder() if isinstance(h.op(n), Cfg))


def _single_block_cfg(registry, self_loop: bool):
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))
    if self_loop:
        blk, body = cb.add_block((QUBIT,), 2, (QUBIT,))
        (bq,) = body.inputs()
        (a,) = body.q("QAlloc")
        (a,) = body.q("H", a)
        a, flag = body.q("Measure", a)
        body.q("QFree", a)
        body.set_outputs(flag, bq)
        exit_ = cb.add_exit((QUBIT,))
        cb.link(blk, 0, blk)
        cb.link(blk, 1, exit_)
    else:
        blk, body = cb.add_block((QUBIT,), 1, (QUBIT,))
        (bq,) = body.inputs()
        (bq,) = body.q("H", bq)
        (bq,) = body.q("X", bq)
        body.set_outputs(body.tag_const(0, 1), bq)
        exit_ = cb.add_exit((QUBIT,))
        cb.link(blk, 0, exit_)
    b.set_outputs(out)
    return m.hugr


class TestDominators:
    def test_single_block(self, registry):
        h = _single_block_cfg(registry, self_loop=False)
        view = CfgView.of(h, _cfg_node(h))
        assert dominators(view) == {view.entry: view.entry}

    def test_diamond(self):
        # A -> B, A -> C, B -> D, C -> D: idom(D) = A
        view = CfgView(blocks=[0, 1, 2, 3], entry=0, exit=9,
                       succ={0: [1, 2], 1: [3], 2: [3], 3: [9]})
        idom = dominators(view)
        assert idom[3] == 0
        assert idom[1] == 0 and idom[2] == 0

    def test_rus_cfg_exit_dominated_by_the_attempt_block(self, registry):
        h = rus_cfg(registry)
        view = CfgView.of(h, _cfg_node(h))
        idom = dominators(view)
        fix = [b for b in view.blocks if b != view.entry][0]
        assert idom[fix] == view.entry
        # by the removal oracle, every path to the fix block crosses the entry
        assert removal_idom(view) == idom

    def test_against_removal_oracle_on_random_cfgs(self, registry):
        rng = np.random.default_rng(41)
        for _ in range(20):
            h = random_reducible_cfg(rng, max_blocks=8, registry=registry)
            view = CfgView.of(h, _cfg_node(h))
            assert dominators(view) == removal_idom(view)

    def test_long_chain_and_cycle(self):
        # deeper than the recursion limit; block ids run against the flow
        n = 2000
        succ = {b: [b - 1] for b in range(1, n)}
        succ[0] = [n]
        view = CfgView(blocks=list(range(n - 1, -1, -1)), entry=n - 1, exit=n, succ=succ)
        assert dominators(view) == {b: min(b + 1, n - 1) for b in range(n)}
        succ[0] = [n - 1, n]
        (loop,) = loop_candidates(view)
        assert loop.header == n - 1 and loop.back_edges == [(0, n - 1)]
        assert loop.body == set(range(n))

    def test_loop_candidates_on_the_rus_cfg(self, registry):
        h = rus_cfg(registry)
        view = CfgView.of(h, _cfg_node(h))
        (loop,) = loop_candidates(view)
        assert loop.header == view.entry
        assert loop.body == set(view.blocks)
        assert all(target == view.entry for _, target in loop.back_edges)


class TestReducibility:
    def test_rus_cfg_is_reducible(self, registry):
        h = rus_cfg(registry)
        assert is_reducible(CfgView.of(h, _cfg_node(h)))

    def test_two_headed_loop_is_not(self):
        # A -> B -> C -> B and A -> C: the cycle {B, C} has two entries
        view = CfgView(blocks=[0, 1, 2], entry=0, exit=9,
                       succ={0: [1, 2], 1: [2], 2: [1, 9]})
        assert not is_reducible(view)

    def test_straight_line_is_reducible(self, registry):
        h = _single_block_cfg(registry, self_loop=False)
        assert is_reducible(CfgView.of(h, _cfg_node(h)))

    def test_random_grammar_cfgs_are_reducible(self, registry):
        rng = np.random.default_rng(43)
        for _ in range(15):
            h = random_reducible_cfg(rng, max_blocks=8, registry=registry)
            assert is_reducible(CfgView.of(h, _cfg_node(h)))


def _run_qubit_program(h, script, registry):
    """(classical outputs, final state) or the raised interp error type."""
    it = Interpreter(h, registry, Scripted(script))
    q = it.state.alloc()
    try:
        outs = it.run("main", [q])
    except ScriptExhausted:
        return "exhausted", None
    qubits = [v for v in outs if hasattr(v, "token")]
    classical = [v for v in outs if not hasattr(v, "token")]
    return repr(classical), it.state.statevector(qubits)


class TestStructureCfg:
    def test_straight_line_inlines_without_control_ops(self, registry):
        h = _single_block_cfg(registry, self_loop=False)
        structure_cfg(h, _cfg_node(h), registry)
        assert validate(h, registry) == []
        ops = [type(h.op(n)).__name__ for n in h.preorder()]
        assert "Cfg" not in ops and "Conditional" not in ops and "TailLoop" not in ops
        # the block body (H then X) survives inline
        names = [getattr(h.op(n), "name", None) for n in h.children(main_region(h))]
        assert names[2:] == ["H", "X"]

    def test_single_block_self_loop_becomes_one_tail_loop(self, registry):
        h = _single_block_cfg(registry, self_loop=True)
        structure_cfg(h, _cfg_node(h), registry)
        assert validate(h, registry) == []
        loops = [n for n in h.preorder() if isinstance(h.op(n), TailLoop)]
        assert len(loops) == 1
        assert not [n for n in h.preorder() if isinstance(h.op(n), Cfg)]

    def test_signature_preserved(self, registry):
        h = rus_cfg(registry)
        fn = h.children(h.root)[0]
        sig_before = h.op(fn).scheme
        structure_cfg(h, _cfg_node(h), registry)
        assert h.op(fn).scheme == sig_before

    def test_rus_cfg_matches_the_loop_program(self, registry):
        structured = rus_cfg(registry)
        structure_cfg(structured, _cfg_node(structured), registry)
        assert validate(structured, registry) == []
        reference = rus_loop(registry)
        for length in range(1, 7):
            for bits in range(1 << length):
                script = [bool((bits >> i) & 1) for i in range(length)]
                got = _run_qubit_program(structured, script, registry)
                want = _run_qubit_program(reference, script, registry)
                assert got[0] == want[0], script
                if got[1] is not None:
                    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, script

    def test_idempotent_without_cfg_nodes(self, registry):
        h = rotation_pipeline(registry)
        reference = encode(h)
        structure_all(h, registry)
        assert encode(h) == reference

    def test_irreducible_rejected_without_partial_rewrite(self, registry):
        # build: entry -> {B, C}, B -> C, C -> {B, exit}: two-entry cycle
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        (out,), cb = b.cfg((q,), (QUBIT,))

        def measured_block(succs):
            blk, body = cb.add_block((QUBIT,), succs, (QUBIT,))
            (bq,) = body.inputs()
            if succs == 2:
                (a,) = body.q("QAlloc")
                (a,) = body.q("H", a)
                a, flag = body.q("Measure", a)
                body.q("QFree", a)
                body.set_outputs(flag, bq)
            else:
                body.set_outputs(body.tag_const(0, 1), bq)
            return blk

        entry = measured_block(2)
        bb = measured_block(1)
        cc = measured_block(2)
        exit_ = cb.add_exit((QUBIT,))
        cb.link(entry, 0, bb)
        cb.link(entry, 1, cc)
        cb.link(bb, 0, cc)
        cb.link(cc, 0, bb)
        cb.link(cc, 1, exit_)
        b.set_outputs(out)
        h = m.hugr
        assert validate(h, registry) == []
        reference = encode(h)
        with pytest.raises(IrreducibleCfg):
            structure_cfg(h, _cfg_node(h), registry)
        assert encode(h) == reference

    def test_non_row_preserving_branching_rejected(self, registry):
        from hugr_ir.types import BOOL

        # the entry widens the row from (qubit) to (qubit, bool) and branches
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT,), (QUBIT, BOOL)))
        (q,) = b.inputs()
        outs, cb = b.cfg((q,), (QUBIT, BOOL))
        entry, body = cb.add_block((QUBIT,), 2, (QUBIT, BOOL))
        (bq,) = body.inputs()
        bq, flag = body.q("Measure", bq)
        body.set_outputs(flag, bq, flag)
        arms = []
        for _ in range(2):
            blk, arm = cb.add_block((QUBIT, BOOL), 1, (QUBIT, BOOL))
            aq, aflag = arm.inputs()
            arm.set_outputs(arm.tag_const(0, 1), aq, aflag)
            arms.append(blk)
        exit_ = cb.add_exit((QUBIT, BOOL))
        cb.link(entry, 0, arms[0])
        cb.link(entry, 1, arms[1])
        cb.link(arms[0], 0, exit_)
        cb.link(arms[1], 0, exit_)
        b.set_outputs(*outs)
        h = m.hugr
        assert validate(h, registry) == []
        with pytest.raises(UnsupportedCfg):
            structure_cfg(h, _cfg_node(h), registry)

    def test_random_reducible_cfgs_structure_and_agree(self, registry):
        rng = np.random.default_rng(47)
        for i in range(12):
            original = random_reducible_cfg(rng, max_blocks=8, registry=registry)
            assert validate(original, registry) == []
            structured = original.copy()
            structure_cfg(structured, _cfg_node(structured), registry)
            assert validate(structured, registry) == []
            assert not [n for n in structured.preorder()
                        if isinstance(structured.op(n), Cfg)]
            for r in range(6):
                script = [bool(x) for x in rng.integers(0, 2, size=12)]
                got = _run_qubit_program(structured, script, registry)
                want = _run_qubit_program(original, script, registry)
                assert got[0] == want[0]
                if got[1] is not None and want[1] is not None:
                    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9

    def test_unreachable_blocks_pruned_with_warning(self, registry):
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        (out,), cb = b.cfg((q,), (QUBIT,))
        blk, body = cb.add_block((QUBIT,), 1, (QUBIT,))
        (bq,) = body.inputs()
        body.set_outputs(body.tag_const(0, 1), bq)
        orphan, obody = cb.add_block((QUBIT,), 1, (QUBIT,))
        (oq,) = obody.inputs()
        obody.set_outputs(obody.tag_const(0, 1), oq)
        exit_ = cb.add_exit((QUBIT,))
        cb.link(blk, 0, exit_)
        cb.link(orphan, 0, exit_)
        b.set_outputs(out)
        h = m.hugr
        assert validate(h, registry) == []
        with pytest.warns(UserWarning):
            structure_cfg(h, _cfg_node(h), registry)
        assert validate(h, registry) == []


def _outcome(reduce, view):
    """The fragment repr, or the error class and message, of a reduction."""
    try:
        return repr(reduce(view))
    except StructuringError as exc:
        return type(exc).__name__, str(exc)


class TestFoldAgainstOldCode:
    """The incremental fold against the full-rescan loops kept in oracles.py."""

    def test_structure_all_bytes_on_random_grammar_cfgs(self, registry):
        rng = np.random.default_rng(53)
        sizes = set()
        for _ in range(200):
            h = random_reducible_cfg(rng, max_blocks=int(rng.integers(1, 31)),
                                     registry=registry)
            sizes.add(len(CfgView.of(h, _cfg_node(h)).blocks))
            want = encode(naive_structure_all(h.copy(), registry))
            assert encode(structure_all(h, registry)) == want
        assert min(sizes) == 1 and max(sizes) >= 25

    def test_verdicts_and_errors_on_random_successor_maps(self):
        rng = np.random.default_rng(59)
        kinds = Counter()
        for _ in range(2500):
            n = int(rng.integers(1, 9))
            ids = [int(x) for x in rng.permutation(3 * n)[:n + 1]]
            blocks, exit_ = ids[:n], ids[n]
            targets = blocks + [exit_]
            succ = {b: [targets[int(t)] for t in
                        rng.integers(0, n + 1, size=int(rng.choice(4, p=[0.05, 0.45, 0.3, 0.2])))]
                    for b in blocks}
            view = CfgView(blocks=blocks, entry=blocks[0], exit=exit_, succ=succ)
            assert is_reducible(view) == naive_is_reducible(view), succ
            got = _outcome(lambda v: _reduce(v).frag, view)
            assert got == _outcome(naive_reduce, view), succ
            kinds[got[0] if isinstance(got, tuple) else "folded"] += 1
            if not isinstance(got, tuple):
                assert bool(_reduce(view).depth) == _naive_needs_dispatch(naive_reduce(view))
        assert min(kinds[k] for k in ("folded", "IrreducibleCfg", "UnsupportedCfg")) >= 100


def _check_against_cfg(structured, original, registry):
    assert validate(structured, registry) == []
    assert not [n for n in structured.preorder() if isinstance(structured.op(n), Cfg)]
    got = _run_qubit_program(structured, [], registry)
    want = _run_qubit_program(original, [], registry)
    assert got[0] == want[0]
    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9


@pytest.mark.slow
class TestScale:
    """CFGs far deeper than Python's recursion limit in blocks or in nesting."""

    @pytest.mark.parametrize("descending", [False, True])
    def test_chain_of_2000_blocks(self, registry, descending):
        n = 2000
        order = [0] + list(range(n - 1, 0, -1)) if descending else None
        original = successor_cfg([[i + 1] for i in range(n - 1)] + [[-1]], registry, order)
        structured = structure_all(original.copy(), registry)
        assert not [n for n in structured.preorder()
                    if isinstance(structured.op(n), (Conditional, TailLoop))]
        _check_against_cfg(structured, original, registry)

    @pytest.mark.parametrize("descending", [False, True])
    def test_chain_of_1000_double_branches(self, registry, descending):
        n = 1000
        order = [0] + list(range(n - 1, 0, -1)) if descending else None
        original = successor_cfg([[i + 1, i + 1] for i in range(n - 1)] + [[-1, -1]],
                                 registry, order)
        h = original.copy()
        try:
            structure_all(h, registry)
        except UnsupportedCfg:
            assert encode(h) == encode(original)
        else:
            _check_against_cfg(h, original, registry)

    def test_too_deep_nesting_fails_before_touching_the_graph(self, registry):
        # 600 nested while loops: header i runs header i + 1 or leaves to i - 1
        k = 600
        h = successor_cfg([[i + 1, i - 1] for i in range(k)] + [[k - 1]], registry)
        reference = encode(h)
        with pytest.raises(UnsupportedCfg, match="nests"):
            structure_cfg(h, _cfg_node(h), registry)
        assert encode(h) == reference


def test_a_fault_beside_the_cfg_is_refused_before_any_change(registry):
    from hugr_ir import ext_op
    from hugr_ir.structure import InvalidInput

    h = rus_cfg(registry)
    cfg = _cfg_node(h)
    h.add_node(ext_op(registry, "stdlib.quantum", "X"), h.parent(cfg))  # unwired
    before = encode(h)
    with pytest.raises(InvalidInput, match="around the CFG does not validate: "
                                           "InputPortUnwired"):
        structure_cfg(h, cfg, registry)
    assert encode(h) == before
    # a fault inside the CFG is still the one reported, as before
    block = next(n for n in h.children(cfg) if h.children(n))
    h.add_node(ext_op(registry, "stdlib.quantum", "X"), block)
    with pytest.raises(InvalidInput, match="^CFG does not validate: "):
        structure_cfg(h, cfg, registry)


def _structured_or_error(structure, h, registry):
    try:
        return "bytes", encode(structure(h, registry))
    except StructuringError as exc:
        return type(exc).__name__, str(exc)


def _fault_place(h, region):
    """Where a fault in ``region`` sits: inside a CFG, beside one, or elsewhere."""
    if any(isinstance(h.op(a), Cfg) for a in _ancestors(h, region)):
        return "inside"
    if any(isinstance(h.op(c), Cfg) for c in h.children(region)):
        return "beside"
    return "elsewhere"


def _ancestors(h, n):
    while (n := h.parent(n)) is not None:
        yield n


class TestOneValidationPerStructureAll:
    """``structure_all`` against the drivers kept in oracles.py that validate
    the whole graph for every CFG."""

    def test_agrees_on_nested_cfgs_with_and_without_a_fault(self, registry):
        from hugr_ir import ext_op
        from hugr_ir.validate import dataflow_regions

        rng = np.random.default_rng(67)
        outcomes, places = Counter(), Counter()
        for _ in range(400):
            h = nested_cfg_module(rng, registry)
            if rng.random() < 0.5:  # one unwired gate in a random dataflow region
                regions = dataflow_regions(h)
                region = regions[int(rng.integers(len(regions)))]
                h.add_node(ext_op(registry, "stdlib.quantum", "H"), region)
                places[_fault_place(h, region)] += 1
            want = _structured_or_error(revalidating_structure_all, h.copy(), registry)
            got = _structured_or_error(structure_all, h, registry)
            assert got == want
            outcomes[got[0]] += 1
        assert set(outcomes) == {"bytes", "InvalidInput"}
        assert min(outcomes.values()) >= 100, outcomes
        assert min(places[p] for p in ("inside", "beside", "elsewhere")) >= 20, places

    @pytest.mark.parametrize("k", [0, 10, 80])
    def test_validates_once_if_there_is_a_cfg(self, registry, monkeypatch, k):
        import importlib

        validate_mod = importlib.import_module("hugr_ir.validate")
        calls = []

        def counted(h, reg):
            calls.append(h)
            return validate(h, reg)

        monkeypatch.setattr(validate_mod, "validate", counted)
        h = cfg_per_function(k, registry) if k else rotation_pipeline(registry)
        structure_all(h, registry)
        assert len(calls) == (1 if k else 0)
        assert not [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
        assert validate(h, registry) == []
