"""Reducibility, and CFG-to-structured conversion."""

from collections import Counter

import numpy as np
import pytest

from hugr_ir import (
    Cfg,
    Conditional,
    Interpreter,
    Scripted,
    TailLoop,
    bool_value,
    encode,
    state_fidelity,
    stdlib,
    validate,
)
from hugr_ir.build import DfBuilder, new_module
from hugr_ir.graph import in_port, out_port
from hugr_ir.interp import ScriptExhausted
from hugr_ir.ops import Const, LoadConst, Static
from hugr_ir.programs import rotation_pipeline, rus_cfg, rus_loop
from hugr_ir.structure import (
    CfgView,
    IrreducibleCfg,
    StructuringError,
    UnsupportedCfg,
    _reduce,
    is_reducible,
    structure_all,
    structure_cfg,
)
from hugr_ir.types import BOOL, F64, QUBIT, EnumType, Signature

from generators import (
    cfg_per_function,
    hierarchy_faults,
    main_region,
    measured_successor_cfg,
    nested_cfg_module,
    random_reducible_cfg,
    successor_cfg,
)
from oracles import (
    _naive_needs_dispatch,
    naive_is_reducible,
    naive_reduce,
    naive_structure_all,
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


def _run_qubit_program(h, script, registry, entry="main"):
    """(classical outputs, final state) or the raised interp error type."""
    it = Interpreter(h, registry, Scripted(script))
    q = it.state.alloc()
    try:
        outs = it.run(entry, [q])
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

    def test_a_branch_to_one_target_needs_no_common_row(self, registry):
        # the entry measures and sends both tags to one block, which widens the
        # row from (qubit) to (qubit, bool): no dispatch is built, so no row rule
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT,), (QUBIT, BOOL)))
        (q,) = b.inputs()
        outs, cb = b.cfg((q,), (QUBIT, BOOL))
        entry, body = cb.add_block((QUBIT,), 2, (QUBIT,))
        (bq,) = body.inputs()
        (a,) = body.q("QAlloc")
        (a,) = body.q("H", a)
        a, flag = body.q("Measure", a)
        body.q("QFree", a)
        (bq,) = body.q("H", bq)
        body.set_outputs(flag, bq)
        widen, body = cb.add_block((QUBIT,), 1, (QUBIT, BOOL))
        (bq,) = body.inputs()
        bq, bit = body.q("Measure", bq)
        body.set_outputs(body.tag_const(0, 1), bq, bit)
        exit_ = cb.add_exit((QUBIT, BOOL))
        cb.link(entry, 0, widen)
        cb.link(entry, 1, widen)
        cb.link(widen, 0, exit_)
        b.set_outputs(*outs)
        original = m.hugr
        structured = structure_all(original.copy(), registry)
        assert validate(structured, registry) == []
        assert not [n for n in structured.preorder()
                    if isinstance(structured.op(n), (Cfg, Conditional, TailLoop))]
        # the entry's measurement still draws the first outcome of the script
        for script in ([], [True], [False, True], [True, False], [True, True]):
            got = _run_qubit_program(structured, script, registry)
            want = _run_qubit_program(original, script, registry)
            assert got[0] == want[0] == (
                "exhausted" if len(script) < 2 else repr([bool_value(script[1])])), script
            if want[1] is not None:
                assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, script

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

    @pytest.mark.filterwarnings("ignore:pruning unreachable block")
    def test_random_successor_maps_run_as_their_cfgs(self, registry):
        # duplicate, reordered and multi-way successors: every tag map is exercised
        rng = np.random.default_rng(73)
        kinds, ran = Counter(), 0
        while kinds["structured"] < 150:
            n = int(rng.integers(1, 7))
            succs = [[int(t) for t in rng.integers(-1, n, size=int(rng.integers(1, 4)))]
                     for _ in range(n)]
            original = measured_successor_cfg(succs, registry)
            structured = original.copy()
            try:
                structure_all(structured, registry)
            except StructuringError as exc:
                kinds[type(exc).__name__] += 1
                continue
            kinds["structured"] += 1
            assert validate(structured, registry) == []
            for _ in range(6):
                script = [bool(x) for x in rng.integers(0, 2, size=24)]
                got = _run_qubit_program(structured, script, registry)
                want = _run_qubit_program(original, script, registry)
                assert got[0] == want[0], (succs, script)
                if want[1] is not None:
                    ran += 1
                    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, (succs, script)
        assert kinds["IrreducibleCfg"] and kinds["UnsupportedCfg"], kinds
        assert ran >= 600, ran

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


@pytest.fixture(scope="module")
def grammar_cfgs(registry):
    """(input, ``naive_structure_all`` output, ``structure_all`` output) for 200
    grammar CFGs of 1 to 30 blocks."""
    rng = np.random.default_rng(53)
    triples = []
    for _ in range(200):
        h = random_reducible_cfg(rng, max_blocks=int(rng.integers(1, 31)), registry=registry)
        triples.append((h, naive_structure_all(h.copy(), registry),
                        structure_all(h.copy(), registry)))
    return triples


def _check_same_semantics(got, want, registry, rng, scripts=6):
    """Both validate, hold no CFG, and every function gives the same outcomes
    and states on ``scripts`` seeded outcome scripts."""
    for h in (got, want):
        assert validate(h, registry) == []
        assert not [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
    entries = [got.op(f).name for f in got.children(got.root)]
    for _ in range(scripts):
        script = [bool(x) for x in rng.integers(0, 2, size=12)]
        for entry in entries:
            a = _run_qubit_program(got, script, registry, entry)
            b = _run_qubit_program(want, script, registry, entry)
            assert a[0] == b[0], (entry, script)
            if a[1] is not None and b[1] is not None:
                assert state_fidelity(a[1], b[1]) >= 1 - 1e-9, (entry, script)


def _outcome(reduce, view):
    """The fragment repr, or the error class and message, of a reduction."""
    try:
        return repr(reduce(view))
    except StructuringError as exc:
        return type(exc).__name__, str(exc)


class TestFoldAgainstOldCode:
    """The incremental fold against the full-rescan loops kept in oracles.py,
    whose emission builds every successor-tag map as a conditional."""

    def test_structure_all_bytes_on_random_grammar_cfgs(self, registry, grammar_cfgs):
        # the outputs differ in tag plumbing only: they must run alike
        rng = np.random.default_rng(61)
        sizes = set()
        for original, want, got in grammar_cfgs:
            sizes.add(len(CfgView.of(original, _cfg_node(original)).blocks))
            _check_same_semantics(got, want, registry, rng)
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
            want = _outcome(naive_reduce, view)
            verdict = got if isinstance(got, tuple) else ("folded",)
            assert verdict == (want if isinstance(want, tuple) else ("folded",)), succ
            kinds[verdict[0]] += 1
            # the old fold keeps one successor per tag: the trees agree only
            # where no block repeats a successor
            if all(len(set(ss)) == len(ss) for ss in succ.values()):
                assert got == want, succ
                if not isinstance(got, tuple):
                    kinds["same tree"] += 1
                    assert bool(_reduce(view).depth) == _naive_needs_dispatch(naive_reduce(view))
        assert min(kinds[k] for k in ("folded", "IrreducibleCfg", "UnsupportedCfg",
                                      "same tree")) >= 100, kinds


def _tag_plumbing(h):
    """Counts of the shapes that only move successor tags around."""
    conds = [n for n in h.preorder() if isinstance(h.op(n), Conditional)]
    loops = [n for n in h.preorder() if isinstance(h.op(n), TailLoop)]
    return Counter(
        unary=sum(h.op(c).cardinality == 1 for c in conds),
        # a single-exit loop's seed tag, and its exit conditional
        seed=sum(EnumType(1) in h.op(n).loop_vars for n in loops),
        exit=sum(h.op(c).outputs[:2] == (BOOL, EnumType(1)) for c in conds))


class TestOutputShape:
    """What ``structure_all`` no longer builds, on the grammar CFGs above."""

    def test_no_tag_only_plumbing(self, grammar_cfgs):
        old = sum((_tag_plumbing(want) for _, want, _ in grammar_cfgs), Counter())
        # the old emission builds every shape, so the check can see them
        assert min(old[k] for k in ("unary", "seed", "exit")) > 0, old
        for _, _, got in grammar_cfgs:
            assert not +_tag_plumbing(got)

    def test_retags_only_a_tag_no_constant_or_wire_can_carry(self, registry, grammar_cfgs,
                                                             monkeypatch):
        import hugr_ir.structure as structure

        maps = []

        def recorded(b, tag, vals, retag, arity, row):
            maps.append(retag)
            return retag_conditional(b, tag, vals, retag, arity, row)

        retag_conditional = structure._retag
        monkeypatch.setattr(structure, "_retag", recorded)
        for original, _, _ in grammar_cfgs:  # every loop repeats on tag 0
            structure_all(original.copy(), registry)
        assert maps == []
        # a self-loop repeating on tag 1: its flag is the block's tag swapped
        original = successor_cfg([[-1, 0]], registry)
        structured = structure_all(original.copy(), registry)
        assert maps == [(1, 0)]
        _check_against_cfg(structured, original, registry)

    def test_at_most_six_tenths_of_the_old_nodes(self, grammar_cfgs):
        old = sum(len(want) for _, want, _ in grammar_cfgs)
        new = sum(len(got) for _, _, got in grammar_cfgs)
        assert new <= 0.6 * old, (new, old)

    def test_bytes_unchanged_without_control_ops(self, grammar_cfgs):
        straight = 0
        for _, want, got in grammar_cfgs:
            if not [n for n in got.preorder()
                    if isinstance(got.op(n), (Conditional, TailLoop))]:
                assert encode(got) == encode(want)
                straight += 1
        assert straight >= 10, straight


def _check_against_cfg(structured, original, registry):
    assert validate(structured, registry) == []
    assert not [n for n in structured.preorder() if isinstance(structured.op(n), Cfg)]
    got = _run_qubit_program(structured, [], registry)
    want = _run_qubit_program(original, [], registry)
    assert got[0] == want[0]
    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9


class TestLinearSize:
    """One case per distinct successor: each reachable block is spliced once,
    whatever the node ids and however many tags share a target."""

    @pytest.mark.parametrize("k", [6, 8, 10, 12, 1000])
    def test_double_branch_chain_in_both_id_orders(self, registry, k):
        sizes = []
        for order in (None, [0] + list(range(k - 1, 0, -1))):
            original = successor_cfg([[i + 1, i + 1] for i in range(k - 1)] + [[-1, -1]],
                                     registry, order)
            structured = structure_all(original.copy(), registry)
            _check_against_cfg(structured, original, registry)
            sizes.append(len(structured))
        assert sizes[0] == sizes[1] <= k + 4, sizes

    @pytest.mark.filterwarnings("ignore:pruning unreachable block")
    def test_random_successor_maps_splice_each_block_once(self, registry, monkeypatch):
        import hugr_ir.structure as structure

        spliced = Counter()

        def counted(b, src, block, wires):
            spliced[block] += 1
            return splice(b, src, block, wires)

        splice = structure.splice_region
        monkeypatch.setattr(structure, "splice_region", counted)
        rng = np.random.default_rng(79)
        structured_maps = 0
        while structured_maps < 120:
            n = int(rng.integers(2, 7))
            succs = [[int(t) for t in rng.integers(-1, n, size=int(rng.integers(1, 4)))]
                     for _ in range(n)]
            if all(len(set(ss)) == len(ss) for ss in succs):
                continue  # every map here repeats a successor somewhere
            original = measured_successor_cfg(succs, registry)
            reachable = CfgView.of(original, _cfg_node(original)).blocks
            spliced.clear()
            try:
                structured = structure_all(original.copy(), registry)
            except StructuringError:
                continue
            structured_maps += 1
            assert spliced == Counter(reachable), succs
            assert validate(structured, registry) == []
            for _ in range(4):
                script = [bool(x) for x in rng.integers(0, 2, size=24)]
                got = _run_qubit_program(structured, script, registry)
                want = _run_qubit_program(original, script, registry)
                assert got[0] == want[0], (succs, script)
                if want[1] is not None:
                    assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, (succs, script)


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
        _check_against_cfg(structure_all(original.copy(), registry), original, registry)

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
        return "structured", structure(h, registry)
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


def _beside_every_cfg(h, registry):
    """An unused ``F64`` constant and an ``Rz`` on a fresh qubit, with a constant
    angle, in every region that holds a CFG; and a constant there that only the
    CFGs' entry blocks load, leaving the load unused."""
    cfgs = [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
    for region in dict.fromkeys(h.parent(n) for n in cfgs):
        b = DfBuilder.attach(h, region, registry)
        b.const(0.5, F64)
        (a,) = b.q("QAlloc")
        (a,) = b.q("Rz", a, b.const(0.25, F64))
        b.q("QFree", a)
        const = h.add_node(Const(0.125, F64), region)
        for cfg in h.children(region):
            if isinstance(h.op(cfg), Cfg):
                load = h.add_node(LoadConst(F64), h.children(cfg)[0])
                h.connect(out_port(const, 0), in_port(load, 0), Static(F64))
    return h


def _outside_cfgs(h):
    """The nodes outside every CFG subtree, and their ports wired to a CFG."""
    inside = {n for c in h.preorder() if isinstance(h.op(c), Cfg) for n in h.preorder(c)}
    keep = {n for n in h.preorder() if n not in inside}
    boundary = set()
    for n in inside:
        nd = h.node(n)
        boundary |= {e.src for es in nd.in_edges for e in es if e.src.node in keep}
        boundary |= {e.dst for es in nd.out_edges for e in es if e.dst.node in keep}
    return keep, boundary


def _snapshot(h, keep, boundary):
    """Op, parent and kept children of every node in ``keep``; the edges among
    them away from ``boundary``; whether every boundary value port is still
    wired (a constant that a CFG loaded may lose a load nothing used)."""
    nodes = {n: (h.op(n), h.parent(n), [c for c in h.children(n) if c in keep])
             for n in keep if n in h}
    edges = {(e.src, e.dst) for n in nodes for es in h.node(n).out_edges for e in es
             if e.dst.node in keep and not {e.src, e.dst} & boundary}
    return nodes, edges, all(h.edges_at(p) for p in boundary
                             if not isinstance(h.port_kind(p), Static))


def test_structuring_keeps_every_node_outside_the_cfgs(registry):
    rng = np.random.default_rng(71)
    for i in range(60):
        h = (random_reducible_cfg(rng, max_blocks=int(rng.integers(1, 13)), registry=registry)
             if i % 2 else nested_cfg_module(rng, registry))
        _beside_every_cfg(h, registry)
        assert validate(h, registry) == []
        keep, boundary = _outside_cfgs(h)
        before = _snapshot(h, keep, boundary)
        structure_all(h, registry)
        assert validate(h, registry) == []
        assert _snapshot(h, keep, boundary) == before


class TestOneValidationPerStructureAll:
    """``structure_all`` against the drivers kept in oracles.py that validate
    the whole graph for every CFG and build the tag plumbing the old way."""

    def test_agrees_on_nested_cfgs_with_and_without_a_fault(self, registry):
        from hugr_ir import ext_op
        from hugr_ir.validate import dataflow_regions

        rng = np.random.default_rng(67)
        outcomes, places = Counter(), Counter()
        for _ in range(400):
            h = nested_cfg_module(rng, registry)
            fault = None
            if rng.random() < 0.5:  # one unwired gate in a random dataflow region
                regions = dataflow_regions(h)
                region = regions[int(rng.integers(len(regions)))]
                fault = h.add_node(ext_op(registry, "stdlib.quantum", "H"), region)
                places[_fault_place(h, region)] += 1
            want = _structured_or_error(revalidating_structure_all, h.copy(), registry)
            got = _structured_or_error(structure_all, h, registry)
            outcomes[got[0]] += 1
            if got[0] != "structured" or want[0] != "structured":
                assert got == want  # the same refusal, word for word
                continue
            if fault is not None:  # a fault away from every CFG stays as it was
                assert [d.render() for d in validate(got[1], registry)] == \
                    [d.render() for d in validate(want[1], registry)] != []
                got[1].remove_node(fault)
                want[1].remove_node(fault)
            _check_same_semantics(got[1], want[1], registry, rng)
        assert set(outcomes) == {"structured", "InvalidInput"}
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


def _cfg_with_static_edges_into_its_blocks(registry):
    """A loop whose entry block calls another function and whose second block
    loads a constant defined beside the CFG: both static edges enter a block
    from outside it."""
    m = new_module(registry)
    flip = m.define_function("flip", Signature((QUBIT,), (QUBIT,)))
    flip.set_outputs(*flip.q("X", *flip.inputs()))
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    angle = b.hugr.add_node(Const(0.7, F64), b.container)
    (out,), cb = b.cfg((q,), (QUBIT,))
    attempt, ab = cb.add_block((QUBIT,), 2, (QUBIT,))
    (aq,) = ab.call(flip.container, *ab.inputs())
    (a,) = ab.q("QAlloc")
    a, flag = ab.q("Measure", *ab.q("H", a))
    ab.q("QFree", a)
    ab.set_outputs(flag, aq)
    turn, tb = cb.add_block((QUBIT,), 1, (QUBIT,))
    load = tb.hugr.add_node(LoadConst(F64), turn)
    tb.hugr.connect(out_port(angle, 0), in_port(load, 0), Static(F64))
    (tq,) = tb.q("Rz", *tb.inputs(), out_port(load, 0))
    tb.set_outputs(tb.tag_const(0, 1), tq)
    exit_ = cb.add_exit((QUBIT,))
    cb.link(attempt, 0, turn)
    cb.link(attempt, 1, exit_)
    cb.link(turn, 0, attempt)
    b.set_outputs(out)
    return m.hugr


def test_blocks_with_static_edges_from_outside_structure_and_run_alike(registry):
    original = _cfg_with_static_edges_into_its_blocks(registry)
    assert validate(original, registry) == []
    structured = structure_all(original.copy(), registry)
    assert validate(structured, registry) == []
    assert not [n for n in structured.preorder() if isinstance(structured.op(n), Cfg)]
    for length in range(1, 6):
        for bits in range(1 << length):
            script = [bool((bits >> i) & 1) for i in range(length)]
            got = _run_qubit_program(structured, script, registry)
            want = _run_qubit_program(original, script, registry)
            assert got[0] == want[0], script
            if want[1] is not None:
                assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, script


class TestRollback:
    """A structuring that fails after it has started to change the graph
    leaves the graph exactly as it was."""

    @staticmethod
    def _failing_check(monkeypatch, fail_on_call: int):
        import hugr_ir.build as build_mod
        from hugr_ir.validate import Code, Diagnostic

        calls, check = [], build_mod.validate_touched

        def planted(h, region, touched, registry):
            calls.append(region)
            if len(calls) == fail_on_call:
                return [Diagnostic(Code.InputPortUnwired, region, None, "planted fault")]
            return check(h, region, touched, registry)

        monkeypatch.setattr(build_mod, "validate_touched", planted)

    def test_a_refused_check_leaves_the_graph_as_it_was(self, registry, monkeypatch):
        h = rus_cfg(registry)
        reference = encode(h)
        self._failing_check(monkeypatch, 1)
        with pytest.raises(StructuringError, match="planted fault"):
            structure_cfg(h, _cfg_node(h), registry)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    def test_a_build_that_raises_midway_leaves_the_graph_as_it_was(self, registry,
                                                                    monkeypatch):
        import hugr_ir.structure as structure_mod

        h = rus_cfg(registry)
        reference = encode(h)
        splices, splice = [], structure_mod.splice_region

        def planted(*args):
            splices.append(args)
            if len(splices) == 2:
                raise RuntimeError("planted")
            return splice(*args)

        monkeypatch.setattr(structure_mod, "splice_region", planted)
        with pytest.raises(RuntimeError, match="planted"):
            structure_cfg(h, _cfg_node(h), registry)
        assert encode(h) == reference
        assert hierarchy_faults(h) == []

    def test_structure_all_keeps_the_cfgs_structured_before_the_failing_one(
            self, registry, monkeypatch):
        h = cfg_per_function(3, registry)
        first, second, _ = [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
        expected = structure_cfg(h.copy(), first, registry)
        self._failing_check(monkeypatch, 2)
        with pytest.raises(StructuringError, match="planted fault"):
            structure_all(h, registry)
        assert encode(h) == encode(expected)
        assert second in h and hierarchy_faults(h) == []
