"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion together with the measured runtimes.
"""

import time

import numpy as np
import pytest

from hugr_ir import (
    Cfg,
    Interpreter,
    Scripted,
    decode,
    encode,
    state_fidelity,
    stdlib,
    unitary_fidelity,
    unitary_of,
)
from hugr_ir.interp import ScriptExhausted
from hugr_ir.programs import all_programs, rus_cfg, rus_loop
from hugr_ir.rewrite import apply, find_matches, saturate
from hugr_ir.rules import standard_rules
from hugr_ir.structure import structure_cfg
from hugr_ir.validate import Code, validate

from generators import (
    FAULT_KINDS,
    inject_fault,
    main_region,
    perf_setup,
    random_circuit,
    random_reducible_cfg,
)
from oracles import naive_find_matches

X = np.array([[0, 1], [1, 0]], dtype=complex)
TARGET_GATE = (np.eye(2) + 1j * np.sqrt(2) * X) / np.sqrt(3)


def _cfg_node(h):
    return next(n for n in h.preorder() if isinstance(h.op(n), Cfg))


def test_criterion_1_fixture_suite(registry):
    """Transcribed example programs validate exactly as documented, < 1 s."""
    start = time.perf_counter()
    programs = all_programs(registry)
    for name in ("rotation_pipeline", "measurement_branch", "external_call",
                 "rus_loop", "rus_cfg"):
        assert validate(programs[name], registry) == [], name
    diags = validate(programs["fanout_rejected"], registry)
    assert len(diags) == 1 and diags[0].code is Code.LinearityViolation
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: fixture suite ({elapsed * 1000:.0f} ms)")


def test_criterion_2_linearity_property(registry):
    """>= 1000 random graphs with one injected fault each; every fault is
    flagged with the expected code and the clean graph has no diagnostics."""
    rng = np.random.default_rng(2024)
    n_graphs = 1002
    for i in range(n_graphs):
        kind = FAULT_KINDS[i % len(FAULT_KINDS)]
        h = random_circuit(rng, n_qubits=3, n_gates=14, registry=registry,
                           p_measure=0.12, ensure_rz_and_measure=True)
        assert validate(h, registry) == [], "generator must produce valid graphs"
        expected = inject_fault(h, kind, rng, registry)
        codes = {d.code.value for d in validate(h, registry)}
        assert expected in codes, (i, kind, codes)
    print(f"\nPASS criterion 2: {n_graphs} fault injections, zero false negatives")


def test_criterion_3_rus_semantics(registry):
    """Every scripted outcome sequence ending in success with <= 5 retries
    applies (I + i*sqrt(2)*X)/sqrt(3) with fidelity >= 1 - 1e-9, < 5 s."""
    start = time.perf_counter()
    h = rus_loop(registry)
    probes = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ]
    for retries in range(6):
        script = [False] * retries + [True]
        for psi in probes:
            it = Interpreter(h, registry, Scripted(script))
            q = it.state.alloc()
            it.state.amps = psi.copy()
            outs = it.run("main", [q])
            final = it.state.statevector([outs[0]])
            fid = state_fidelity(final, TARGET_GATE @ psi)
            assert fid >= 1 - 1e-9, (retries, fid)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"RUS checks took {elapsed:.2f}s"
    print(f"\nPASS criterion 3: success operator fidelity >= 1-1e-9 "
          f"for 0..5 retries ({elapsed * 1000:.0f} ms)")


def _run_one(h, script, registry):
    it = Interpreter(h, registry, Scripted(list(script)))
    q = it.state.alloc()
    try:
        outs = it.run("main", [q])
    except ScriptExhausted:
        return "exhausted", None
    qubits = [v for v in outs if hasattr(v, "token")]
    classical = repr([v for v in outs if not hasattr(v, "token")])
    return classical, it.state.statevector(qubits)


def test_criterion_4_structuring_equivalence(registry):
    """The structured CFG program matches the loop program on every script of
    length <= 6; 100 random reducible CFGs validate and agree over 20 runs."""
    structured = rus_cfg(registry)
    structure_cfg(structured, _cfg_node(structured), registry)
    assert validate(structured, registry) == []
    assert not [n for n in structured.preorder()
                if isinstance(structured.op(n), Cfg)]
    reference = rus_loop(registry)
    checked = 0
    for length in range(1, 7):
        for bits in range(1 << length):
            script = [bool((bits >> i) & 1) for i in range(length)]
            got = _run_one(structured, script, registry)
            want = _run_one(reference, script, registry)
            assert got[0] == want[0], script
            if got[1] is not None:
                assert state_fidelity(got[1], want[1]) >= 1 - 1e-9, script
            checked += 1

    rng = np.random.default_rng(404)
    for i in range(100):
        original = random_reducible_cfg(rng, max_blocks=8, registry=registry)
        assert validate(original, registry) == []
        converted = original.copy()
        structure_cfg(converted, _cfg_node(converted), registry)
        assert validate(converted, registry) == []
        assert not [n for n in converted.preorder()
                    if isinstance(converted.op(n), Cfg)]
        for _ in range(20):
            script = [bool(x) for x in rng.integers(0, 2, size=12)]
            got = _run_one(converted, script, registry)
            want = _run_one(original, script, registry)
            assert got[0] == want[0]
            if got[1] is not None and want[1] is not None:
                assert state_fidelity(got[1], want[1]) >= 1 - 1e-9
    print(f"\nPASS criterion 4: structuring equivalence "
          f"({checked} scripts, 100 random CFGs x 20 runs)")


@pytest.mark.slow
def test_criterion_5_rewrite_soundness(registry):
    """Saturating the stock rule set on 200 random circuits keeps every
    intermediate valid and preserves the unitary to 1 - 1e-9; the matcher
    agrees with the naive oracle on small hosts."""
    rng = np.random.default_rng(55)
    rules = standard_rules(registry)
    total_applications = 0
    for i in range(200):
        n_gates = int(rng.integers(10, 51))
        h = random_circuit(rng, n_qubits=4, n_gates=n_gates, registry=registry)
        before = unitary_of(h, "main", registry)
        region = main_region(h)
        for _ in range(200):
            hit = None
            for rule in rules:
                ms = find_matches(rule.lhs, h, region)
                if ms:
                    hit = (rule, ms[0])
                    break
            if hit is None:
                break
            apply(hit[0], hit[1], h, registry)
            total_applications += 1
            assert validate(h, registry) == [], "intermediate graph must validate"
        after = unitary_of(h, "main", registry)
        assert unitary_fidelity(before, after) >= 1 - 1e-9, i

    oracle_checks = 0
    for _ in range(30):
        h = random_circuit(rng, n_qubits=3, n_gates=7, registry=registry)
        region = main_region(h)
        if len(h.children(region)) > 12:
            continue
        for rule in rules:
            fast = {frozenset(m.mapping.items())
                    for m in find_matches(rule.lhs, h, region)}
            assert fast == naive_find_matches(rule.lhs, h, region)
            oracle_checks += 1
    print(f"\nPASS criterion 5: rewrite soundness "
          f"(200 circuits, {total_applications} applications, "
          f"{oracle_checks} oracle cross-checks)")


def test_criterion_6_serialization(registry):
    """Canonical roundtrip, byte-exact, on all fixtures and 500 graphs."""
    for name, h in all_programs(registry).items():
        text = encode(h)
        assert encode(decode(text)) == text, name
    rng = np.random.default_rng(66)
    for i in range(500):
        if i % 5 == 4:
            h = random_reducible_cfg(rng, max_blocks=6, registry=registry)
        else:
            h = random_circuit(rng, n_qubits=int(rng.integers(1, 5)),
                               n_gates=int(rng.integers(0, 30)),
                               registry=registry, p_measure=0.1)
        text = encode(h)
        assert encode(decode(text)) == text, i
    print("\nPASS criterion 6: canonical roundtrip on fixtures + 500 graphs")


def test_criterion_7_performance_smoke(registry):
    """100 commutation rules over a 1000-node circuit saturate in < 5 s."""
    reg, rules, h = perf_setup(n_rules=100, n_gates=1000)
    assert len(rules) == 100
    region = main_region(h)
    assert len(h.children(region)) >= 1000
    start = time.perf_counter()
    _, applied = saturate(rules, h, 5000, reg)
    elapsed = time.perf_counter() - start
    assert len(applied) < 5000, "saturation must reach a fixpoint"
    assert elapsed < 5.0, f"saturation took {elapsed:.2f}s"
    assert validate(h, reg) == []
    print(f"\nPASS criterion 7: {len(applied)} applications over a "
          f"1000-gate circuit in {elapsed:.2f} s")
