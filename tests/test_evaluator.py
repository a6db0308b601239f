"""The compiled evaluator against the per-run ready-heap oracle, and its cache."""

import numpy as np
import pytest

from hugr_ir import (
    Interpreter,
    InterpError,
    QubitValue,
    Seeded,
    decode,
    encode,
    ext_op,
    in_port,
    out_port,
)
from hugr_ir.build import DfBuilder, new_module
from hugr_ir.interp import QuantumState
from hugr_ir.programs import measurement_branch, rus_cfg, rus_loop
from hugr_ir.rewrite import Pattern, RewriteRule, apply, find_matches
from hugr_ir.types import QUBIT, Signature

from generators import chain_circuit, main_region, random_circuit
from oracles import NaiveInterpreter

TOL = 1e-12


class _Recording(Seeded):
    """Born-rule outcomes that log every (p_true, outcome) pair."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.log: list[tuple[float, bool]] = []

    def next_outcome(self, p_true: float) -> bool:
        outcome = super().next_outcome(p_true)
        self.log.append((p_true, outcome))
        return outcome


class _AxisLog(QuantumState):
    """Records the axis pair of every two-qubit gate in ``pairs``."""

    def __init__(self, pairs: list[tuple[int, int]]):
        super().__init__()
        self.pairs = pairs

    def apply2(self, q0, q1, u4):
        self.pairs.append((self._axis(q0), self._axis(q1)))
        return super().apply2(q0, q1, u4)


def _random_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _run(cls, h, registry, seed, preps, state=None):
    source = _Recording(seed)
    it = cls(h, registry, source)
    if state is not None:
        it.state = state
    qubits = [it.state.apply1(it.state.alloc(), u) for u in preps]
    outs = it.run("main", qubits)
    final = it.state.statevector([v for v in outs if isinstance(v, QubitValue)])
    return source.log, final


def _assert_same_as_naive(h, registry, seed, preps, state=None):
    got_log, got = _run(Interpreter, h, registry, seed, preps, state)
    want_log, want = _run(NaiveInterpreter, h, registry, seed, preps)
    assert [o for _, o in got_log] == [o for _, o in want_log]
    assert all(abs(p - q) <= TOL for (p, _), (q, _) in zip(got_log, want_log))
    assert np.max(np.abs(got - want)) <= TOL
    return len(got_log)


@pytest.mark.parametrize("program,width", [(rus_loop, 1), (rus_cfg, 1),
                                           (measurement_branch, 2)])
def test_fixture_programs_match_naive(registry, program, width):
    h = program(registry)
    rng = np.random.default_rng(5)
    draws = 0
    for seed in range(25):
        preps = [_random_unitary(rng) for _ in range(width)]
        draws += _assert_same_as_naive(h, registry, seed, preps)
    assert draws >= 25


def test_random_circuits_match_naive(registry):
    rng = np.random.default_rng(2024)
    pairs: list[tuple[int, int]] = []
    draws = 0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        h = random_circuit(rng, n_qubits=n, n_gates=int(rng.integers(10, 50)),
                           registry=registry, p_measure=0.15)
        preps = [_random_unitary(rng) for _ in range(n)]
        draws += _assert_same_as_naive(h, registry, int(rng.integers(1 << 30)), preps,
                                       _AxisLog(pairs))
    assert draws > 200
    assert any(a < b for a, b in pairs) and any(a > b for a, b in pairs)
    assert any(abs(a - b) > 1 for a, b in pairs)
    assert max(max(p) for p in pairs) == 9


# ── the schedule cache ─────────────────────────────────────────────

def _outcome(h, registry):
    """The final state of a seeded run, or the error class it raised."""
    it = Interpreter(h, registry, Seeded(11))
    try:
        outs = it.run("main", [it.state.alloc()])
    except InterpError as exc:
        return type(exc).__name__
    return it.state.statevector(outs)


def _assert_like_fresh_copy(h, registry):
    got, want = _outcome(h, registry), _outcome(decode(encode(h)), registry)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and np.max(np.abs(got - want)) <= TOL
    return got


def _h_to_x(registry) -> RewriteRule:
    """H -> X: not sound, so a stale schedule would show in the result."""
    sides = []
    for gate in ("H", "X"):
        m = new_module(registry)
        b = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.q(gate, *b.inputs())
        b.set_outputs(q)
        sides.append((m.hugr, q.node))
    lhs, anchor = sides[0]
    return RewriteRule(Pattern(lhs, anchor), sides[1][0], "h_to_x")


def test_every_mutation_invalidates_the_schedule(registry):
    h = chain_circuit(["H", "T"], registry)
    region = main_region(h)
    before = _assert_like_fresh_copy(h, registry)

    # a rewrite
    rule = _h_to_x(registry)
    version = h.version
    apply(rule, find_matches(rule.lhs, h, region)[0], h, registry)
    assert h.version > version
    after_rewrite = _assert_like_fresh_copy(h, registry)
    assert np.max(np.abs(after_rewrite - before)) > 0.1

    # a builder edit: append Z before the output
    out_node = h.children(region)[1]
    (edge,) = h.edges_at(in_port(out_node, 0))
    h.disconnect(edge)
    b = DfBuilder.attach(h, region, registry)
    (z,) = b.q("Z", edge.src)
    b.set_outputs(z)
    after_edit = _assert_like_fresh_copy(h, registry)
    assert np.max(np.abs(after_edit - after_rewrite)) > 0.1

    # removal breaks the program; restoring it brings back the same result
    removed = h.remove_node(z.node)
    assert _assert_like_fresh_copy(h, registry) == "InterpError"
    h.restore(removed)
    restored = _assert_like_fresh_copy(h, registry)
    assert np.max(np.abs(restored - after_edit)) <= TOL


def test_every_mutator_bumps_the_version(registry):
    h = chain_circuit(["H"], registry)
    region = main_region(h)
    gate = h.children(region)[2]
    seen = [h.version]

    def bumped():
        assert h.version > seen[-1]
        seen.append(h.version)

    x = h.add_node(ext_op(registry, "stdlib.quantum", "X"), region)
    bumped()
    (edge,) = h.edges_at(out_port(gate, 0))
    h.disconnect(edge)
    bumped()
    h.connect(out_port(gate, 0), in_port(x, 0), edge.kind)
    bumped()
    removed = h.remove_node(x)
    bumped()
    h.restore(removed)
    bumped()


def test_derived_values_are_per_graph_and_per_version(registry):
    h = chain_circuit(["H"], registry)
    region = main_region(h)
    built = []

    def build(g, node):
        built.append(g)
        return object()

    first = h.derived(build, region)
    assert h.derived(build, region) is first and built == [h]
    c = h.copy()
    assert c.derived(build, region) is not first and built == [h, c]
    h.add_node(h.op(h.children(region)[2]), region)
    assert h.derived(build, region) is not first and built == [h, c, h]


def test_copy_never_sees_the_original_schedule(registry):
    h = chain_circuit(["H", "T"], registry)
    original = _assert_like_fresh_copy(h, registry)
    c = h.copy()
    rule = _h_to_x(registry)
    apply(rule, find_matches(rule.lhs, c, main_region(c))[0], c, registry)
    changed = _assert_like_fresh_copy(c, registry)
    assert np.max(np.abs(changed - original)) > 0.1
    assert np.max(np.abs(_assert_like_fresh_copy(h, registry) - original)) <= TOL
