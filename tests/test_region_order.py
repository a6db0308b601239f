"""One execution order per region, read by ``validate`` and the evaluator.

Value cycles injected into seeded random circuits must be diagnosed exactly
as the old Kahn pass did (kept in oracles.py), and every compiled schedule
must list its nodes in the sequence the per-run ready-heap oracle executes
them, not only reach the same outcomes.
"""

import numpy as np
import pytest

from hugr_ir import F64Value, InterpError, Seeded, ext_op, in_port, out_port, run
from hugr_ir.build import new_module
from hugr_ir.graph import Hugr, region_order
from hugr_ir.interp import _compile_region
from hugr_ir.ops import ExtensionOp, Value
from hugr_ir.programs import external_call, measurement_branch, rotation_pipeline, \
    rus_cfg, rus_loop
from hugr_ir.types import F64, QUBIT, Signature
from hugr_ir.validate import Code, render, validate

from generators import ONE_QUBIT_GATES, main_region, random_circuit
from oracles import NaiveInterpreter, naive_validate


def _downstream(h: Hugr, start: int) -> set[int]:
    """``start`` and every node a value edge path leads to from it."""
    seen, todo = {start}, [start]
    while todo:
        for edges in h.node(todo.pop()).out_edges:
            for e in edges:
                if isinstance(e.kind, Value) and e.dst.node not in seen:
                    seen.add(e.dst.node)
                    todo.append(e.dst.node)
    return seen


def _inject_cycle(h: Hugr, rng: np.random.Generator, self_loop: bool) -> int:
    """Close a qubit wire into a value cycle; returns the gate it re-enters.

    The edge into gate ``g1`` and the edge out of a gate ``g2`` downstream
    of it (``g1`` itself for a self-loop) are rewired: their outer ends are
    joined, and ``g2`` feeds ``g1``. Every port keeps one edge, so the
    cycle is the only fault.
    """
    region = main_region(h)
    output = h.children(region)[1]
    gates = [n for n in h.children(region)[2:]
             if isinstance(h.op(n), ExtensionOp) and h.op(n).signature.inputs[:1] == (QUBIT,)
             and h.node(n).out_edges[0][0].dst.node != output]
    g1 = gates[int(rng.integers(len(gates)))]
    path = [g1]
    while (nxt := h.node(path[-1]).out_edges[0][0].dst.node) != output:
        path.append(nxt)
    g2 = g1 if self_loop else path[1 + int(rng.integers(len(path) - 1))]
    (into,) = h.edges_at(in_port(g1, 0))
    (out_of,) = h.edges_at(out_port(g2, 0))
    h.disconnect(into)
    h.disconnect(out_of)
    h.connect(into.src, out_of.dst, Value(QUBIT))
    h.connect(out_port(g2, 0), in_port(g1, 0), Value(QUBIT))
    return g1


@pytest.mark.parametrize("self_loop", [False, True])
def test_injected_value_cycles_are_diagnosed_as_before(registry, self_loop):
    rng = np.random.default_rng(1313 + self_loop)
    for _ in range(150):
        h = random_circuit(rng, n_qubits=int(rng.integers(1, 5)),
                           n_gates=int(rng.integers(4, 30)), registry=registry,
                           p_measure=0.15)
        region = main_region(h)
        g1 = _inject_cycle(h, rng, self_loop)
        diags = validate(h, registry)
        assert render(diags) == render(naive_validate(h, registry))
        behind = _downstream(h, g1)  # the cycle and everything after it
        assert [d.code for d in diags] == [Code.DataflowCycle]
        assert diags[0].node == min(behind)
        order = h.derived(region_order, region)
        assert set(order) == set(h.children(region)) - behind
        with pytest.raises(InterpError):
            run(h, "main", [], Seeded(0), registry)


def test_a_self_loop_beside_the_flow_is_named(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((F64,), (F64,)))
    (x,) = b.inputs()
    (y,) = b.cl("Neg", x)
    b.set_outputs(y)
    h = m.hugr
    add = h.add_node(ext_op(registry, "stdlib.classical", "Add"), b.container)
    h.connect(x, in_port(add, 0), Value(F64))
    h.connect(out_port(add, 0), in_port(add, 1), Value(F64))
    assert render(validate(h, registry)) == render(naive_validate(h, registry))
    assert [(d.code, d.node) for d in validate(h, registry)] == [(Code.DataflowCycle, add)]
    assert h.derived(region_order, b.container) == [b.input_node, y.node, b.output_node]


# ── the order the evaluator compiles ───────────────────────────────

class _Trace(NaiveInterpreter):
    """The oracle, logging each region execution as (region, nodes run)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs: list[tuple[int, list[int]]] = []
        self._open: list[list[int]] = []

    def _exec_region(self, parent, args):
        self._open.append([])
        try:
            return super()._exec_region(parent, args)
        finally:
            self.runs.append((parent, self._open.pop()))

    def _exec_node(self, n, invals):
        self._open[-1].append(n)
        return super()._exec_node(n, invals)


_STUBS = {"foo": lambda it, args: [it.state.measure(args[0], it.outcomes)[1]]}


def _assert_schedules_follow_the_oracle(h, registry, seed, args) -> int:
    trace = _Trace(h, registry, Seeded(seed), stubs=_STUBS)
    trace.run("main", args(trace))
    for region, ran in trace.runs:
        assert [step[-1] for step in h.derived(_compile_region, region).steps] == ran, region
    return len(trace.runs)


def _qubits(k):
    return lambda it: [it.state.alloc() for _ in range(k)]


@pytest.mark.parametrize("program,args", [
    (rotation_pipeline, lambda it: [it.state.alloc(), F64Value(0.3), F64Value(-1.1)]),
    (measurement_branch, _qubits(2)),
    (external_call, _qubits(2)),
    (rus_loop, _qubits(1)),
    (rus_cfg, _qubits(1)),
])
def test_fixture_schedules_run_in_the_oracle_order(registry, program, args):
    h = program(registry)
    assert sum(_assert_schedules_follow_the_oracle(h, registry, seed, args)
               for seed in range(10)) >= 10


def _scrambled_circuit(rng, n_qubits: int, n_gates: int, registry) -> Hugr:
    """A random circuit whose node ids run against its flow: the gates are
    added in a shuffled order and wired afterwards, wire by wire."""
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,) * n_qubits, (QUBIT,) * n_qubits))
    wires = list(b.inputs())
    plan = []  # (gate, qubits), in flow order
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.3:
            plan.append(("CX", tuple(int(q) for q in rng.choice(n_qubits, 2, replace=False))))
        else:
            gate = "Measure" if rng.random() < 0.15 else ONE_QUBIT_GATES[int(rng.integers(6))]
            plan.append((gate, (int(rng.integers(n_qubits)),)))
    nodes = {}
    for k in rng.permutation(len(plan)):
        nodes[k] = m.hugr.add_node(ext_op(registry, "stdlib.quantum", plan[k][0]), b.container)
    for k, (_, qubits) in enumerate(plan):
        for port, q in enumerate(qubits):
            b.connect(wires[q], in_port(nodes[k], port))
            wires[q] = out_port(nodes[k], port)
    b.set_outputs(*wires)
    return m.hugr


def test_random_circuit_schedules_run_in_the_oracle_order(registry):
    rng = np.random.default_rng(77)
    against_ids = 0  # schedules that are not in plain id order
    for i in range(200):
        n = int(rng.integers(1, 7))
        make = random_circuit if i % 2 else _scrambled_circuit
        h = make(rng, n, int(rng.integers(5, 40)), registry)
        _assert_schedules_follow_the_oracle(h, registry, int(rng.integers(1 << 30)),
                                            _qubits(n))
        nodes = [step[-1] for step in h.derived(_compile_region, main_region(h)).steps]
        against_ids += nodes != sorted(nodes)
    assert against_ids > 50
