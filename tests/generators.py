"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import numpy as np

from hugr_ir import (
    Code,
    Extension,
    Hugr,
    OpDef,
    Registry,
    Value,
    ext_op,
    in_port,
    monomorphic,
    out_port,
    register,
    stdlib,
    validate,
)
from hugr_ir.build import DfBuilder, new_module
from hugr_ir.types import BOOL, F64, QUBIT, EnumType, Signature

ONE_QUBIT_GATES = ["H", "X", "Z", "T", "Tdg", "TxDg"]


def hierarchy_faults(h: Hugr) -> list:
    """``validate``'s ``NonTreeHierarchy`` diagnostics for ``h``: the audit of
    the whole tree that the graph's mutators leave to the tests."""
    return [d for d in validate(h, stdlib()) if d.code is Code.NonTreeHierarchy]


def main_region(h: Hugr) -> int:
    """The body container of the module's first function."""
    return h.children(h.root)[0]


def chain_circuit(gates: list[str], registry: Registry | None = None) -> Hugr:
    """Single-qubit circuit applying ``gates`` in order."""
    m = new_module(registry or stdlib())
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    for g in gates:
        (q,) = b.q(g, q)
    b.set_outputs(q)
    return m.hugr


def random_circuit(rng: np.random.Generator, n_qubits: int = 4, n_gates: int = 30,
                   registry: Registry | None = None, p_measure: float = 0.0,
                   p_rz: float = 0.15, ensure_rz_and_measure: bool = False) -> Hugr:
    """Random circuit over the standard gate set; angles come from constants.

    Measurement results are left dangling (copyable) unless faults are
    injected later. The signature is ``n_qubits`` qubits in and out.
    """
    reg = registry or stdlib()
    m = new_module(reg)
    row = (QUBIT,) * n_qubits
    b = m.define_function("main", Signature(row, row))
    wires = list(b.inputs())

    def add_rz(i: int) -> None:
        angle = b.const(float(rng.uniform(-np.pi, np.pi)), F64)
        (wires[i],) = b.q("Rz", wires[i], angle)

    def add_measure(i: int) -> None:
        wires[i], _flag = b.q("Measure", wires[i])

    if ensure_rz_and_measure:
        add_rz(int(rng.integers(n_qubits)))
        add_measure(int(rng.integers(n_qubits)))

    for _ in range(n_gates):
        r = rng.random()
        i = int(rng.integers(n_qubits))
        if r < p_measure:
            add_measure(i)
        elif r < p_measure + p_rz:
            add_rz(i)
        elif r < p_measure + p_rz + 0.25 and n_qubits >= 2:
            j = int(rng.integers(n_qubits - 1))
            j = j if j < i else j + 1
            wires[i], wires[j] = b.q("CX", wires[i], wires[j])
        else:
            g = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
            (wires[i],) = b.q(g, wires[i])
    b.set_outputs(*wires)
    return m.hugr


def self_recursive(registry: Registry | None = None) -> Hugr:
    """``main`` applies H, then calls itself: valid, but it never returns."""
    m = new_module(registry or stdlib())
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.q("H", q)
    (q,) = b.call(b.container, q)
    b.set_outputs(q)
    return m.hugr


# ── fault injection ────────────────────────────────────────────────

FAULT_KINDS = ("duplicate_qubit_edge", "dangling_qubit_output", "type_mismatch")


def inject_fault(h: Hugr, kind: str, rng: np.random.Generator,
                 registry: Registry) -> str:
    """Break a valid graph with one fault; returns the expected diagnostic code."""
    region = main_region(h)
    if kind == "duplicate_qubit_edge":
        edges = [e for e in h.all_edges()
                 if isinstance(e.kind, Value) and e.kind.type == QUBIT
                 and h.parent(e.src.node) == region]
        e = edges[int(rng.integers(len(edges)))]
        sink = h.add_node(ext_op(registry, "stdlib.quantum", "QFree"), region)
        h.connect(e.src, in_port(sink, 0), Value(QUBIT))
        return "LinearityViolation"
    if kind == "dangling_qubit_output":
        h.add_node(ext_op(registry, "stdlib.quantum", "QAlloc"), region)
        return "LinearityViolation"
    if kind == "type_mismatch":
        bool_ports = []
        angle_edges = []
        for n in h.children(region):
            op = h.op(n)
            if getattr(op, "name", None) == "Measure":
                bool_ports.append(out_port(n, 1))
            if getattr(op, "name", None) == "Rz":
                angle_edges.extend(h.edges_at(in_port(n, 1)))
        src = bool_ports[int(rng.integers(len(bool_ports)))]
        e = angle_edges[int(rng.integers(len(angle_edges)))]
        h.disconnect(e)
        h.connect(src, e.dst, Value(BOOL))
        return "EdgeTypeMismatch"
    raise ValueError(kind)


# ── reducible CFGs ─────────────────────────────────────────────────

def random_reducible_cfg(rng: np.random.Generator, max_blocks: int = 8,
                         registry: Registry | None = None) -> Hugr:
    """A CFG built from a structured grammar (always reducible).

    All blocks carry one qubit. Two-way branches measure a fresh ancilla, so
    scripted outcomes drive the control flow deterministically.
    """
    reg = registry or stdlib()
    specs: list[list[int] | None] = []  # successor lists; -1 is the exit
    budget = [max_blocks]

    def new_block(succs=None) -> int:
        specs.append(succs)
        budget[0] -= 1
        return len(specs) - 1

    def gen(to: int) -> int:
        """A sub-graph flowing into ``to``; returns its entry index."""
        roll = rng.random()
        if budget[0] >= 3 and roll < 0.25:
            join = new_block([to])
            left = gen(join)
            right = gen(join)
            return new_block([left, right])
        if budget[0] >= 2 and roll < 0.45:
            header = new_block(None)
            body = gen(header)
            specs[header] = [body, to]  # false: loop body, true: leave
            return header
        if budget[0] >= 1 and roll < 0.6:
            blk = new_block(None)
            specs[blk] = [blk, to]  # self-loop
            return blk
        if budget[0] >= 2 and roll < 0.8:
            rest = new_block([to])
            return new_block([rest])
        return new_block([to])

    entry_spec = gen(-1)

    m = new_module(reg)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))

    order = [entry_spec] + [i for i in range(len(specs)) if i != entry_spec]
    node_of: dict[int, int] = {}
    builders: dict[int, DfBuilder] = {}
    for i in order:
        node, body = cb.add_block((QUBIT,), len(specs[i]), (QUBIT,))
        node_of[i], builders[i] = node, body
    exit_node = cb.add_exit((QUBIT,))

    for i, succs in enumerate(specs):
        for tag, target in enumerate(succs):
            cb.link(node_of[i], tag, exit_node if target == -1 else node_of[target])

    for i, succs in enumerate(specs):
        body = builders[i]
        (bq,) = body.inputs()
        for _ in range(int(rng.integers(0, 3))):
            g = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
            (bq,) = body.q(g, bq)
        if len(succs) == 2:
            (a,) = body.q("QAlloc")
            (a,) = body.q("H", a)
            a, flag = body.q("Measure", a)
            body.q("QFree", a)
            body.set_outputs(flag, bq)
        else:
            body.set_outputs(body.tag_const(0, 1), bq)

    b.set_outputs(out)
    return m.hugr


def successor_cfg(succs: list[list[int]], registry: Registry,
                  order: list[int] | None = None) -> Hugr:
    """A one-qubit CFG whose block ``i`` branches to ``succs[i]`` (-1 is the exit).

    Block 0 is the entry. ``order`` lists the blocks in the order they get
    node ids, entry first; by default it is the list order. Block ``i``
    applies one gate picked by ``i`` and always takes its tag 0, so a run
    follows the first successors and is deterministic.
    """
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))
    node_of: dict[int, int] = {}
    for i in order or range(len(succs)):
        node, body = cb.add_block((QUBIT,), len(succs[i]), (QUBIT,))
        (bq,) = body.inputs()
        (bq,) = body.q(ONE_QUBIT_GATES[i % len(ONE_QUBIT_GATES)], bq)
        body.set_outputs(body.tag_const(0, len(succs[i])), bq)
        node_of[i] = node
    exit_node = cb.add_exit((QUBIT,))
    for i, targets in enumerate(succs):
        for tag, target in enumerate(targets):
            cb.link(node_of[i], tag, exit_node if target == -1 else node_of[target])
    b.set_outputs(out)
    return m.hugr


def measured_successor_cfg(succs: list[list[int]], registry: Registry) -> Hugr:
    """Like :func:`successor_cfg`, but a block with ``k > 1`` successors picks
    its tag by measuring fresh ancillas in |+>: tag ``j`` after ``j`` zeros
    then a one (or ``k - 1`` zeros), so scripted outcomes drive every branch.
    Block ``i`` applies H and then a gate picked by ``i``."""
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))

    def tag(body: DfBuilder, k: int, lo: int):
        if lo == k - 1:
            return body.tag_const(lo, k)
        (a,) = body.q("QAlloc")
        (a,) = body.q("H", a)
        a, flag = body.q("Measure", a)
        body.q("QFree", a)
        (t,), (zero, one) = body.conditional(flag, (), (EnumType(k),))
        zero.set_outputs(tag(zero, k, lo + 1))
        one.set_outputs(one.tag_const(lo, k))
        return t

    nodes = []
    for i, targets in enumerate(succs):
        node, body = cb.add_block((QUBIT,), len(targets), (QUBIT,))
        (bq,) = body.inputs()
        (bq,) = body.q("H", bq)
        (bq,) = body.q(ONE_QUBIT_GATES[1 + i % (len(ONE_QUBIT_GATES) - 1)], bq)
        body.set_outputs(tag(body, len(targets), 0), bq)
        nodes.append(node)
    exit_node = cb.add_exit((QUBIT,))
    for node, targets in zip(nodes, succs):
        for t, target in enumerate(targets):
            cb.link(node, t, exit_node if target == -1 else nodes[target])
    b.set_outputs(out)
    return m.hugr


def nested_cfg_module(rng: np.random.Generator, registry: Registry) -> Hugr:
    """One to three one-qubit functions whose bodies put CFGs in function
    bodies, basic blocks, ``TailLoop`` bodies and ``Conditional`` cases, two
    containers deep at most.

    Every block is row-preserving (one qubit in, one qubit passed), so each
    CFG structures. A two-way block branches on a measured ancilla.
    """
    m = new_module(registry)

    def gates(b: DfBuilder, q):
        for _ in range(int(rng.integers(0, 3))):
            (q,) = b.q(ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))], q)
        return q

    def measured_flag(b: DfBuilder):
        (a,) = b.q("QAlloc")
        (a,) = b.q("H", a)
        a, flag = b.q("Measure", a)
        b.q("QFree", a)
        return flag

    def fill(b: DfBuilder, q, depth: int):
        q = gates(b, q)
        for _ in range(int(rng.integers(not depth, 3)) if depth < 2 else 0):
            roll = rng.random()
            if roll < 0.5:
                (q,), cb = b.cfg((q,), (QUBIT,))
                # successor lists over block indices; -1 is the exit
                shape = [[[-1]], [[1], [-1]], [[0, -1]], [[1, 2], [2], [-1]]][
                    int(rng.integers(4))]
                nodes = []
                for succs in shape:
                    node, body = cb.add_block((QUBIT,), len(succs), (QUBIT,))
                    (bq,) = body.inputs()
                    bq = fill(body, bq, depth + 1)
                    tag = measured_flag(body) if len(succs) == 2 else body.tag_const(0, 1)
                    body.set_outputs(tag, bq)
                    nodes.append(node)
                exit_node = cb.add_exit((QUBIT,))
                for node, succs in zip(nodes, shape):
                    for tag, target in enumerate(succs):
                        cb.link(node, tag, exit_node if target == -1 else nodes[target])
            elif roll < 0.75:
                (q,), body = b.tail_loop((q,))
                (bq,) = body.inputs()
                bq = fill(body, bq, depth + 1)
                body.set_outputs(measured_flag(body), bq)
            else:
                (q,), cases = b.conditional(measured_flag(b), (q,), (QUBIT,))
                for cb in cases:
                    (cq,) = cb.inputs()
                    cb.set_outputs(fill(cb, cq, depth + 1))
            q = gates(b, q)
        return q

    for i in range(int(rng.integers(1, 4))):
        b = m.define_function(f"f{i}", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        b.set_outputs(fill(b, q, 0))
    return m.hugr


def cfg_per_function(k: int, registry: Registry, n_gates: int = 20) -> Hugr:
    """``k`` one-qubit functions, each ``n_gates`` gates then a one-block CFG."""
    m = new_module(registry)
    for i in range(k):
        b = m.define_function(f"f{i}", Signature((QUBIT,), (QUBIT,)))
        (q,) = b.inputs()
        for j in range(n_gates):
            (q,) = b.q(ONE_QUBIT_GATES[j % len(ONE_QUBIT_GATES)], q)
        (q,), cb = b.cfg((q,), (QUBIT,))
        node, body = cb.add_block((QUBIT,), 1, (QUBIT,))
        (bq,) = body.inputs()
        (bq,) = body.q("H", bq)
        body.set_outputs(body.tag_const(0, 1), bq)
        cb.link(node, 0, cb.add_exit((QUBIT,)))
        b.set_outputs(q)
    return m.hugr


# ── commutation rules for the performance smoke test ───────────────

def perf_setup(n_ops: int = 15, n_rules: int = 100, n_gates: int = 1000,
               n_qubits: int = 4, displacements: int = 8, seed: int = 11):
    """(registry, rules, circuit): canonical-order commutation over fake gates.

    The circuit is built per wire as a nearly sorted gate sequence; each
    displaced element costs one rule application per position it must bubble
    back, so saturation does real work yet terminates.
    """
    from hugr_ir.rewrite import Pattern, RewriteRule

    rng = np.random.default_rng(seed)
    ops = tuple(OpDef(f"g{i:02d}", monomorphic((QUBIT,), (QUBIT,)))
                for i in range(n_ops))
    ext = Extension("perf.gates", types=(), ops=ops)
    reg = register(stdlib(), ext)

    rules = []
    for i in range(n_ops):
        for j in range(i):
            if len(rules) >= n_rules:
                break
            m = new_module(reg)
            fb = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
            (q,) = fb.inputs()
            first = fb.ext("perf.gates", f"g{i:02d}", q)
            anchor = first[0].node
            (q2,) = fb.ext("perf.gates", f"g{j:02d}", *first)
            fb.set_outputs(q2)
            lhs = Pattern(m.hugr, anchor)

            m2 = new_module(reg)
            rb = m2.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
            (q,) = rb.inputs()
            (q,) = rb.ext("perf.gates", f"g{j:02d}", q)
            (q,) = rb.ext("perf.gates", f"g{i:02d}", q)
            rb.set_outputs(q)
            rules.append(RewriteRule(lhs, m2.hugr, f"swap_g{i:02d}_g{j:02d}"))
        if len(rules) >= n_rules:
            break

    per_wire = n_gates // n_qubits
    sequences = []
    for _ in range(n_qubits):
        seq = sorted(rng.integers(0, n_ops, size=per_wire).tolist())
        for _ in range(displacements):
            src = int(rng.integers(len(seq)))
            g = seq.pop(src)
            dst = max(0, min(len(seq), src + int(rng.integers(-20, 21))))
            seq.insert(dst, g)
        sequences.append(seq)

    m = new_module(reg)
    b = m.define_function("main", Signature((QUBIT,) * n_qubits, (QUBIT,) * n_qubits))
    wires = list(b.inputs())
    for w, seq in enumerate(sequences):
        for g in seq:
            (wires[w],) = b.ext("perf.gates", f"g{g:02d}", wires[w])
    b.set_outputs(*wires)
    return reg, rules, m.hugr
