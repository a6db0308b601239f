"""Seeded input generators for the benchmark workloads.

Run as a separate process so that building the inputs leaves no decoded
graph in the measured process's heap:

    PYTHONPATH=src python3 perfbench/gen.py <workload> <seed> <size> <out-dir>

Each generator writes its input files and a ``manifest.json`` holding what
the harness needs to check the program's outputs (gate sequences, inversion
counts, block specs). Each generator checks its own output before writing
and raises if the inputs do not have the intended shape.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from hugr_ir import Extension, OpDef, monomorphic, programs, register, stdlib
from hugr_ir.build import DfBuilder, new_module
from hugr_ir.rewrite import Pattern, RewriteRule
from hugr_ir.rules import standard_rules
from hugr_ir.serial import encode, encode_extension, encode_rule
from hugr_ir.types import F64, QUBIT, Signature

# Inputs per pool: the measured loop cycles over these files.
POOL = 4

# The three input sizes of the scaling sweep per workload; the measured
# (untraced) runs use the middle one.
SIZES = {
    "optimize": (60, 120, 240),  # gates per wire
    "optimize-fixpoint": (600, 1200, 2400),  # gates
    "structure": (100, 200, 400),  # basic blocks
    "run-shots": (4, 8, 9),  # GHZ register width; the ancilla makes it 10
}

BENCH_EXT = "bench.gates"


# ── optimize: commutation to a canonical order ────────────────────

OPT_TYPES = 8  # fake one-qubit gates g0..g7
OPT_WIRES = 4
OPT_DISPLACEMENTS = 2  # per wire; OPT_BOUNDARIES has OPT_WIRES times as many
OPT_DISTANCE = 3  # positions each displaced gate is moved


def inversions(seq: list[int]) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


# Run boundaries the displaced gates cross, over all wires of one circuit.
# Saturation always fixes the lowest boundary first and scans every earlier
# rule to find it, so the work of a job depends on this multiset, which is
# therefore the same for every circuit; the seed deals it out to the wires.
OPT_BOUNDARIES = (0, 1, 2, 3, 3, 4, 5, 6)


def _opt_wires(rng: np.random.Generator, length: int) -> list[list[int]]:
    """Sorted wires with OPT_DISPLACEMENTS gates each moved OPT_DISTANCE places.

    Each moved gate is the last (or first) of its run of equal gates and
    passes only strictly larger (or smaller) gates, so it adds exactly
    OPT_DISTANCE inversions; the gates moved on one wire cross distinct run
    boundaries, far enough apart that their paths do not overlap.
    """
    run = length // OPT_TYPES
    if run <= 2 * OPT_DISTANCE:
        raise ValueError(f"wire length {length} too short for the displacements")
    while True:
        dealt = rng.permutation(OPT_BOUNDARIES).reshape(OPT_WIRES, OPT_DISPLACEMENTS)
        if all(len(set(row)) == OPT_DISPLACEMENTS for row in dealt):
            break
    wires = []
    for row in dealt:
        seq = [g for g in range(OPT_TYPES) for _ in range(run)]
        for b in sorted(int(x) for x in row):  # boundary b: between runs b and b + 1
            edge = (b + 1) * run  # first index of run b + 1
            if rng.random() < 0.5:
                g = seq.pop(edge - 1)  # last of run b moves right
                seq.insert(edge - 1 + OPT_DISTANCE, g)
            else:
                g = seq.pop(edge)  # first of run b + 1 moves left
                seq.insert(edge - OPT_DISTANCE, g)
        wires.append(seq)
    return wires


def _swap_rule(reg, i: int, j: int) -> RewriteRule:
    """g_i ; g_j -> g_j ; g_i for i > j."""
    m = new_module(reg)
    fb = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
    (q,) = fb.inputs()
    first = fb.ext(BENCH_EXT, f"g{i}", q)
    (q2,) = fb.ext(BENCH_EXT, f"g{j}", *first)
    fb.set_outputs(q2)
    lhs = Pattern(m.hugr, first[0].node)
    m2 = new_module(reg)
    rb = m2.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
    (q,) = rb.inputs()
    (q,) = rb.ext(BENCH_EXT, f"g{j}", q)
    (q,) = rb.ext(BENCH_EXT, f"g{i}", q)
    rb.set_outputs(q)
    return RewriteRule(lhs, m2.hugr, f"swap_g{i}_g{j}")


def gen_optimize(rng: np.random.Generator, size: int, out: Path) -> dict:
    ext = Extension(BENCH_EXT, ops=tuple(
        OpDef(f"g{i}", monomorphic((QUBIT,), (QUBIT,))) for i in range(OPT_TYPES)))
    reg = register(stdlib(), ext)
    (out / "gates.hugrext.json").write_text(encode_extension(ext))
    rule_files = []
    for i in range(OPT_TYPES):
        for j in range(i):
            name = f"swap_g{i}_g{j}.hugrrule.json"
            (out / name).write_text(encode_rule(_swap_rule(reg, i, j)))
            rule_files.append(name)

    intended = OPT_WIRES * OPT_DISPLACEMENTS * OPT_DISTANCE
    inputs = []
    for k in range(POOL):
        wires = _opt_wires(rng, size)
        count = sum(inversions(w) for w in wires)
        if count != intended:
            raise AssertionError(f"optimize input has {count} inversions, not {intended}")
        m = new_module(reg)
        b = m.define_function("main", Signature((QUBIT,) * OPT_WIRES, (QUBIT,) * OPT_WIRES))
        ws = list(b.inputs())
        for w, seq in enumerate(wires):
            for g in seq:
                (ws[w],) = b.ext(BENCH_EXT, f"g{g}", ws[w])
        b.set_outputs(*ws)
        name = f"circuit{k}.hugr.json"
        (out / name).write_text(encode(m.hugr) + "\n")
        inputs.append({"file": name, "wires": wires, "inversions": count,
                       "nodes": len(m.hugr)})
    return {"ext": "gates.hugrext.json", "rules": rule_files, "inputs": inputs}


# ── optimize-fixpoint: stock rules over circuits they never match ─

FIX_QUBITS = 8
FIX_ONE_QUBIT = ["H", "X", "Z", "T", "Tdg", "TxDg", "Rz"]
# gates the stock rules pair up when adjacent on a wire
FIX_PAIRED = {"H", "X", "Rz"}


def fixpoint_pairs(gates: list[tuple]) -> int:
    """Adjacent pairs any stock rule could match: H.H, X.X, Rz.Rz on a wire,
    and a CX following a CX of the same orientation on its control wire."""
    last: dict[int, tuple] = {}
    found = 0
    for g in gates:
        if g[0] == "CX":
            prev = last.get(g[1])
            if prev is not None and prev[0] == "CX" and prev[1:3] == g[1:3]:
                found += 1
            last[g[1]] = last[g[2]] = g
        else:
            prev = last.get(g[1])
            if prev is not None and prev[0] == g[0] and g[0] in FIX_PAIRED:
                found += 1
            last[g[1]] = g
    return found


def _fix_gates(rng: np.random.Generator, n: int) -> list[tuple]:
    """``n`` gates in a fixed mix (a quarter CX, then the one-qubit gates in
    equal shares) in seeded order on seeded wires, redrawing a wire choice
    whenever it would make a pair a stock rule matches."""
    n_cx = n // 4
    kinds = ["CX"] * n_cx + [FIX_ONE_QUBIT[i % len(FIX_ONE_QUBIT)] for i in range(n - n_cx)]
    gates: list[tuple] = []
    last: dict[int, tuple] = {}
    for name in rng.permutation(kinds):
        while True:
            if name == "CX":
                c, t = (int(x) for x in rng.choice(FIX_QUBITS, size=2, replace=False))
                prev = last.get(c)
                if prev is None or prev[:3] != ("CX", c, t):
                    g = ("CX", c, t)
                    last[c] = last[t] = g
                    break
            else:
                q = int(rng.integers(FIX_QUBITS))
                prev = last.get(q)
                if prev is None or prev[0] != name or name not in FIX_PAIRED:
                    g = (str(name), q, float(rng.uniform(-np.pi, np.pi))) if name == "Rz" \
                        else (str(name), q)
                    last[q] = g
                    break
        gates.append(g)
    return gates


def gen_fixpoint(rng: np.random.Generator, size: int, out: Path) -> dict:
    reg = stdlib()
    rule_files = []
    for rule in standard_rules(reg):
        name = f"{rule.name}.hugrrule.json"
        (out / name).write_text(encode_rule(rule))
        rule_files.append(name)
    inputs = []
    for k in range(POOL):
        gates = _fix_gates(rng, size)
        if fixpoint_pairs(gates):
            raise AssertionError("optimize-fixpoint gate list has a matching pair")
        m = new_module(reg)
        row = (QUBIT,) * FIX_QUBITS
        b = m.define_function("main", Signature(row, row))
        ws = list(b.inputs())
        for g in gates:
            if g[0] == "CX":
                ws[g[1]], ws[g[2]] = b.q("CX", ws[g[1]], ws[g[2]])
            elif g[0] == "Rz":
                (ws[g[1]],) = b.q("Rz", ws[g[1]], b.const(g[2], F64))
            else:
                (ws[g[1]],) = b.q(g[0], ws[g[1]])
        b.set_outputs(*ws)
        name = f"circuit{k}.hugr.json"
        (out / name).write_text(encode(m.hugr) + "\n")
        inputs.append({"file": name, "nodes": len(m.hugr)})
    return {"rules": rule_files, "inputs": inputs}


# ── structure: reducible CFGs from a motif grammar ────────────────

STRUCT_GATES = ["H", "X", "Z", "T", "Tdg", "TxDg"]
STRUCT_DEPTH = 3  # nesting depth of diamonds and while loops
STRUCT_MOTIF = 12  # largest motif started at the top level


class _Cfg:
    """Block specs: successor list (-1 is the exit) and gate names.

    ``shape`` draws the topology and the number of gates per block; ``gates``
    draws which gates. Every run uses the same shapes, so the structuring
    work per job is the same whatever the seed; the seed picks the gates
    and so the states the checks compare.
    """

    def __init__(self, shape: np.random.Generator, gates: np.random.Generator):
        self.rng = shape
        self.gate_rng = gates
        self.succs: list[list[int]] = []
        self.gates: list[list[str]] = []

    def block(self, succs: list[int] | None) -> int:
        self.succs.append(succs or [])
        n = int(self.rng.integers(0, 3))
        self.gates.append([STRUCT_GATES[int(self.gate_rng.integers(len(STRUCT_GATES)))]
                           for _ in range(n)])
        return len(self.succs) - 1

    def region(self, to: int, n: int, depth: int) -> int:
        """Exactly ``n`` blocks flowing into ``to``; returns the entry block."""
        cur = to
        while n > 0:
            cap = min(n, max(1, STRUCT_MOTIF >> depth))
            m = int(self.rng.integers(1, cap + 1))
            cur = self.motif(cur, m, depth)
            n -= m
        return cur

    def motif(self, to: int, m: int, depth: int) -> int:
        roll = self.rng.random()
        nested = depth < STRUCT_DEPTH
        if m >= 4 and nested and roll < 0.5:  # diamond
            join = self.block([to])
            left = int(self.rng.integers(1, m - 2))
            l_entry = self.region(join, left, depth + 1)
            r_entry = self.region(join, m - 2 - left, depth + 1)
            return self.block([l_entry, r_entry])
        if m >= 2 and nested:  # while loop: false runs the body, true leaves
            header = self.block(None)
            body = self.region(header, m - 1, depth + 1)
            self.succs[header] = [body, to]
            return header
        cur = to  # straight blocks and self-loops
        for _ in range(m):
            if self.rng.random() < 0.3:
                b = self.block(None)
                self.succs[b] = [b, cur]
                cur = b
            else:
                cur = self.block([cur])
        return cur


def _build_cfg(spec: _Cfg, entry: int, reg):
    m = new_module(reg)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))
    order = [entry] + [i for i in range(len(spec.succs)) if i != entry]
    node_of, builders = {}, {}
    for i in order:
        node_of[i], builders[i] = cb.add_block((QUBIT,), len(spec.succs[i]), (QUBIT,))
    exit_node = cb.add_exit((QUBIT,))
    for i, succs in enumerate(spec.succs):
        for tag, target in enumerate(succs):
            cb.link(node_of[i], tag, exit_node if target == -1 else node_of[target])
    for i, succs in enumerate(spec.succs):
        body = builders[i]
        (bq,) = body.inputs()
        for g in spec.gates[i]:
            (bq,) = body.q(g, bq)
        if len(succs) == 2:  # branch on measuring a fresh ancilla in |+>
            (a,) = body.q("QAlloc")
            (a,) = body.q("H", a)
            a, flag = body.q("Measure", a)
            body.q("QFree", a)
            body.set_outputs(flag, bq)
        else:
            body.set_outputs(body.tag_const(0, 1), bq)
    b.set_outputs(out)
    return m.hugr


def gen_structure(rng: np.random.Generator, size: int, out: Path) -> dict:
    reg = stdlib()
    inputs = []
    for k in range(POOL):
        spec = _Cfg(np.random.default_rng([k, size]), rng)
        entry = spec.region(-1, size, 0)
        if len(spec.succs) != size:
            raise AssertionError(f"structure CFG has {len(spec.succs)} blocks, not {size}")
        h = _build_cfg(spec, entry, reg)
        name = f"cfg{k}.hugr.json"
        (out / name).write_text(encode(h) + "\n")
        inputs.append({"file": name, "entry": entry, "succs": spec.succs,
                       "gates": spec.gates, "nodes": len(h)})
    return {"inputs": inputs}


# ── run-shots: repeat-until-success on one qubit and on a GHZ register

def _rus_round(b: DfBuilder, q):
    """One attempt of (I + i*sqrt(2)*X)/sqrt(3): the gate sequence of
    ``hugr_ir.programs.rus_loop``. Returns (success flag, target qubit)."""
    (a,) = b.q("QAlloc")
    for g in ("TxDg", "T", "T"):
        (a,) = b.q(g, a)
    (q,) = b.q("TxDg", q)
    a, q = b.q("CX", a, q)
    (a,) = b.q("H", a)
    (a,) = b.q("T", a)
    (q,) = b.q("TxDg", q)
    q, a = b.q("CX", q, a)
    (a,) = b.q("Z", a)
    (a,) = b.q("H", a)
    a, flag = b.q("Measure", a)
    b.q("QFree", a)
    (q,), cases = b.conditional(flag, (q,), (QUBIT,))
    retry, done = cases
    retry.set_outputs(*retry.q("Z", *retry.inputs()))
    done.set_outputs(*done.inputs())
    return flag, q


def rus_on_ghz(width: int, reg):
    """``width`` qubits in |0>: prepare GHZ, then run the RUS loop on qubit 0."""
    m = new_module(reg)
    row = (QUBIT,) * width
    b = m.define_function("main", Signature(row, row))
    ws = list(b.inputs())
    (ws[0],) = b.q("H", ws[0])
    for i in range(1, width):
        ws[i - 1], ws[i] = b.q("CX", ws[i - 1], ws[i])
    (q_final,), body = b.tail_loop((ws[0],))
    (lq,) = body.inputs()
    body.set_outputs(*_rus_round(body, lq))
    b.set_outputs(q_final, *ws[1:])
    return m.hugr


def gen_shots(rng: np.random.Generator, size: int, out: Path) -> dict:
    reg = stdlib()
    narrow = programs.rus_loop(reg)
    wide = rus_on_ghz(size, reg)
    (out / "rus_loop.hugr.json").write_text(encode(narrow) + "\n")
    (out / "rus_ghz.hugr.json").write_text(encode(wide) + "\n")
    return {"narrow": "rus_loop.hugr.json", "wide": "rus_ghz.hugr.json", "width": size,
            "shot_seed": int(rng.integers(2**31))}


GENERATORS = {"optimize": gen_optimize, "optimize-fixpoint": gen_fixpoint,
              "structure": gen_structure, "run-shots": gen_shots}


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, size])
    manifest = GENERATORS[workload](rng, size, out)
    manifest.update(workload=workload, seed=seed, size=size)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
