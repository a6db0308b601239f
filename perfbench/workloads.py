"""Jobs and output checks of the four workloads.

A workload loads the generated inputs into a pool of jobs, runs one job at
a time, and checks each job's outputs against a computation the harness
makes apart from the program (sorted gate sequences, a walk of the block
spec, statevectors computed in numpy) or against a property the method
must have (a fixpoint leaves the canonical bytes untouched). ``run``
returns what the check needs; ``check`` returns None or the reason the job
is wrong. Failed operations (an exception or a nonzero exit code) are
counted apart from wrong outputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hugr_ir import cli, interp, serial
from hugr_ir.ops import stdlib

# the package re-exports the function ``validate`` under the module's name
validate_mod = importlib.import_module("hugr_ir.validate")

FIDELITY_TOL = 1e-9


class JobFailed(Exception):
    """The operation itself failed (exception or nonzero exit code)."""


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


# ── gate matrices, written out apart from the evaluator ────────────

_S2 = 1 / np.sqrt(2)
_H = np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
_TDG = np.diag([1, np.exp(-1j * np.pi / 4)])
GATES = {
    "H": _H,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "Tdg": _TDG,
    "TxDg": _H @ _TDG @ _H,
}
# what a successful repeat-until-success loop applies to its target
RUS = (np.eye(2) + 1j * np.sqrt(2) * GATES["X"]) / np.sqrt(3)


# ── CLI jobs ───────────────────────────────────────────────────────

@dataclass
class CliResult:
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``hugr`` invocation; stdout and stderr go to a sink."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobFailed(f"hugr {argv[0]} exited with {rc}: {err.getvalue().strip()[:200]}")
    return CliResult(out.getvalue(), err.getvalue())


@dataclass
class CliJob:
    argv: list[str]
    output: Path
    input_index: int
    expect: dict = field(default_factory=dict)


def wire_sequences(text: str, n_wires: int) -> list[list[str]]:
    """Gate names along each qubit wire of function ``main``, read from the
    canonical JSON document without the program's decoder."""
    doc = json.loads(text)
    nodes = {rec["id"]: rec for rec in doc["nodes"]}
    main = next(i for i, r in nodes.items()
                if r["op"]["kind"] == "FuncDef" and r["op"]["name"] == "main")
    children = [r["id"] for r in doc["nodes"] if r["parent"] == main]
    inp, outp = children[0], children[1]
    succ = {(e["src"][0], e["src"][1]): (e["dst"][0], e["dst"][1])
            for e in doc["edges"] if e["kind"] == "Value"}
    wires = []
    for w in range(n_wires):
        seq: list[str] = []
        node, off = succ[(inp, w)]
        while node != outp:
            seq.append(nodes[node]["op"]["name"])
            if len(seq) > len(nodes):
                raise ValueError("wire does not reach the output")
            node, off = succ[(node, 0)]
        if off != w:
            raise ValueError(f"wire {w} ends on output {off}")
        wires.append(seq)
    return wires


class Workload:
    """A pool of jobs cycled in whole rounds; ``job(i)`` is the i-th job."""

    pool: list

    def job(self, i: int):
        return self.pool[i % len(self.pool)]

    @property
    def round(self) -> int:
        return len(self.pool)


class Optimize(Workload):
    """``hugr optimize`` with a complete commutation rule set over fake gates."""

    def load(self, work: Path, manifest: dict) -> None:
        rules = [str(work / r) for r in manifest["rules"]]
        self.pool = [CliJob(["optimize", str(work / inp["file"]), "--rules", *rules,
                        "--ext", str(work / manifest["ext"]),
                        "-o", str(work / f"out{k}.hugr.json")],
                       work / f"out{k}.hugr.json", k, inp)
                for k, inp in enumerate(manifest["inputs"])]

    def run(self, job: CliJob) -> CliResult:
        return run_cli(job.argv)

    def check(self, job: CliJob, result: CliResult) -> str | None:
        applied = result.stdout.splitlines()
        if len(applied) != job.expect["inversions"]:
            return f"{len(applied)} applications, expected {job.expect['inversions']}"
        if result.stderr:
            return f"unexpected diagnostics: {result.stderr.strip()[:200]}"
        wires = wire_sequences(job.output.read_text(), len(job.expect["wires"]))
        for w, (got, given) in enumerate(zip(wires, job.expect["wires"])):
            if got != [f"g{g}" for g in sorted(given)]:
                return f"wire {w} is not its input sequence sorted"
        return None


class OptimizeFixpoint(Workload):
    """``hugr optimize`` with the stock rules over circuits they never match."""

    def load(self, work: Path, manifest: dict) -> None:
        rules = [str(work / r) for r in manifest["rules"]]
        self.pool = [CliJob(["optimize", str(work / inp["file"]), "--rules", *rules,
                        "-o", str(work / f"out{k}.hugr.json")],
                       work / f"out{k}.hugr.json", k,
                       {"canonical": (work / inp["file"]).read_bytes()})
                for k, inp in enumerate(manifest["inputs"])]

    def run(self, job: CliJob) -> CliResult:
        return run_cli(job.argv)

    def check(self, job: CliJob, result: CliResult) -> str | None:
        if result.stdout or result.stderr:
            return f"a rule applied at a fixpoint: {(result.stdout + result.stderr)[:200]}"
        if job.output.read_bytes() != job.expect["canonical"]:
            return "output differs from the canonical input"
        return None


# ── structure ──────────────────────────────────────────────────────

SCRIPTS_PER_INPUT = 4
WALK_CAP = 20_000  # block visits before a drawn script is discarded


def walk(spec: dict, outcomes) -> tuple[np.ndarray, list[bool]] | None:
    """Run the block spec on |0>, drawing branch outcomes from ``outcomes``.

    Returns the final one-qubit state and the outcomes consumed, or None
    when the walk has not left the CFG after WALK_CAP blocks.
    """
    state = np.array([1, 0], dtype=complex)
    used: list[bool] = []
    block = spec["entry"]
    for _ in range(WALK_CAP):
        if block == -1:
            return state, used
        for g in spec["gates"][block]:
            state = GATES[g] @ state
        succs = spec["succs"][block]
        if len(succs) == 2:
            used.append(bool(outcomes()))
            block = succs[1 if used[-1] else 0]
        else:
            block = succs[0]
    return None


def draw_scripts(spec: dict, rng: np.random.Generator):
    """Seeded outcome scripts with the state the walk predicts for each."""
    scripts = []
    while len(scripts) < SCRIPTS_PER_INPUT:
        walked = walk(spec, lambda: rng.random() < 0.5)
        if walked is not None:
            scripts.append((walked[1], walked[0]))
    return scripts


class Structure(Workload):
    """``hugr structure`` over reducible CFGs of a few hundred blocks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.verified: dict[int, bytes] = {}  # input index -> checked output

    def load(self, work: Path, manifest: dict) -> None:
        self.pool = []
        for k, inp in enumerate(manifest["inputs"]):
            rng = np.random.default_rng([self.seed, manifest["size"], k])
            self.pool.append(CliJob(["structure", str(work / inp["file"]),
                                     "-o", str(work / f"out{k}.hugr.json")],
                                    work / f"out{k}.hugr.json", k,
                                    {"scripts": draw_scripts(inp, rng)}))

    def run(self, job: CliJob) -> CliResult:
        return run_cli(job.argv)

    def check(self, job: CliJob, result: CliResult) -> str | None:
        if result.stdout or result.stderr:
            return f"unexpected output: {(result.stdout + result.stderr)[:200]}"
        data = job.output.read_bytes()
        if job.input_index in self.verified:
            # structuring is deterministic: the output must be the one checked
            return None if data == self.verified[job.input_index] else \
                "output differs from the verified output of the same input"
        problem = self._check_semantics(data, job.expect)
        if problem is None:
            self.verified[job.input_index] = data
        return problem

    @staticmethod
    def _check_semantics(data: bytes, expect: dict) -> str | None:
        """No CFG left, the output validates, and scripted shots agree with
        the harness's walk of the block spec. Untimed."""
        doc = json.loads(data)
        kinds = {r["op"]["kind"] for r in doc["nodes"]}
        if kinds & {"CFG", "BasicBlock", "ExitBlock"}:
            return "a CFG node remains"
        reg = stdlib()
        h = serial.decode(data.decode())
        diags = validate_mod.validate(h, reg)
        if diags:
            return f"output does not validate: {diags[0].render()}"
        for n, (script, state) in enumerate(expect["scripts"]):
            source = _ScriptSource(script)
            it = interp.Interpreter(h, reg, source)
            (q,) = it.run("main", [it.state.alloc()])
            got = it.state.statevector([q])
            if fidelity(got, state) < 1 - FIDELITY_TOL:
                return f"script {n}: final state disagrees with the walk"
            if source.used != len(script):
                return f"script {n}: consumed {source.used} of {len(script)} outcomes"
        return None


class _ScriptSource(interp.OutcomeSource):
    """Forces a script of measurement outcomes and counts those consumed."""

    def __init__(self, script: list[bool]):
        self.script = script
        self.used = 0

    def next_outcome(self, p_true: float) -> bool:
        if self.used >= len(self.script):
            raise interp.InterpError(f"script of {len(self.script)} outcomes exhausted")
        self.used += 1
        return self.script[self.used - 1]


# ── run-shots ──────────────────────────────────────────────────────

NARROW_SHOTS = 60
WIDE_SHOTS = 30
SUCCESS_P = 0.75


class _CountingSource(interp.Seeded):
    """Born-rule outcomes that record every success probability."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.probs: list[float] = []

    def next_outcome(self, p_true: float) -> bool:
        self.probs.append(p_true)
        return super().next_outcome(p_true)


def _prep_unitary(psi: np.ndarray) -> np.ndarray:
    """A unitary taking |0> to ``psi``."""
    a, b = psi
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)


@dataclass
class ShotJob:
    index: int
    seeds: list[int]  # one Born-rule seed per shot
    preps: list[np.ndarray]  # narrow-shot input states


@dataclass
class ShotResult:
    states: list[np.ndarray] = field(default_factory=list)
    probs: list[list[float]] = field(default_factory=list)


class RunShots(Workload):
    """Seeded shots of the repeat-until-success loop through the library.

    Every job gets fresh shot seeds, so the retry counts that set a job's
    work average out over a run instead of repeating a few fixed values.
    """

    round = 4

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, work: Path, manifest: dict) -> None:
        self.narrow = (work / manifest["narrow"]).read_text()
        self.wide = (work / manifest["wide"]).read_text()
        self.width = manifest["width"]
        e0 = np.zeros(2 ** (self.width - 1), dtype=complex)
        e1 = e0.copy()
        e0[0] = e1[-1] = 1
        self.wide_expect = (np.kron(RUS[:, 0], e0) + np.kron(RUS[:, 1], e1)) / np.sqrt(2)
        self.shot_seed = manifest["shot_seed"]

    def job(self, k: int) -> ShotJob:
        rng = np.random.default_rng([self.seed, k])
        psi = rng.normal(size=(NARROW_SHOTS, 2)) + 1j * rng.normal(size=(NARROW_SHOTS, 2))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        first = self.shot_seed + k * (NARROW_SHOTS + WIDE_SHOTS)
        return ShotJob(k, list(range(first, first + NARROW_SHOTS + WIDE_SHOTS)), list(psi))

    def run(self, job: ShotJob) -> ShotResult:
        reg = stdlib()
        narrow, wide = serial.decode(self.narrow), serial.decode(self.wide)
        for h in (narrow, wide):
            diags = validate_mod.validate(h, reg)
            if diags:
                raise JobFailed(f"program does not validate: {diags[0].render()}")
        result = ShotResult()
        for n, seed in enumerate(job.seeds):
            source = _CountingSource(seed)
            if n < NARROW_SHOTS:
                it = interp.Interpreter(narrow, reg, source)
                q = it.state.apply1(it.state.alloc(), _prep_unitary(job.preps[n]))
                outs = it.run("main", [q])
            else:
                it = interp.Interpreter(wide, reg, source)
                outs = it.run("main", [it.state.alloc() for _ in range(self.width)])
            result.states.append(it.state.statevector(outs))
            result.probs.append(source.probs)
        return result

    def check(self, job: ShotJob, result: ShotResult) -> str | None:
        if len(result.states) != len(job.seeds):
            return f"{len(result.states)} shots of {len(job.seeds)} returned"
        for n, (state, probs) in enumerate(zip(result.states, result.probs)):
            expect = RUS @ job.preps[n] if n < NARROW_SHOTS else self.wide_expect
            if fidelity(state, expect) < 1 - FIDELITY_TOL:
                return f"shot {n}: fidelity {fidelity(state, expect):.12f}"
            if not probs or any(abs(p - SUCCESS_P) > 1e-9 for p in probs):
                return f"shot {n}: attempt success probabilities {probs[:4]}"
        # retries over the job: negative binomial, mean N/3, variance 4N/9
        shots = len(job.seeds)
        retries = sum(len(p) for p in result.probs) - shots
        mean, sd = shots * (1 - SUCCESS_P) / SUCCESS_P, np.sqrt(shots * (1 - SUCCESS_P)) / SUCCESS_P
        if abs(retries - mean) > 5 * sd:
            return f"{retries} retries in {shots} shots; expected {mean:.1f} +- {sd:.1f}"
        return None


def make(name: str, seed: int) -> Workload:
    if name == "optimize":
        return Optimize()
    if name == "optimize-fixpoint":
        return OptimizeFixpoint()
    return Structure(seed) if name == "structure" else RunShots(seed)


def remove_output(job) -> None:
    """Delete a job's previous output so a stale file cannot pass a check."""
    path = getattr(job, "output", None)
    if path is not None and os.path.exists(path):
        os.remove(path)
