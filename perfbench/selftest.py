"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, run one job on small generated inputs, confirm that its
check passes, then corrupt the output (swap two gates, drop a node, flip an
amplitude) and confirm that the check reports the job as wrong. Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run  # sets up the import path of the sources
from gen import SIZES
from workloads import make

SEED = 5


def _check(wl, job, result) -> str | None:
    try:
        return wl.check(job, result)
    except Exception as exc:  # an unreadable output is a reported failure
        return f"{type(exc).__name__}: {exc}"


def _edit_doc(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def swap_two_gates(doc: dict) -> None:
    """Exchange the ops of two gate nodes with different names."""
    gates = [r for r in doc["nodes"] if r["op"]["kind"] == "ExtensionOp"
             and r["op"]["name"] not in ("QAlloc", "QFree", "Measure")]
    first = gates[0]
    other = next(r for r in reversed(gates) if r["op"]["name"] != first["op"]["name"])
    first["op"], other["op"] = other["op"], first["op"]


def drop_a_node(doc: dict) -> None:
    """Remove the last one-qubit gate and every edge touching it."""
    victim = next(r["id"] for r in reversed(doc["nodes"])
                  if r["op"]["kind"] == "ExtensionOp" and r["op"]["name"] in ("H", "T", "X"))
    doc["nodes"] = [r for r in doc["nodes"] if r["id"] != victim]
    doc["edges"] = [e for e in doc["edges"] if victim not in (e["src"][0], e["dst"][0])]


def drop_an_application(result) -> None:
    result.stdout = "".join(result.stdout.splitlines(keepends=True)[1:])


def flip_narrow_amplitude(result) -> None:
    result.states[0][0] *= -1


def flip_wide_amplitude(result) -> None:
    result.states[-1][0] *= -1


# (label, corrupts the output file rather than the in-memory result, edit)
CORRUPTIONS = {
    "optimize": [("swap two gates", True, swap_two_gates),
                 ("drop an application from the report", False, drop_an_application)],
    "optimize-fixpoint": [("swap two gates", True, swap_two_gates),
                          ("drop a node", True, drop_a_node)],
    "structure": [("swap two gates", True, swap_two_gates),
                  ("drop a node", True, drop_a_node)],
    "run-shots": [("flip an amplitude of a one-qubit shot", False, flip_narrow_amplitude),
                  ("flip an amplitude of a GHZ shot", False, flip_wide_amplitude)],
}


def main() -> int:
    work = run.OUT / f"selftest-{os.getpid()}"
    ok = True
    try:
        for name, corruptions in CORRUPTIONS.items():
            wl = make(name, SEED)
            sub = work / name
            wl.load(sub, run.generate(name, SEED, SIZES[name][0], sub))
            job = wl.job(0)
            result = wl.run(job)
            problem = _check(wl, job, result)
            if problem:
                print(f"FAIL {name}: the check rejects a correct output: {problem}")
                ok = False
                continue
            for label, in_file, corrupt in corruptions:
                if in_file:
                    saved = job.output.read_bytes()
                    _edit_doc(job.output, corrupt)
                    getattr(wl, "verified", {}).clear()  # re-run the full check
                    problem = _check(wl, job, result)
                    job.output.write_bytes(saved)
                else:
                    bad = copy.deepcopy(result)
                    corrupt(bad)
                    problem = _check(wl, job, bad)
                if problem:
                    print(f"PASS {name}: {label} -> reported: {problem}")
                else:
                    print(f"FAIL {name}: {label} was not reported")
                    ok = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
