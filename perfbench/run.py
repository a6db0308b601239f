"""Benchmark of the ``hugr`` pipelines and the evaluator's shot loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each workload is a closed loop in this one
single-threaded process: the next job starts when the previous one has
finished and its outputs are checked. Inputs come from ``gen.py`` in a
separate process, seeded by ``--seed``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics untraced, the per-layer metrics with ``--trace 1``).
Generated inputs and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("optimize", "optimize-fixpoint", "structure", "run-shots")
SIZE_LABELS = ("small", "medium", "large")

MIN_JOBS = 40  # measured jobs per run, so the tail has ten jobs beyond it
MAX_MEASURE_S = 120.0  # hard stop, whatever MIN_JOBS asks
SETUP_PROCESSES = 7
SETUP_CODE = "import hugr_ir; hugr_ir.stdlib()"

# share of --seconds per input size in a traced run, and the jobs each needs
MEDIUM_SHARE, SWEEP_SHARE = 0.6, 0.2
TRACED_MIN_JOBS, SWEEP_MIN_JOBS = 16, 8

if not (SRC / "hugr_ir" / "__init__.py").is_file():
    sys.exit(f"error: no hugr_ir sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class SetupSampler:
    """Wall times of fresh processes that import hugr_ir and build the
    standard library: the cold start every ``hugr`` invocation pays.

    The samples are spread over the measured window, between rounds of
    jobs, so that ``setup_s`` sees the same host conditions as the jobs
    instead of the few seconds before them.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def between_rounds(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROCESSES and \
                elapsed >= len(self.times) * self.seconds / SETUP_PROCESSES:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_PROCESSES:
            self.sample()
        return statistics.median(self.times)


def generate(workload: str, seed: int, size: int, work: Path) -> dict:
    subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(seed),
                    str(size), str(work)], env=_env(), cwd=ROOT, check=True)
    return json.loads((work / "manifest.json").read_text())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []


def run_job(wl, i: int, tally: Tally, tracer=None) -> float | None:
    """Run and check job ``i``, traced when a tracer is given; returns its
    time, or None if it failed.

    Garbage is collected before the job, outside the timed region, so every
    job starts from the same collector state; collection stays enabled
    inside the job. The span wrappers are installed only around a traced
    job, so an untraced job runs the program as it is.
    """
    job = wl.job(i)
    workloads.remove_output(job)
    gc.collect()
    restore = spans.instrument(tracer) if tracer else None
    root = tracer.start_job(i) if tracer else None
    error = None
    t0 = time.perf_counter()
    try:
        result = wl.run(job)
    except Exception as exc:  # a failed operation is counted; the run goes on
        error = f"job {i}: {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_job(root)
        restore()
    tally.attempted += 1
    if error:
        tally.failed += 1
        tally.errors.append(error)
        return None
    try:
        problem = wl.check(job, result)
    except Exception as exc:  # an unreadable output is a wrong output
        problem = f"{type(exc).__name__}: {exc}"
    if problem:
        tally.wrong.append(f"job {i}: {problem}")
    return dt


def measure(wl, seconds: float, min_jobs: int, tally: Tally, tracer=None, setup=None):
    """One warm-up job, then whole rounds of the pool until ``seconds`` have
    passed and ``min_jobs`` jobs were measured. A ``SetupSampler`` takes its
    samples between rounds.

    With a tracer, every other round is traced, so traced and untraced jobs
    see the same host conditions. Returns (warm-up time, untraced job times,
    traced job times).
    """
    cold = run_job(wl, 0, tally)
    times: dict[bool, list[float]] = {False: [], True: []}
    i = 1
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and (i // wl.round) % 2 == 1
        for _ in range(wl.round):
            dt = run_job(wl, i, tally, tracer if traced else None)
            i += 1
            if dt is not None:
                times[traced].append(dt)
        elapsed = time.perf_counter() - t_start
        if setup is not None:
            setup.between_rounds(elapsed)
        if (elapsed >= seconds and i - 1 >= min_jobs) or elapsed >= MAX_MEASURE_S:
            if not times[False]:
                sys.exit(f"error: every job failed; first: {tally.errors[0]}")
            return cold, times[False], times[True]


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten jobs beyond it."""
    s = sorted(times)
    return s[max(0, len(s) - 11)]


def end_to_end(times: list[float], setup: float) -> dict:
    return {
        "setup_s": (setup, "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": (tail(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms", "_per_application")):
        return "ms"
    return "bytes" if name.endswith("_bytes") else "count"


def layer_medians(tracer) -> dict[str, float]:
    """Per-layer medians over the traced jobs."""
    per_job = [spans.job_metrics(tracer, j) for j in tracer.job_spans]
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}


def traced_run(name: str, seed: int, seconds: float, wl, work: Path, tally: Tally) -> dict:
    """Per-layer metrics, the tracing overhead against the untraced rounds,
    and a sweep over three input sizes."""
    tracer = spans.Tracer()
    cold, plain, traced = measure(wl, seconds * MEDIUM_SHARE, TRACED_MIN_JOBS, tally, tracer)
    layers = layer_medians(tracer)
    tracer.write(OUT / f"spans-{name}.json")

    metrics = {k: (v, _unit(k)) for k, v in layers.items() if k != "job_ms"}
    metrics["cli.cold_item_ms"] = (cold * 1e3 if cold else 0.0, "ms")
    traced_ips, plain_ips = len(traced) / sum(traced), len(plain) / sum(plain)
    metrics["trace.overhead_pct"] = ((plain_ips - traced_ips) / plain_ips * 100, "%")

    sweep = {}
    for label, size in zip(SIZE_LABELS, gen.SIZES[name]):
        if size == gen.SIZES[name][1]:
            point, p50 = layers, statistics.median(plain)
        else:
            sub = work / f"size{size}"
            swl = workloads.make(name, seed)
            swl.load(sub, generate(name, seed, size, sub))
            st = spans.Tracer()
            _, sized, _ = measure(swl, seconds * SWEEP_SHARE, SWEEP_MIN_JOBS, tally, st)
            point, p50 = layer_medians(st), statistics.median(sized)
        sweep[label] = {"size": size, "item_p50_ms": p50 * 1e3, **point}
        metrics[f"sweep.{label}.in_nodes"] = (point["serial.in_nodes"], "count")
        metrics[f"sweep.{label}.item_p50_ms"] = (p50 * 1e3, "ms")
    (OUT / f"trace-{name}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "traced_jobs": len(traced),
         "untraced_jobs": len(plain), "traced_items_per_s": traced_ips,
         "untraced_items_per_s": plain_ips, "sweep": sweep}, indent=1))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        manifest = generate(args.workload, args.seed, gen.SIZES[args.workload][1], work)
        wl = workloads.make(args.workload, args.seed)
        wl.load(work, manifest)
        if args.trace:
            metrics = traced_run(args.workload, args.seed, args.seconds, wl, work, tally)
        else:
            setup = SetupSampler(args.seconds)
            _, times, _ = measure(wl, args.seconds, MIN_JOBS, tally, setup=setup)
            metrics = end_to_end(times, setup.median())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in (tally.errors + tally.wrong)[:10]:
        print(msg, file=sys.stderr)
    for k, (v, unit) in metrics.items():
        print(f"{k:40s} {v:14.4f} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
