"""Per-layer spans recorded from outside the program.

``instrument`` replaces the public functions at each layer boundary with
wrappers that record a span (name, start, end, parent, job) around the
call. It patches the module attributes that callers resolve at call time,
so nothing under ``src/`` changes. Spans and counters are kept in memory
and written out when the run ends; ``job_metrics`` folds one job's spans
into the per-layer figures.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import defaultdict

from hugr_ir import build, cli, interp, rewrite, serial, structure
from hugr_ir.ops import BasicBlock

# the package re-exports the function ``validate`` under the module's name
validate_mod = importlib.import_module("hugr_ir.validate")

VALIDATE = ("validate.validate", "validate.validate_region")
SPLICE = "build.splice_region"
KERNELS = ("alloc", "apply1", "apply2", "measure", "free")


class Tracer:
    """Spans of the current job; one instance per run, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self.job: int | None = None
        self.job_spans: dict[int, range] = {}  # job -> its contiguous span indices
        self._gc_start = 0.0
        self.t0 = time.perf_counter()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.job is not None:
            self.counts[self.job][name] += value

    def start_job(self, job: int) -> int:
        self.job = job
        return self.begin("job")

    def end_job(self, index: int) -> None:
        self.end(index)
        self.job_spans[self.job] = range(index, len(self.spans))
        self.job = None

    def gc_callback(self, phase: str, info: dict) -> None:
        if self.job is None:
            return  # collections between jobs are outside the measurement
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.count("py.gc_ms", (time.perf_counter() - self._gc_start) * 1e3)
            self.count("py.gc_collections")

    def write(self, path) -> None:
        """Write every span, times in seconds since the tracer was made."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"],
                       "spans": [[n, round(s - self.t0, 7), round(e - self.t0, 7), p, j]
                                 for n, s, e, p, j in self.spans]}, f)


def _wrap(tracer: Tracer, owner, attr: str, name: str, before=None, after=None):
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, fn


def _count_blocks(tracer: Tracer, args) -> None:
    h = args[0]
    tracer.count("structure.in_blocks",
                 sum(1 for n in h.preorder() if isinstance(h.op(n), BasicBlock)))


def instrument(tracer: Tracer):
    """Install the span wrappers; returns a function that removes them."""
    wrapped = [
        _wrap(tracer, serial, "decode", "serial.decode",
              after=lambda t, a, r: t.count("serial.in_nodes", len(r))),
        _wrap(tracer, serial, "encode", "serial.encode",
              after=lambda t, a, r: t.count("serial.out_bytes", len(r))),
        _wrap(tracer, serial, "decode_rule", "serial.decode_rule"),
        # the CLI binds ``validate`` at import; structure and interp import it per call
        _wrap(tracer, cli, "validate", "validate.validate"),
        _wrap(tracer, validate_mod, "validate", "validate.validate"),
        _wrap(tracer, validate_mod, "validate_region", "validate.validate_region"),
        _wrap(tracer, rewrite, "saturate", "rewrite.saturate"),
        _wrap(tracer, rewrite, "apply", "rewrite.apply"),
        _wrap(tracer, rewrite, "splice_region", SPLICE),
        _wrap(tracer, structure, "splice_region", SPLICE),
        _wrap(tracer, build, "splice_region", SPLICE),
        _wrap(tracer, structure, "structure_all", "structure.structure_all",
              before=_count_blocks,
              after=lambda t, a, r: t.count("structure.out_nodes", len(r))),
        _wrap(tracer, interp.Interpreter, "__init__", "interp.init"),
        _wrap(tracer, interp.Interpreter, "run", "interp.run"),
    ]
    for k in KERNELS:
        wrapped.append(_wrap(tracer, interp.QuantumState, k, f"interp.kernel.{k}"))
    gc.callbacks.append(tracer.gc_callback)

    def restore() -> None:
        gc.callbacks.remove(tracer.gc_callback)
        for owner, attr, fn in reversed(wrapped):
            setattr(owner, attr, fn)

    return restore


def _under(spans: list[list], i: int, names) -> bool:
    """True when a proper ancestor of span ``i`` is named in ``names``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def job_metrics(tracer: Tracer, job: int) -> dict[str, float]:
    """Per-layer figures of one job, in ms and counts."""
    spans = tracer.spans
    idx = tracer.job_spans[job]
    root = idx[0]
    ms = {i: (spans[i][2] - spans[i][1]) * 1e3 for i in idx}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in idx:
        by_name[spans[i][0]].append(i)

    def total(names, exclude_under=()) -> float:
        return sum(ms[i] for n in names for i in by_name.get(n, ())
                   if not _under(spans, i, exclude_under))

    def nested(outer: str, names) -> float:
        """Time of outermost ``names`` spans inside ``outer`` spans."""
        return sum(ms[i] for n in names for i in by_name.get(n, ())
                   if not _under(spans, i, names) and _under(spans, i, (outer,)))

    kernels = [f"interp.kernel.{k}" for k in KERNELS]
    validate_top = [i for n in VALIDATE for i in by_name.get(n, ())
                    if not _under(spans, i, VALIDATE)]
    saturate = total(["rewrite.saturate"])
    applications = len(by_name.get("rewrite.apply", ()))
    scan = saturate - nested("rewrite.saturate", ["rewrite.apply"])
    structure = total(["structure.structure_all"])
    run = total(["interp.run"])
    top_level = sum(ms[i] for i in idx if spans[i][3] == root)
    counts = tracer.counts.get(job, {})
    return {
        "serial.decode_ms": total(["serial.decode"]),
        "serial.encode_ms": total(["serial.encode"]),
        "serial.rule_decode_ms": total(["serial.decode_rule"]),
        "serial.in_nodes": counts.get("serial.in_nodes", 0),
        "serial.out_bytes": counts.get("serial.out_bytes", 0),
        "validate.ms": sum(ms[i] for i in validate_top),
        "validate.calls": len(validate_top),
        "rewrite.saturate_ms": saturate,
        "rewrite.apply_ms": total(["rewrite.apply"]),
        "rewrite.scan_ms": scan,
        "rewrite.applications": applications,
        "rewrite.scan_ms_per_application": scan / max(1, applications),
        "build.splice_ms": total([SPLICE], exclude_under=(SPLICE,)),
        "build.splice_calls": sum(1 for i in by_name.get(SPLICE, ())
                                  if not _under(spans, i, (SPLICE,))),
        "structure.ms": structure,
        "structure.self_ms": structure - nested("structure.structure_all",
                                                list(VALIDATE) + [SPLICE]),
        "structure.in_blocks": counts.get("structure.in_blocks", 0),
        "structure.out_nodes": counts.get("structure.out_nodes", 0),
        "interp.init_ms": total(["interp.init"]),
        "interp.run_ms": run,
        "interp.kernel_ms": total(kernels),
        "interp.dispatch_ms": run - nested("interp.run", kernels),
        "interp.kernel_calls": sum(len(by_name.get(k, ())) for k in kernels),
        "interp.measurements": len(by_name.get("interp.kernel.measure", ())),
        "py.gc_ms": counts.get("py.gc_ms", 0.0),
        "py.gc_collections": counts.get("py.gc_collections", 0),
        "cli.self_ms": ms[root] - top_level,
        "job_ms": ms[root],
    }
