"""Command-line interface over serialized graphs.

Subcommands: validate, optimize, structure, run, roundtrip. Exit status is 0
on success, 1 when diagnostics or execution failures were reported, and 2 on
usage or IO errors. No subcommand writes an output file on nonzero exit.
"""

from __future__ import annotations

import argparse
import sys

from . import rewrite, serial, structure
from .ops import OpError, Registry, register, stdlib
from .types import EnumType, F64, I64, QUBIT
from .validate import validate

OK, REPORTED, USAGE = 0, 1, 2


def _load_registry(ext_files) -> Registry:
    registry = stdlib()
    for path in ext_files or []:
        try:
            registry = register(registry, serial.decode_extension(_read(path)))
        except OpError as exc:  # the id is already registered
            raise serial.DecodeError(f"{path}: {exc}") from exc
    return registry


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_graph(path: str):
    return serial.decode(_read(path))


def cmd_validate(args) -> int:
    registry = _load_registry(args.ext)
    h = _load_graph(args.file)
    diags = validate(h, registry)
    for d in diags:
        print(d.render())
    return REPORTED if diags else OK


def cmd_optimize(args) -> int:
    registry = _load_registry(args.ext)
    h = _load_graph(args.file)
    rules = [serial.decode_rule(_read(path)) for path in args.rules]
    try:
        h, applied = rewrite.saturate(rules, h, args.budget, registry)
    except rewrite.RewriteError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return REPORTED
    for name, anchor in applied:
        print(f"{name} {anchor}")
    if len(applied) >= args.budget:
        print(f"budget of {args.budget} applications exhausted", file=sys.stderr)
    diags = validate(h, registry)
    if diags:
        for d in diags:
            print(d.render())
        return REPORTED
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(serial.encode(h) + "\n")
    return OK


def cmd_structure(args) -> int:
    registry = _load_registry(args.ext)
    h = _load_graph(args.file)
    try:
        structure.structure_all(h, registry)
    except structure.StructuringError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return REPORTED
    diags = validate(h, registry)
    if diags:
        for d in diags:
            print(d.render())
        return REPORTED
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(serial.encode(h) + "\n")
    return OK


def _parse_args(text):
    """Comma-separated classical arguments; qubits are allocated in |0>."""
    return [s for s in (text or "").split(",") if s != ""]


def _render_value(v) -> str:
    from . import interp

    if isinstance(v, interp.EnumValue):
        if v.cardinality == 2:
            return "true" if v.tag else "false"
        return f"tag {v.tag} of {v.cardinality}"
    if isinstance(v, interp.F64Value):
        return repr(v.value)
    if isinstance(v, interp.I64Value):
        return str(v.value)
    if isinstance(v, interp.QubitValue):
        return "qubit"
    if isinstance(v, interp.FnValue):
        return f"function {v.node}"
    return repr(v)


def cmd_run(args) -> int:
    from . import interp  # the evaluator alone needs numpy

    registry = _load_registry(args.ext)
    h = _load_graph(args.file)
    diags = validate(h, registry)
    if diags:
        for d in diags:
            print(d.render())
        return REPORTED

    if args.outcomes is not None:
        script = [tok for tok in args.outcomes.split(",") if tok != ""]
        if not set(script) <= {"0", "1"}:
            print(f"error: --outcomes takes 0s and 1s, got {args.outcomes!r}", file=sys.stderr)
            return USAGE
        outcomes = interp.Scripted([tok == "1" for tok in script])
    else:
        outcomes = interp.Seeded(args.seed)

    it = interp.Interpreter(h, registry, outcomes)
    try:
        entry_node = it.find_function(args.entry)
    except interp.InterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    sig = h.op(entry_node).scheme.body

    raw = _parse_args(args.args)
    values = []
    pos = 0
    for t in sig.inputs:
        if t == QUBIT:
            values.append(it.state.alloc())
            continue
        if pos >= len(raw):
            print(f"missing classical argument for input of type {t!r}", file=sys.stderr)
            return USAGE
        tok, pos = raw[pos], pos + 1
        try:
            if t == F64:
                values.append(interp.F64Value(float(tok)))
            elif t == I64:
                values.append(interp.I64Value(int(tok)))
            elif isinstance(t, EnumType):
                values.append(interp.EnumValue(int(tok), t.cardinality))
            else:
                print(f"cannot parse argument of type {t!r}", file=sys.stderr)
                return USAGE
        except (ValueError, interp.InterpError) as exc:
            print(f"error: bad argument {tok!r} for type {t!r}: {exc}", file=sys.stderr)
            return USAGE

    try:
        outs = it.run(args.entry, values)
    except interp.InterpError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return REPORTED
    for v in outs:
        print(_render_value(v))
    if args.show_state and it.state.num_qubits:
        qubits = [v for v in outs if isinstance(v, interp.QubitValue)]
        if len(qubits) == it.state.num_qubits:
            amps = it.state.statevector(qubits)
            for i, amp in enumerate(amps):
                print(f"amp[{i:0{it.state.num_qubits}b}] = {amp.real:+.12f}{amp.imag:+.12f}j")
    return OK


def cmd_roundtrip(args) -> int:
    h = _load_graph(args.file)
    first = serial.encode(h)
    second = serial.encode(serial.decode(first))
    if first != second:
        print("canonical form is unstable", file=sys.stderr)
        return REPORTED
    print(first)
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hugr",
        description="validate, optimise, structure and execute hierarchical program graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ext(p):
        p.add_argument("--ext", action="append", metavar="FILE",
                       help="extension declaration file (.hugrext.json); repeatable")

    p = sub.add_parser("validate", help="type- and linearity-check a graph")
    p.add_argument("file")
    add_ext(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("optimize", help="apply rewrite rules to a fixpoint")
    p.add_argument("file")
    p.add_argument("--rules", nargs="+", required=True, metavar="FILE")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("-o", "--output", required=True)
    add_ext(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("structure", help="convert CFG nodes to structured control flow")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    add_ext(p)
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("run", help="execute an entry function on the reference evaluator")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--outcomes", help="comma-separated 0/1 measurement script")
    group.add_argument("--seed", type=int, default=0, help="Born-rule sampling seed")
    p.add_argument("--args", help="comma-separated classical arguments")
    p.add_argument("--show-state", action="store_true")
    add_ext(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("roundtrip", help="check canonical encode/decode stability")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.fn(args)
    except (OSError, serial.DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
