"""Command-line interface: exit codes, output discipline, determinism."""

import json
import subprocess
import sys

import pytest

from hugr_ir import encode
from hugr_ir.cli import main
from hugr_ir.programs import all_programs, rus_cfg, rus_loop
from hugr_ir.rules import hh_cancel, rz_merge
from hugr_ir.serial import encode_rule

from generators import (
    PATTERN_FAULTS,
    REPLACEMENT_FAULTS,
    chain_circuit,
    main_region,
    malformed_rule,
    self_recursive,
    stock_rule_circuit,
    successor_cfg,
)


@pytest.fixture()
def programs(registry, tmp_path):
    paths = {}
    for name, h in all_programs(registry).items():
        p = tmp_path / f"{name}.hugr.json"
        p.write_text(encode(h) + "\n")
        paths[name] = str(p)
    return paths


def test_validate_clean_program(programs, capsys):
    assert main(["validate", programs["rotation_pipeline"]]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_linearity(programs, capsys):
    assert main(["validate", programs["fanout_rejected"]]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0].startswith("LinearityViolation ")


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.hugr.json")]) == 2


def test_validate_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.hugr.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 2


def test_optimize_cancels_hadamards(registry, tmp_path, capsys):
    circuit = tmp_path / "hhhh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H"] * 4, registry)))
    rule = tmp_path / "hh.hugrrule.json"
    rule.write_text(encode_rule(hh_cancel(registry)))
    out = tmp_path / "out.hugr.json"
    assert main(["optimize", str(circuit), "--rules", str(rule),
                 "-o", str(out)]) == 0
    trace = capsys.readouterr().out.strip().splitlines()
    assert len(trace) == 2
    assert all(line.startswith("hh_cancel ") for line in trace)
    doc = json.loads(out.read_text())
    kinds = [n["op"]["kind"] for n in doc["nodes"]]
    assert kinds.count("ExtensionOp") == 0  # bare wire


def test_optimize_respects_budget(registry, tmp_path, capsys):
    circuit = tmp_path / "hhhh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H"] * 4, registry)))
    rule = tmp_path / "hh.hugrrule.json"
    rule.write_text(encode_rule(hh_cancel(registry)))
    out = tmp_path / "out.hugr.json"
    assert main(["optimize", str(circuit), "--rules", str(rule),
                 "--budget", "1", "-o", str(out)]) == 0
    trace = capsys.readouterr().out.strip().splitlines()
    assert len(trace) == 1


def test_optimize_rotation_merge_preserves_run_output(registry, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.types import F64, QUBIT, Signature

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.q("H", q)  # make the rotation observable on |0>
    (q,) = b.q("Rz", q, b.const(0.3, F64))
    (q,) = b.q("Rz", q, b.const(0.4, F64))
    b.set_outputs(q)
    src = tmp_path / "double.hugr.json"
    src.write_text(encode(m.hugr))
    rule = tmp_path / "rzmerge.hugrrule.json"
    rule.write_text(encode_rule(rz_merge(registry)))
    out = tmp_path / "merged.hugr.json"
    assert main(["optimize", str(src), "--rules", str(rule), "-o", str(out)]) == 0
    trace = capsys.readouterr().out.strip().splitlines()
    assert trace and trace[0].startswith("rz_merge ")
    doc = json.loads(out.read_text())
    rz_count = sum(1 for n in doc["nodes"]
                   if n["op"]["kind"] == "ExtensionOp" and n["op"]["name"] == "Rz")
    assert rz_count == 1

    assert main(["run", str(src), "--entry", "main", "--outcomes", "",
                 "--show-state"]) == 0
    before = capsys.readouterr().out
    assert main(["run", str(out), "--entry", "main", "--outcomes", "",
                 "--show-state"]) == 0
    assert capsys.readouterr().out == before


def test_optimize_rule_roundtrip_through_files(registry, tmp_path):
    rule = rz_merge(registry)
    text = encode_rule(rule)
    from hugr_ir.serial import decode_rule

    again = decode_rule(text)
    assert again.name == rule.name
    assert encode(again.lhs.hugr) == encode(rule.lhs.hugr)
    assert encode(again.rhs) == encode(rule.rhs)
    assert again.lhs.anchor == rule.lhs.anchor


def test_structure_removes_cfg_nodes(programs, tmp_path, capsys):
    out = tmp_path / "structured.hugr.json"
    assert main(["structure", programs["rus_cfg"], "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    kinds = [n["op"]["kind"] for n in doc["nodes"]]
    assert "CFG" not in kinds
    assert main(["validate", str(out)]) == 0


def test_structure_without_cfg_is_byte_identical(programs, tmp_path):
    out = tmp_path / "same.hugr.json"
    assert main(["structure", programs["rotation_pipeline"], "-o", str(out)]) == 0
    assert out.read_text() == open(programs["rotation_pipeline"]).read()


def _irreducible_module(registry):
    """entry -> {B, C}, B -> C, C -> {B, exit}: a cycle with two entries."""
    from hugr_ir.build import new_module
    from hugr_ir.types import QUBIT, Signature

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (out,), cb = b.cfg((q,), (QUBIT,))

    def block(succs):
        blk, body = cb.add_block((QUBIT,), succs, (QUBIT,))
        (bq,) = body.inputs()
        if succs == 2:
            (a,) = body.q("QAlloc")
            (a,) = body.q("H", a)
            a, flag = body.q("Measure", a)
            body.q("QFree", a)
            body.set_outputs(flag, bq)
        else:
            body.set_outputs(body.tag_const(0, 1), bq)
        return blk

    entry, bb, cc = block(2), block(1), block(2)
    exit_ = cb.add_exit((QUBIT,))
    cb.link(entry, 0, bb)
    cb.link(entry, 1, cc)
    cb.link(bb, 0, cc)
    cb.link(cc, 0, bb)
    cb.link(cc, 1, exit_)
    b.set_outputs(out)
    return m.hugr


def test_structure_irreducible_reports_and_writes_nothing(registry, tmp_path, capsys):
    src = tmp_path / "irreducible.hugr.json"
    src.write_text(encode(_irreducible_module(registry)))
    out_path = tmp_path / "out.hugr.json"
    assert main(["structure", str(src), "-o", str(out_path)]) == 1
    assert "IrreducibleCfg" in capsys.readouterr().err
    assert not out_path.exists()


def test_structure_keeps_an_unused_constant_beside_the_cfg(registry, tmp_path, capsys):
    from hugr_ir.build import DfBuilder
    from hugr_ir.types import F64

    def with_unused_angle(h):
        DfBuilder.attach(h, main_region(h), registry).const(0.5, F64)
        return encode(h)

    def angles(text):
        return [n["op"]["kind"] for n in json.loads(text)["nodes"]
                if n["op"].get("type") == {"ext": "stdlib.classical", "name": "f64"}]

    src = tmp_path / "one-block.hugr.json"
    src.write_text(with_unused_angle(successor_cfg([[-1]], registry)))
    out_path = tmp_path / "out.hugr.json"
    assert main(["structure", str(src), "-o", str(out_path)]) == 0
    assert angles(out_path.read_text()) == angles(src.read_text()) == ["Const", "LoadConst"]
    assert main(["validate", str(out_path)]) == 0
    # a refusal is still the same one line, and writes nothing
    src.write_text(with_unused_angle(_irreducible_module(registry)))
    out_path.unlink()
    capsys.readouterr()
    assert main(["structure", str(src), "-o", str(out_path)]) == 1
    assert capsys.readouterr().err == (
        "IrreducibleCfg: control flow is irreducible (a cycle with multiple entries)\n")
    assert not out_path.exists()


def test_structure_long_chain(registry, tmp_path, capsys):
    n = 2000
    src = tmp_path / "chain.hugr.json"
    src.write_text(encode(successor_cfg([[i + 1] for i in range(n - 1)] + [[-1]], registry)))
    out_path = tmp_path / "out.hugr.json"
    assert main(["structure", str(src), "-o", str(out_path)]) == 0
    assert "CFG" not in [n["op"]["kind"] for n in json.loads(out_path.read_text())["nodes"]]


def test_structure_double_branch_chain_against_the_flow(registry, tmp_path, capsys):
    k = 12  # each block sends both tags to the next; ids run against the flow
    src = tmp_path / "chain.hugr.json"
    src.write_text(encode(successor_cfg([[i + 1, i + 1] for i in range(k - 1)] + [[-1, -1]],
                                        registry, [0] + list(range(k - 1, 0, -1)))))
    out_path = tmp_path / "out.hugr.json"
    assert main(["structure", str(src), "-o", str(out_path)]) == 0
    assert len(json.loads(out_path.read_text())["nodes"]) <= k + 4


def test_structure_too_deep_reports_and_writes_nothing(registry, tmp_path, capsys):
    k = 600  # nested while loops
    src = tmp_path / "deep.hugr.json"
    src.write_text(encode(successor_cfg([[i + 1, i - 1] for i in range(k)] + [[k - 1]],
                                        registry)))
    out_path = tmp_path / "out.hugr.json"
    assert main(["structure", str(src), "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("UnsupportedCfg: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out_path.exists()


def test_run_rus_program(programs, capsys):
    assert main(["run", programs["rus_loop"], "--entry", "main",
                 "--outcomes", "0,1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["qubit"]


def test_run_missing_entry(programs, capsys):
    assert main(["run", programs["rus_loop"], "--entry", "nonexistent",
                 "--outcomes", "1"]) == 2


def test_run_seeded_is_deterministic(programs, capsys):
    assert main(["run", programs["rus_loop"], "--entry", "main",
                 "--seed", "7", "--show-state"]) == 0
    first = capsys.readouterr().out
    assert main(["run", programs["rus_loop"], "--entry", "main",
                 "--seed", "7", "--show-state"]) == 0
    assert capsys.readouterr().out == first


def test_run_with_classical_args(programs, capsys):
    assert main(["run", programs["rotation_pipeline"], "--entry", "main",
                 "--args", "0.3,0.4", "--outcomes", ""]) == 0
    assert capsys.readouterr().out.strip() == "qubit"


def test_run_parses_and_prints_every_classical_type(registry, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.ops import LoadFunction, value_signature
    from hugr_ir.types import F64, I64, EnumType, PolySignature, Signature

    m = new_module(registry)
    idf = m.define_function("id", Signature((F64,), (F64,)))
    idf.set_outputs(*idf.inputs())
    row = (F64, I64, EnumType(3))
    fn_type = value_signature(LoadFunction((), PolySignature(0, Signature((F64,), (F64,)))))
    b = m.define_function("main", Signature(row, row + fn_type.outputs))
    b.set_outputs(*b.inputs(), b.load_function(idf.container))
    prog = tmp_path / "typed.hugr.json"
    prog.write_text(encode(m.hugr))
    assert main(["run", str(prog), "--entry", "main", "--args", "0.5,-7,2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0.5", "-7", "tag 2 of 3", f"function {idf.container}"]


def test_run_script_exhaustion_reports(programs, capsys):
    assert main(["run", programs["rus_loop"], "--entry", "main",
                 "--outcomes", "0,0"]) == 1
    assert "ScriptExhausted" in capsys.readouterr().err


def test_run_self_recursive_function_reports(registry, tmp_path, capsys):
    path = tmp_path / "recursive.hugr.json"
    path.write_text(encode(self_recursive(registry)))
    assert main(["run", str(path), "--entry", "main", "--outcomes", ""]) == 1
    assert capsys.readouterr().err.startswith("NonTerminating: ")


def test_roundtrip_fixtures(programs, capsys):
    for name, path in programs.items():
        assert main(["roundtrip", path]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == open(path).read().strip()


def test_roundtrip_permuted_ids_prints_canonical(registry, tmp_path, capsys):
    h = chain_circuit(["H", "X"], registry)
    doc = json.loads(encode(h))
    # renumber nodes non-densely, keep referential integrity
    remap = {n["id"]: n["id"] * 7 + 3 for n in doc["nodes"]}
    for n in doc["nodes"]:
        n["id"] = remap[n["id"]]
        if n["parent"] is not None:
            n["parent"] = remap[n["parent"]]
    for e in doc["edges"]:
        e["src"][0] = remap[e["src"][0]]
        e["dst"][0] = remap[e["dst"][0]]
    src = tmp_path / "permuted.hugr.json"
    src.write_text(json.dumps(doc))
    assert main(["roundtrip", str(src)]) == 0
    assert capsys.readouterr().out.strip() == encode(h)


def test_roundtrip_corrupted_file(tmp_path):
    bad = tmp_path / "bad.hugr.json"
    bad.write_text('{"version": 1}')
    assert main(["roundtrip", str(bad)]) == 2


def test_console_entry_point(registry, tmp_path):
    path = tmp_path / "p.hugr.json"
    path.write_text(encode(chain_circuit(["H"], registry)))
    proc = subprocess.run([sys.executable, "-m", "hugr_ir.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_extension_flag_loads_declarations(registry, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.ops import Extension, OpDef, monomorphic, register
    from hugr_ir.serial import encode_extension
    from hugr_ir.types import QUBIT, Signature

    gadget = Extension("acme.gadgets",
                       ops=(OpDef("spin", monomorphic((QUBIT,), (QUBIT,))),))
    rich = register(registry, gadget)
    m = new_module(rich)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.ext("acme.gadgets", "spin", q)
    b.set_outputs(q)

    prog = tmp_path / "gadget.hugr.json"
    prog.write_text(encode(m.hugr))
    ext_file = tmp_path / "gadgets.hugrext.json"
    ext_file.write_text(encode_extension(gadget))

    assert main(["validate", str(prog)]) == 1  # unknown without the declaration
    capsys.readouterr()
    assert main(["validate", str(prog), "--ext", str(ext_file)]) == 0


def test_optimize_rule_anchored_on_input_is_a_decode_error(registry, tmp_path, capsys):
    circuit = tmp_path / "hh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H", "H"], registry)))
    doc = json.loads(encode_rule(hh_cancel(registry)))
    (input_id,) = [n["id"] for n in doc["lhs"]["nodes"] if n["op"]["kind"] == "Input"]
    doc["anchor"] = input_id
    rule = tmp_path / "bad.hugrrule.json"
    rule.write_text(json.dumps(doc))
    out = tmp_path / "out.hugr.json"
    assert main(["optimize", str(circuit), "--rules", str(rule), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "anchor" in err
    assert not out.exists()


@pytest.mark.parametrize("case", PATTERN_FAULTS + REPLACEMENT_FAULTS)
def test_optimize_refuses_a_malformed_rule_without_a_traceback(registry, tmp_path, capsys,
                                                                case):
    """A malformed pattern is refused as the rule file is read (exit 2), a
    malformed replacement as it is applied (exit 1); neither writes output."""
    circuit = tmp_path / "c.hugr.json"
    circuit.write_text(encode(stock_rule_circuit(registry)))
    rule = tmp_path / "bad.hugrrule.json"
    rule.write_text(malformed_rule(case, registry))
    out = tmp_path / "out.hugr.json"
    status = main(["optimize", str(circuit), "--rules", str(rule), "-o", str(out)])
    err = capsys.readouterr().err
    if case in PATTERN_FAULTS:
        assert (status, err.startswith("error: invalid rule ")) == (2, True), err
    else:
        assert (status, err.startswith("ValidationFailed: ")) == (1, True), err
    assert "Traceback" not in err
    assert not out.exists()


def test_optimize_invalid_replacement_reports_and_writes_nothing(registry, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.rewrite import RewriteRule
    from hugr_ir.types import QUBIT, Signature

    m = new_module(registry)
    rb = m.define_function("fragment", Signature((QUBIT,), (QUBIT,)))
    (q,) = rb.inputs()
    rb.q("QAlloc")  # dangling linear output
    rb.set_outputs(q)
    bad = RewriteRule(hh_cancel(registry).lhs, m.hugr, "bad_rhs")
    circuit = tmp_path / "hh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H", "H"], registry)))
    rule = tmp_path / "bad.hugrrule.json"
    rule.write_text(encode_rule(bad))
    out = tmp_path / "out.hugr.json"
    assert main(["optimize", str(circuit), "--rules", str(rule), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ValidationFailed: ")
    assert captured.out == ""
    assert not out.exists()


def test_run_rejects_a_foreign_qubit_type(registry, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.ops import Extension, TypeDef
    from hugr_ir.serial import encode_extension
    from hugr_ir.types import ExtType, Signature

    other = Extension("other", types=(TypeDef("qubit", linear=True),))
    qubit = ExtType("other", "qubit")
    m = new_module(registry)
    b = m.define_function("main", Signature((qubit,), (qubit,)))
    b.set_outputs(*b.inputs())
    prog = tmp_path / "foreign.hugr.json"
    prog.write_text(encode(m.hugr))
    ext_file = tmp_path / "other.hugrext.json"
    ext_file.write_text(encode_extension(other))

    assert main(["run", str(prog), "--entry", "main", "--args", "x",
                 "--ext", str(ext_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "cannot parse argument of type other.qubit"


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("outcomes", ["x,1", "2", "0,1,true", "-1"])
def test_run_rejects_outcomes_other_than_0_and_1(programs, capsys, outcomes):
    assert main(["run", programs["rus_loop"], "--entry", "main",
                 "--outcomes", outcomes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err), captured.err


def test_run_rejects_non_numeric_arguments(registry, programs, tmp_path, capsys):
    from hugr_ir.build import new_module
    from hugr_ir.types import I64, Signature

    m = new_module(registry)
    b = m.define_function("main", Signature((I64,), (I64,)))
    b.set_outputs(*b.inputs())
    ints = tmp_path / "ints.hugr.json"
    ints.write_text(encode(m.hugr))
    for path, value in [(programs["rotation_pipeline"], "x,0.4"),
                        (programs["rotation_pipeline"], "0.3,nan?"),
                        (str(ints), "1.5"), (str(ints), "seven")]:
        assert main(["run", path, "--entry", "main", "--args", value,
                     "--outcomes", ""]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_error_line(captured.err), captured.err
    assert main(["run", str(ints), "--entry", "main", "--args", "-7"]) == 0
    assert capsys.readouterr().out == "-7\n"


@pytest.mark.parametrize("ids", [["stdlib.quantum"], ["acme.x", "acme.x"]],
                         ids=["stdlib", "repeated"])
def test_extension_id_clash_is_a_usage_error(programs, tmp_path, capsys, ids):
    from hugr_ir.ops import Extension
    from hugr_ir.serial import encode_extension

    flags = []
    for k, ext_id in enumerate(ids):
        path = tmp_path / f"x{k}.hugrext.json"
        path.write_text(encode_extension(Extension(ext_id)))
        flags += ["--ext", str(path)]
    assert main(["validate", programs["rotation_pipeline"], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "already registered" in captured.err, captured.err


_COLD_START = """
import sys
import hugr_ir
hugr_ir.stdlib()
heavy = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert not heavy, f"import hugr_ir loaded {heavy}"
loaded = [m for m in ("build", "rewrite", "structure", "interp") if f"hugr_ir.{m}" in sys.modules]
assert not loaded, f"import hugr_ir loaded {loaded}"
from hugr_ir.cli import main
circuit, rule, out = sys.argv[1:]
for argv in (["validate", circuit], ["optimize", circuit, "--rules", rule, "-o", out],
             ["structure", circuit, "-o", out], ["roundtrip", circuit]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was loaded"
from hugr_ir import unitary_of
assert hugr_ir.Interpreter is hugr_ir.interp.Interpreter and callable(unitary_of)
try:
    hugr_ir.Interpretr
except AttributeError:
    pass
else:
    raise SystemExit("a misspelt name resolved")
for name in ("rewrites", "Pattrn", "structur"):
    try:
        getattr(hugr_ir, name)
    except AttributeError:
        pass
    else:
        raise SystemExit(f"a misspelt name {name} resolved")
import importlib
for name, module in hugr_ir._LAZY.items():
    mod = importlib.import_module(f"hugr_ir.{module}")
    assert getattr(hugr_ir, name) is (mod if name == module else getattr(mod, name)), name
assert hugr_ir.saturate is hugr_ir.rewrite.saturate
assert hugr_ir.validate is sys.modules["hugr_ir.validate"].validate and callable(hugr_ir.validate)
"""


def test_only_the_evaluator_loads_numpy(registry, tmp_path):
    import os

    import hugr_ir

    circuit = tmp_path / "hh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H", "H"], registry)))
    rule = tmp_path / "hh.hugrrule.json"
    rule.write_text(encode_rule(hh_cancel(registry)))
    src = os.path.dirname(os.path.dirname(hugr_ir.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(circuit), str(rule), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_validate_loads_neither_rewriting_nor_structuring(registry, tmp_path):
    import os
    import re

    import hugr_ir

    circuit = tmp_path / "h.hugr.json"
    circuit.write_text(encode(chain_circuit(["H"], registry)))
    src = os.path.dirname(os.path.dirname(hugr_ir.__file__))
    # -v reports every module loaded, also through importlib.import_module
    proc = subprocess.run([sys.executable, "-v", "-m", "hugr_ir.cli", "validate", str(circuit)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    loaded = set(re.findall(r"^import '(hugr_ir[\w.]*)'", proc.stderr, re.MULTILINE))
    assert {"hugr_ir.serial", "hugr_ir.validate"} <= loaded, loaded
    assert not loaded & {"hugr_ir.rewrite", "hugr_ir.structure", "hugr_ir.build",
                         "hugr_ir.interp"}, loaded


def test_run_rejects_a_negative_seed(programs, capsys):
    assert main(["run", programs["rus_loop"], "--entry", "main", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err), captured.err
    assert main(["run", programs["rus_loop"], "--entry", "main", "--seed", "0"]) == 0


@pytest.mark.parametrize("command", ["validate", "optimize --rules", "--ext", "run"])
def test_non_utf8_files_are_usage_errors(registry, programs, tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    good = programs["rotation_pipeline"]
    out = tmp_path / "out.hugr.json"
    argv = {
        "validate": ["validate", str(bad)],
        "optimize --rules": ["optimize", good, "--rules", str(bad), "-o", str(out)],
        "--ext": ["validate", good, "--ext", str(bad)],
        "run": ["run", str(bad), "--entry", "main", "--outcomes", ""],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and str(bad) in captured.err, captured.err
    assert not out.exists()


def test_optimize_rejects_a_negative_budget(registry, tmp_path, capsys):
    circuit = tmp_path / "hh.hugr.json"
    circuit.write_text(encode(chain_circuit(["H", "H"], registry)))
    rule = tmp_path / "hh.hugrrule.json"
    rule.write_text(encode_rule(hh_cancel(registry)))
    out = tmp_path / "out.hugr.json"
    argv = ["optimize", str(circuit), "--rules", str(rule), "-o", str(out)]
    assert main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err), captured.err
    assert not out.exists()

    # a zero budget applies nothing and writes the input back, as before
    assert main(argv + ["--budget", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget of 0 applications exhausted\n"
    assert out.read_text() == circuit.read_text() + "\n"


@pytest.mark.parametrize("command", ["optimize", "structure"])
def test_an_invalid_result_prints_what_validate_prints(registry, programs, tmp_path,
                                                      capsys, monkeypatch, command):
    import hugr_ir.cli as cli

    rule = tmp_path / "hh.hugrrule.json"
    rule.write_text(encode_rule(hh_cancel(registry)))
    out = tmp_path / "out.hugr.json"
    assert main(["validate", programs["fanout_rejected"]]) == 1
    expected = capsys.readouterr().out
    calls = []  # the final check goes through the module's ``validate``
    check = cli.validate
    monkeypatch.setattr(cli, "validate", lambda *a: calls.append(a) or check(*a))
    argv = {"optimize": ["optimize", programs["fanout_rejected"], "--rules", str(rule)],
            "structure": ["structure", programs["fanout_rejected"]]}[command]
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr() == (expected, "")
    assert len(calls) == 1 and not out.exists()

