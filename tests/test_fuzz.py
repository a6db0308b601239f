"""Seeded mutations of the fixture documents, rule files and extension
files: their readers raise only DecodeError.

Each mutant changes one place in a canonical JSON document: it replaces a
value with junk, deletes a key or list item, or adds a junk key. Decoding a
mutant either succeeds or raises :class:`DecodeError`; a graph that decodes
then validates without raising, and the ``hugr`` commands reading mutant
files (rules, extensions, and graphs to structure or run) exit with a status
rather than a traceback. Mutant rules applied to a circuit and mutant
programs structured CFG by CFG leave the graph byte for byte as it was when
they are refused or undone, and a tree.
"""

import copy
import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hugr_ir import Cfg, Hugr, decode, encode
from hugr_ir.cli import main
from hugr_ir.programs import all_programs, rus_cfg
from hugr_ir.rewrite import RewriteError, apply, find_matches, undo
from hugr_ir.rules import standard_rules
from hugr_ir.serial import (
    DecodeError,
    decode_extension,
    decode_rule,
    encode_extension,
    encode_rule,
)
from hugr_ir.structure import StructuringError, structure_cfg
from hugr_ir.validate import validate

from generators import chain_circuit, hierarchy_faults, main_region, nested_cfg_module

MUTANTS = 4000

_JUNK = [
    None, True, False, -1, 0, 1, 3, 10**9, 2**64, 2.5, -0.0, "", "x", "Value", [], [0], [0, 0],
    [[0, 0]], [0, 0, 0], {}, {"ext": 1}, {"ext": "a", "name": []}, {"enum": 0},
    {"enum": "two"}, {"var": -1}, {"fn": 1}, {"params": 2, "inputs": [], "outputs": [{"var": 5}]},
    {"kind": "Nope"}, {"kind": "Const", "value": [1], "type": {"enum": 2}},
]


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(text: str, paths: list[tuple], rng: random.Random) -> str:
    doc = json.loads(text)
    *parents, key = paths[rng.randrange(len(paths))]
    container = doc
    for k in parents:
        container = container[k]
    junk = copy.deepcopy(rng.choice(_JUNK))
    action = rng.random()
    if action < 0.6:
        container[key] = junk
    elif action < 0.85:
        del container[key]
    elif isinstance(container, dict):
        container[rng.choice(["id", "op", "type", "kind", "args", "extra"])] = junk
    else:
        container.insert(key, junk)
    return json.dumps(doc)


@pytest.mark.filterwarnings("ignore:ignoring unknown document field")
def test_decode_raises_only_decode_errors(registry):
    texts = [encode(h) for h in all_programs(registry).values()] + [encode(Hugr())]
    paths = [list(_paths(json.loads(text))) for text in texts]
    rng = random.Random(2006)
    escapes = []
    decoded = 0
    for i in range(MUTANTS):
        text = _mutate(texts[i % len(texts)], paths[i % len(texts)], rng)
        try:
            h = decode(text)
        except DecodeError:
            continue
        except Exception as exc:  # every other exception is an escape
            escapes.append((type(exc).__name__, str(exc)[:80], text[:200]))
            continue
        decoded += 1
        try:
            validate(h, registry)
        except Exception as exc:
            escapes.append(("validate " + type(exc).__name__, str(exc)[:80], text[:200]))
    assert escapes == []
    assert 0 < decoded < MUTANTS  # the mutants reach both outcomes


# nesting deeper than the JSON reader's recursion limit
_DEEP = ["[" * 100_000, '{"a":' * 100_000, '{"lhs":' + "[" * 100_000,
         '{"id":"a","types":' + "[" * 100_000]


def _mutants(texts: list[str], count: int, seed: int) -> list[str]:
    paths = [list(_paths(json.loads(text))) for text in texts]
    rng = random.Random(seed)
    return [_mutate(texts[i % len(texts)], paths[i % len(texts)], rng) for i in range(count)]


@pytest.mark.filterwarnings("ignore:ignoring unknown document field")
def test_rule_and_extension_readers_raise_only_decode_errors(registry):
    escapes = []
    for read, texts in [
        (decode_rule, [encode_rule(r) for r in standard_rules(registry)]),
        (decode_extension, [encode_extension(e) for e in registry.extensions()]),
    ]:
        decoded = 0
        for text in _mutants(texts, 600, 1970) + _DEEP:
            try:
                read(text)
            except DecodeError:
                continue
            except Exception as exc:  # every other exception is an escape
                escapes.append((read.__name__, type(exc).__name__, str(exc)[:80], text[:200]))
                continue
            decoded += 1
        assert 0 < decoded < 600, read.__name__  # the mutants reach both outcomes
    assert escapes == []


@pytest.mark.filterwarnings("ignore:ignoring unknown document field")
def test_commands_exit_with_a_status_on_mutant_files(registry, tmp_path, capsys):
    circuit = tmp_path / "c.hugr.json"
    circuit.write_text(encode(chain_circuit(["H", "H", "X", "X", "H"], registry)))
    rules = [encode_rule(r) for r in standard_rules(registry)]
    # renamed, so that a mutant that keeps its id does not clash with the stdlib
    exts = [encode_extension(replace(e, id=f"fuzz.{e.id}")) for e in registry.extensions()]
    programs = [encode(h) for h in all_programs(registry).values()]
    out = str(tmp_path / "out.hugr.json")
    commands = [
        (["optimize", str(circuit), "--budget", "20", "-o", out, "--rules"],
         _mutants(rules, 150, 8) + _DEEP),
        (["validate", str(circuit), "--ext"], _mutants(exts, 150, 9) + _DEEP),
        (["structure", "-o", out], _mutants(programs, 150, 10) + _DEEP),
        # a short outcome script bounds every run; the arguments fit rotation_pipeline
        (["run", "--entry", "main", "--outcomes", "1,0,1,1,0,0,1,1", "--args", "0.5,0.25"],
         _mutants(programs, 150, 11) + _DEEP),
    ]
    escapes = []
    for argv, mutants in commands:
        statuses = set()
        for k, text in enumerate(mutants):
            path = tmp_path / f"mutant{k}.json"
            path.write_text(text)
            try:
                status = main(argv + [str(path)])
            except Exception as exc:  # a traceback
                escapes.append((argv[0], type(exc).__name__, str(exc)[:80], text[:200]))
                continue
            statuses.add(status)
            assert "Traceback" not in capsys.readouterr().err
        assert statuses <= {0, 1, 2} and len(statuses) > 1, (argv[0], statuses)
    assert escapes == []


@pytest.mark.filterwarnings("ignore:ignoring unknown document field",
                            "ignore:pruning unreachable block")
def test_refused_and_undone_mutations_leave_the_graph_as_it_was(registry):
    h = chain_circuit(["H", "H", "X", "X", "H"], registry)
    reference = encode(h)
    outcomes = Counter()
    for text in _mutants([encode_rule(r) for r in standard_rules(registry)], 1500, 8):
        try:
            rule = decode_rule(text)
        except DecodeError:
            continue
        for match in find_matches(rule.lhs, h, main_region(h)):
            try:
                delta = apply(rule, match, h, registry)
            except RewriteError:
                outcomes["refused apply"] += 1
            else:
                outcomes["undone apply"] += 1
                undo(h, delta)
            assert encode(h) == reference
            assert hierarchy_faults(h) == []
    rng = np.random.default_rng(12)
    programs = [rus_cfg(registry)] + [nested_cfg_module(rng, registry) for _ in range(3)]
    for text in _mutants([encode(p) for p in programs], 400, 12):
        try:
            g = decode(text)
        except DecodeError:
            continue
        for cfg in [n for n in reversed(g.preorder()) if isinstance(g.op(n), Cfg)]:
            before = encode(g)
            try:
                structure_cfg(g, cfg, registry)
                outcomes["structured"] += 1
            except StructuringError:
                outcomes["refused structuring"] += 1
                assert encode(g) == before
            assert hierarchy_faults(g) == []
    assert min(outcomes.values()) >= 5 and len(outcomes) == 4, outcomes
