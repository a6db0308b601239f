"""The graph reader against the one it replaced, kept in oracles.py.

Both readers must build the same graph from every document: the same node
ids, parents, ops, children order and per-port edge lists in insertion order,
and the same id map. They must refuse the same documents with the same
:class:`DecodeError` text, except where a node or edge record holds a
non-integer that the old reader coerced with ``int`` and the new one refuses.
"""

import json
import random

import numpy as np
import pytest

from hugr_ir import Hugr, encode
from hugr_ir.programs import all_programs
from hugr_ir.rules import standard_rules
from hugr_ir.serial import DecodeError, _from_document_mapped, encode_rule

from generators import perf_setup, random_circuit, random_reducible_cfg
from oracles import naive_from_document
from test_fuzz import MUTANTS, _mutate, _paths


def _state(h: Hugr) -> tuple:
    """Everything the reader builds, in storage order."""
    return h.root, h.next_id, [(nid, nd.parent, nd.op, nd.children, nd.in_edges, nd.out_edges)
                               for nid, nd in h._nodes.items()]


def _outcome(read, doc):
    try:
        h, idmap = read(doc)
    except DecodeError as exc:
        return "error", str(exc)
    return "graph", _state(h), idmap, encode(h)


def _same(doc) -> None:
    got = _outcome(_from_document_mapped, doc)
    assert got == _outcome(naive_from_document, doc)
    assert got[0] == "graph"


def _permuted(text: str, rng: random.Random) -> dict:
    """The document with fresh node ids and shuffled node and edge records."""
    doc = json.loads(text)
    ids = rng.sample(range(10 * len(doc["nodes"])), len(doc["nodes"]))
    for rec in doc["nodes"]:
        rec["id"] = ids[rec["id"]]
        if rec["parent"] is not None:
            rec["parent"] = ids[rec["parent"]]
    for rec in doc["edges"]:
        rec["src"][0], rec["dst"][0] = ids[rec["src"][0]], ids[rec["dst"][0]]
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    return doc


def _check(texts: list[str], seed: int) -> None:
    rng = random.Random(seed)
    for text in texts:
        _same(json.loads(text))
        _same(_permuted(text, rng))


@pytest.mark.slow
def test_fixtures_and_criterion_6_graphs_decode_as_before(registry):
    texts = [encode(h) for h in all_programs(registry).values()] + [encode(Hugr())]
    rng = np.random.default_rng(66)  # the graphs of acceptance criterion 6
    for i in range(500):
        if i % 5 == 4:
            h = random_reducible_cfg(rng, max_blocks=6, registry=registry)
        else:
            h = random_circuit(rng, n_qubits=int(rng.integers(1, 5)),
                               n_gates=int(rng.integers(0, 30)),
                               registry=registry, p_measure=0.1)
        texts.append(encode(h))
    _check(texts, 6)


def test_rule_files_decode_as_before(registry):
    _, commuting, _ = perf_setup(n_rules=28, n_gates=20)
    texts = []
    for rule in standard_rules(registry) + commuting:
        doc = json.loads(encode_rule(rule))
        texts += [json.dumps(doc["lhs"]), json.dumps(doc["rhs"])]
    _check(texts, 7)


def test_large_circuits_and_cfgs_decode_as_before(registry):
    rng = np.random.default_rng(8)
    graphs = [random_circuit(rng, n_qubits=8, n_gates=1500, registry=registry, p_measure=0.05),
              random_reducible_cfg(rng, max_blocks=120, registry=registry)]
    _check([encode(h) for h in graphs], 8)


def _loose_record_integer(doc) -> bool:
    """True if a node or edge record holds a value ``int`` accepts that is
    no JSON integer: the only place the two readers may part."""
    def loose(value) -> bool:
        return type(value) is not int and isinstance(value, (bool, float, str))

    for rec in doc.get("nodes", []):
        if isinstance(rec, dict) and (loose(rec.get("id")) or loose(rec.get("parent"))):
            return True
    for rec in doc.get("edges", []):
        if isinstance(rec, dict) and any(isinstance(rec.get(end), list) and any(map(loose, rec[end]))
                                         for end in ("src", "dst")):
            return True
    return False


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:ignoring unknown document field")
def test_fuzz_mutants_decode_as_before(registry):
    # the mutants of tests/test_fuzz.py, in the same order from the same seed
    texts = [encode(h) for h in all_programs(registry).values()] + [encode(Hugr())]
    paths = [list(_paths(json.loads(text))) for text in texts]
    rng = random.Random(2006)
    outcomes = {"same graph": 0, "same error": 0, "now refused": 0}
    for i in range(MUTANTS):
        doc = json.loads(_mutate(texts[i % len(texts)], paths[i % len(texts)], rng))
        got, want = _outcome(_from_document_mapped, doc), _outcome(naive_from_document, doc)
        if got == want:
            outcomes["same graph" if got[0] == "graph" else "same error"] += 1
            continue
        # only the strict-integer rule may tell the readers apart
        assert got[0] == "error" and _loose_record_integer(doc), (doc, got, want)
        assert got[1].startswith(("nodes[", "edges[")) and "malformed" in got[1], got[1]
        outcomes["now refused"] += 1
    assert min(outcomes.values()) > 0, outcomes
