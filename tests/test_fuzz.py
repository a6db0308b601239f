"""Seeded mutations of the fixture documents: decode raises only DecodeError.

Each mutant changes one place in a fixture's canonical JSON document: it
replaces a value with junk, deletes a key or list item, or adds a junk key.
Decoding a mutant either succeeds or raises :class:`DecodeError`; a graph
that decodes then validates without raising.
"""

import copy
import json
import random

import pytest

from hugr_ir import Hugr, decode, encode
from hugr_ir.programs import all_programs
from hugr_ir.serial import DecodeError
from hugr_ir.validate import validate

MUTANTS = 4000

# Integers stay small: a block's port rows hold one entry per successor, so a
# huge successor count is a memory bomb rather than a malformed term.
_JUNK = [
    None, True, False, -1, 0, 1, 3, 2.5, -0.0, "", "x", "Value", [], [0], [0, 0],
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
