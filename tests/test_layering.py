"""Layering: no module of the package imports a private name from a sibling.

A name that starts with an underscore belongs to its module. A check that
two modules need is made public where it lives, so that it has one home and
one contract. Likewise only ``graph.py`` reads the node-id counter
``Hugr._next_id``; the others read ``Hugr.next_id``.
"""

import ast
from pathlib import Path

import hugr_ir

PACKAGE = Path(hugr_ir.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "hugr_ir"
        if not internal:
            continue
        source = "." * node.level + (node.module or "")
        found.extend(f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                     for alias in node.names if alias.name.startswith("_"))
    return found


def test_modules_import_no_private_names_from_siblings():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def test_the_scan_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .validate import _check_node_ports, validate\n"
                      "def f():\n    from hugr_ir.graph import _new\n")
    assert _private_imports(module) == [
        "m.py:1 imports _check_node_ports from .validate",
        "m.py:3 imports _new from hugr_ir.graph",
    ]


def _next_id_reads(path: Path) -> list[str]:
    return [f"{path.name}:{node.lineno} reads ._next_id"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "_next_id"]


def test_only_the_graph_reads_the_node_id_counter():
    found = [line for path in sorted(PACKAGE.glob("*.py")) if path.name != "graph.py"
             for line in _next_id_reads(path)]
    assert found == []
    assert _next_id_reads(PACKAGE / "graph.py")


def test_the_scan_sees_a_node_id_counter_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(h):\n    return h.next_id, h._next_id\n")
    assert _next_id_reads(module) == ["m.py:2 reads ._next_id"]
