"""Layering: no module of the package imports a private name from a sibling.

A name that starts with an underscore belongs to its module. A check that
two modules need is made public where it lives, so that it has one home and
one contract.
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
