"""numpy is the package's only declared dependency: every import in
src/dworksum is the package itself, the standard library or numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dworksum"
ALLOWED = {"dworksum", "numpy"} | set(sys.stdlib_module_names)


def imported_roots(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_declared_dependencies_are_imported():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    foreign = [
        f"{path.name}:{line} imports {root}"
        for path in modules
        for line, root in imported_roots(path)
        if root not in ALLOWED
    ]
    assert not foreign, foreign

