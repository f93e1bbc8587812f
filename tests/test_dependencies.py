"""numpy is the package's only declared dependency: every import in
src/dworksum is the package itself, the standard library or numpy.  The
commands keep numpy's lazily imported parts out of a cold process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dworksum"
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



def test_commands_leave_numpy_ma_unloaded():
    # np.unique, among others, imports numpy.ma on first use: about 36 ms
    # and 0.5 MB in every cold process.  Every command on every sample job,
    # in a fresh interpreter, must leave it unloaded
    jobs = sorted(str(path) for path in (ROOT / "jobs").glob("*.json"))
    assert len(jobs) >= 4
    code = (
        "import json, sys\n"
        "from dworksum import cli\n"
        "for path in sys.argv[1:]:\n"
        "    for command in cli.COMMANDS:\n"
        "        cli.run(command, json.load(open(path)))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *jobs],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
