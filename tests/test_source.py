"""Checks on the library source itself."""

import ast
import sys
from pathlib import Path

import burnside

SOURCES = sorted(Path(burnside.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so a check a proof relies on must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1 and not found, found


def test_no_environment_reads():
    # every setting is a command-line flag, so a run is reproduced from its argv
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                read = getattr(node.value, "id", "") == "os"
            elif isinstance(node, ast.ImportFrom):
                read = node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names)
            else:
                continue
            if read:
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 1 and not found, found


def test_no_randomness():
    # verdicts must be reproducible, and the first use of numpy.random alone
    # costs several MB of peak memory
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                numpy = getattr(node.value, "id", "") in ("np", "numpy")
                names = ["numpy.random"] if numpy else []
            else:
                continue
            if any(n == "random" or n.startswith(("random.", "numpy.random")) for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 1 and not found, found


def test_imports_only_declared_dependencies():
    # numpy is the one runtime dependency (pyproject.toml); sympy may be
    # installed alongside, but the package must not lean on it
    allowed = set(sys.stdlib_module_names) | {"numpy", "burnside"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert len(SOURCES) > 1 and not found, found
