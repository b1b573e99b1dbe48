"""Checks on the library source itself."""

import ast
import re
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


# Public names that no library code, acceptance criterion or README example
# reaches, kept as the exact reference that tests compare against: each with
# the test helper that calls it.
ORACLES = (
    ("coprime.is_coprime", "test_coprime.py::brute_force_hits"),  # against verify_degree
    ("nullsets.is_solution", "test_nullsets.py::exact_solutions"),  # against enumerate_solutions
    ("permgroup.inverse", "helpers.py::random_relabelling"),  # the relabelled corpus
)


def referenced_names(tree, skip=None):
    """Every name `tree` uses as a variable, an attribute or an import,
    outside the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_public_functions_have_a_caller():
    # a public function or class serves a verdict through other library
    # code, backs an acceptance criterion or the README example, or is the
    # oracle of a named test; anything else is dead surface
    tests = Path(__file__).resolve().parent
    readme = (tests.parent / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    elsewhere = referenced_names(ast.parse((tests / "test_acceptance.py").read_text()))
    elsewhere |= referenced_names(ast.parse(example))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    oracles = {name for name, _ in ORACLES}
    found = []
    for path, tree in trees.items():
        others = set().union(*(n for p, n in names.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            callers = elsewhere | others | referenced_names(tree, skip=node)
            if node.name not in callers and f"{path.stem}.{node.name}" not in oracles:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    for name, test in ORACLES:
        # the named helper exists and calls the oracle
        file, helper = test.split("::")
        body = ast.parse((tests / file).read_text()).body
        node = next(n for n in body if getattr(n, "name", None) == helper)
        assert name.split(".")[1] in referenced_names(node), (name, test)
    assert len(SOURCES) > 1 and not found, found
