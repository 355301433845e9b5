"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conekit"


def test_no_assert_statements():
    """Invariant checks must survive `python -O`, which strips asserts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    assert found == []


def _load_time_nodes(node):
    """The nodes that run when the module is imported: every node but the
    bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _load_time_nodes(child)


def test_no_slow_imports_at_load_time():
    """`dataclasses` loads `inspect`, which loads `ast`, `dis` and `tokenize`,
    and `typing` is as slow: `import conekit` starts every CLI process."""
    slow = {"dataclasses", "inspect", "typing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _load_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name.partition(".")[0] in slow]
    assert found == []
