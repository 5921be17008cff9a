import ast
from pathlib import Path

import psdsparse as ps


def test_every_export_resolves_once():
    names = ps.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(ps, n)] == []


def test_package_reads_no_environment():
    # results depend on the arguments alone; no setting comes from the environment
    readers = []
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "os.environ" in text or "getenv" in text:
            readers.append(path.name)
    assert readers == []


def test_lapack_goes_through_symmat():
    # symmat's wrappers turn a LAPACK failure into NoConvergence
    callers = []
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        if path.name != "symmat.py" and "np.linalg.eig" in path.read_text(encoding="utf-8"):
            callers.append(path.name)
    assert callers == []


def _unused_imports(path: Path) -> list[str]:
    """Names that path imports and never reads; `from __future__` and `# noqa` lines are skipped."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if future or "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a module's __all__ reads the names it re-exports
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        unused += _unused_imports(path)
    assert unused == []
