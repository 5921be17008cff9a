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
