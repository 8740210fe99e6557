"""Seeded-mutation tests for PAR001 (impure parallel dispatch).

Same protocol as the EFF rule tests: a synthetic module that dispatches
only pure kernels is clean; injecting an impure dispatch target — or a
target the analysis cannot resolve — produces exactly the expected
finding.  This is the static half of the parallel executor's safety
gate; the runtime half (registry membership) is covered in
``tests/perf/test_parallel.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.statcheck.cli import main

CLEAN_MODULE = '''\
"""Synthetic sweep driver for the PAR001 battery."""

from .kernels import sweep_point


def pure_kernel(n):
    return n * n


def another_pure(n, m):
    total = 0
    for i in range(n):
        total += i * m
    return total


def enumerate_points():
    points = []
    for n in range(4):
        points.append(sweep_point(pure_kernel, n))
        points.append(sweep_point(another_pure, n, 2))
    return points
'''

IMPURE_MODULE = '''\
"""Synthetic sweep driver with an impure dispatch target."""

from .kernels import sweep_point

_SEEN = []


def leaky_kernel(n):
    _SEEN.append(n)
    return n * n


def enumerate_points():
    return [sweep_point(leaky_kernel, n) for n in range(4)]
'''

UNRESOLVED_MODULE = '''\
"""Synthetic sweep driver dispatching an unresolvable callable."""

from .kernels import sweep_point
from somewhere.else_ import mystery_kernel


def enumerate_points():
    return [sweep_point(mystery_kernel, n) for n in range(4)]
'''

COMPUTED_MODULE = '''\
"""Synthetic sweep driver dispatching a computed callable."""

from .kernels import sweep_point


def enumerate_points(table):
    return [sweep_point(table["k"], n) for n in range(4)]
'''


def _write_pkg(tmp_path: Path, body: str) -> str:
    pkg = tmp_path / "sweeppkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "kernels.py").write_text(
        "def sweep_point(fn, *args, **kwargs):\n"
        "    return (fn.__name__, args, tuple(sorted(kwargs.items())))\n"
    )
    path = pkg / "driver.py"
    path.write_text(body)
    return str(path)


def run(path: str, capsys):
    code = main(["--rules", "PAR001", path])
    return code, capsys.readouterr().out


class TestPAR001SeededMutations:
    def test_pure_dispatches_are_clean(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, CLEAN_MODULE)
        code, out = run(path, capsys)
        assert code == 0, out

    def test_impure_target_detected(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, IMPURE_MODULE)
        code, out = run(path, capsys)
        assert code != 0
        assert "PAR001" in out
        assert "leaky_kernel" in out

    def test_finding_names_the_racing_state(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, IMPURE_MODULE)
        _, out = run(path, capsys)
        assert "_SEEN" in out

    def test_unresolvable_import_detected(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, UNRESOLVED_MODULE)
        code, out = run(path, capsys)
        assert code != 0
        assert "PAR001" in out
        assert "mystery_kernel" in out

    def test_computed_callable_detected(self, tmp_path, capsys):
        path = _write_pkg(tmp_path, COMPUTED_MODULE)
        code, out = run(path, capsys)
        assert code != 0
        assert "computed callable" in out


class TestPAR001OnTheTree:
    def test_real_enumerators_are_clean(self, capsys):
        """The repository's own dispatch site (the planner report's
        layer-space pre-warm) targets only statically pure kernels."""
        report = (
            Path(__file__).resolve().parents[2]
            / "src" / "repro" / "planner" / "report.py"
        )
        code, out = run(str(report), capsys)
        assert code == 0, out
