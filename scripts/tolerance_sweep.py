"""Scale each tolerance-table entry by 10 and by 0.1, and check that a test fails.

Usage::

    python scripts/tolerance_sweep.py [pytest arguments ...]

The table is the module-level float constants below 1e-3 in
``src/entconc/qmath.py``. For each entry and each factor, the script copies
``src/`` to a temporary directory, rewrites that one entry there, and runs
pytest on the given arguments (default ``tests/test_tolerances.py``) with
the copy first on PYTHONPATH. It prints the failed-test count of every
mutation and exits 1 if some mutation leaves every test passing, and 2 if
the unmutated copy fails a test, a run ends other than by passing or
failing tests, or a run does not import the copy.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FACTORS = (10, 0.1)


def table(source: str) -> dict:
    """Name -> (value, line number) of each table entry of qmath's source.

    ``tests/test_tolerances.py`` reads the table by this rule too.
    """
    return {
        node.targets[0].id: (node.value.value, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
        and 0 < node.value.value < 1e-3
    }


def run(pytest_args: list, name: str | None = None, factor: float = 1) -> tuple:
    """(pytest exit code, summary line) on a copy of src/ with one entry scaled."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(REPO / "src", src, ignore=ignore)
        qmath = src / "entconc" / "qmath.py"
        if name is not None:
            lines = qmath.read_text().splitlines(keepends=True)
            value, lineno = table("".join(lines))[name]
            lines[lineno - 1] = f"{name} = {value * factor!r}\n"
            qmath.write_text("".join(lines))
        path = [str(src), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        where = subprocess.run(
            [sys.executable, "-c", "import entconc; print(entconc.__file__)"],
            env=env, cwd=REPO, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            print(f"error: entconc imported from {where or 'nowhere'}, not {src}", file=sys.stderr)
            sys.exit(2)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
            env=env, cwd=REPO, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(argv: list) -> int:
    pytest_args = argv or ["tests/test_tolerances.py"]
    code, summary = run(pytest_args)
    print(f"unmutated: {summary}", flush=True)
    if code != 0:
        return 2
    survivors = []
    for name, (value, _) in table((REPO / "src" / "entconc" / "qmath.py").read_text()).items():
        for factor in FACTORS:
            code, summary = run(pytest_args, name, factor)
            print(f"{name} = {value!r} x {factor}: {summary}", flush=True)
            if code == 0:
                survivors.append(f"{name} x {factor}")
            elif code != 1:
                return 2
    if survivors:
        print("every test passed under: " + ", ".join(survivors))
        return 1
    print("every mutation failed at least one test")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
