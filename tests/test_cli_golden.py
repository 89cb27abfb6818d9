"""``entconc sweep`` CSVs stay byte-identical to recorded golden files.

Each file under ``tests/data/`` named ``sweep_<case>.csv`` is the output of
``entconc sweep`` with that case's arguments. The rows carry probabilities
and fidelities printed to 12 significant digits, so the bytes pin the
numbers of the whole pipeline: planning, the catalyst search, compilation,
noisy execution and the distillation baseline. Regenerate the files, only
for an intended change of the sweep's numbers, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from pathlib import Path

import pytest

from entconc.cli import main

DATA = Path(__file__).parent / "data"
PG_SWEEP = ["--protocols", "nec,cec,catalyst-reuse", "--axis", "pg",
            "--range", "0:0.02:0.002", "--a", "0.1", "--pd", "0.05"]
SWEEPS = {
    "pd": ["--protocols", "nec,cec,catalyst-reuse,distillation", "--axis", "pd",
           "--range", "0:0.1:0.01", "--a", "0.1"],
    "pg": PG_SWEEP,
    "pg-g2-recompile": [*PG_SWEEP, "--g", "2", "--recompile-on-reuse"],
}


def golden_path(case: str) -> Path:
    return DATA / f"sweep_{case}.csv"


def sweep(case: str, out: Path) -> None:
    assert main(["sweep", *SWEEPS[case], "--out", str(out)]) == 0


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_csv_is_byte_identical(case, tmp_path):
    out = tmp_path / "sweep.csv"
    sweep(case, out)
    assert out.read_bytes() == golden_path(case).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in SWEEPS:
        sweep(name, golden_path(name))
