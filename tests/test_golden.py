"""Compiled schedules stay byte-identical to recorded golden documents.

``tests/data/schedules_golden.json`` maps a case name to the
``schedule_to_document`` of that case: NEC and CEC planning states at a few
(a, p_d) with a > 0, and seeded random 4x4 and 8x8 sources against the Bell
state, each at g = 1, 2, 3 (grouped rounds go through the Birkhoff
decomposition and the multi-outcome embedding). The documents carry
Schmidt vectors from LAPACK, so the bytes belong to the numpy build that
wrote them. Regenerate the file, only for an intended change of the
compiled output, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from entconc import PHI_PLUS
from entconc.locc import compile_schedule, schedule_to_document
from entconc.noise import NoiseParams, prepare_state
from entconc.protocols import cec_planning_states, find_catalyst, nec_planning_states

GOLDEN = Path(__file__).parent / "data" / "schedules_golden.json"
GROUPS = (1, 2, 3)
PLANNING_POINTS = ((0.05, 0.0), (0.1, 0.05), (0.2, 0.02), (0.3, 0.1))
RANDOM_SEEDS = (0, 1, 2, 3)


def _inputs() -> dict:
    """Case name (without the group size) -> (source, target)."""
    out = {}
    for a, p_d in PLANNING_POINTS:
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        nec_src, nec_tgt = nec_planning_states(rho, rho)
        catalyst = find_catalyst(nec_src, nec_tgt)
        out[f"nec-a{a}-pd{p_d}"] = (nec_src, nec_tgt)
        out[f"cec-a{a}-pd{p_d}"] = cec_planning_states(rho, rho, catalyst.state)
    for seed in RANDOM_SEEDS:
        rng = np.random.default_rng(seed)
        for d in (4, 8):
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            out[f"random{d}-seed{seed}"] = (psi / np.linalg.norm(psi), PHI_PLUS)
    return out


def documents() -> dict:
    """Case name -> schedule document, for every input and group size."""
    return {
        f"{name}-g{g}": schedule_to_document(compile_schedule(src, tgt, g))
        for name, (src, tgt) in _inputs().items()
        for g in GROUPS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return documents()


def test_same_cases(golden, current):
    assert sorted(golden) == sorted(current)


def test_documents_are_byte_identical(golden, current):
    differ = [
        name for name, doc in current.items()
        if json.dumps(doc) != json.dumps(golden.get(name))
    ]
    assert differ == []


def test_grouped_rounds_reach_multi_outcome_povms(current):
    # the golden set must exercise the Birkhoff path, not only one-step rounds
    outcomes = [
        len(rnd["elements"])
        for name, doc in current.items() if not name.endswith("-g1")
        for rnd in doc["rounds"]
    ]
    assert max(outcomes) > 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(documents(), indent=1) + "\n")
