"""Print one sha256 per group of entconc outputs, as JSON.

Usage::

    PYTHONPATH=src python scripts/fingerprint.py

It hashes the outputs of the entconc found on ``PYTHONPATH``, so running it
on two checkouts and comparing the printed hashes checks that a change
leaves every output byte-identical. The groups:

``schedules``
    NEC and CEC schedules at a in {0, .05, .1, .2, .3} x p_d in
    {0, .01, .05, .1} and g = 1..6: every array and scalar field, and the
    ``schedule_to_document`` JSON.
``runs``
    ``run_schedule`` success weight and output state of those schedules at
    p_g in {0, 1e-3, 0.02}.
``catalysts``
    ``find_catalyst`` at each of those points.
``random``
    45 random sources (15 each at d = 2, 4, 8) against random targets of
    random Schmidt rank at g = 1, 2, 3: document and noiseless run.
``birkhoff``
    ``birkhoff_decompose`` of seeded random mixtures of 1-5 permutations at
    d = 2..8.
``protocols``
    ``result_to_document`` of ``run_nec``, of ``run_cec`` with
    ``find_catalyst``'s catalyst, of ``reuse_catalyst`` replayed and
    recompiled, and of ``run_distillation`` with ``optimize_distillation``'s
    plan, at each (a, p_d) above, p_g in {0, 1e-3, 0.02} and g = 1, 2, 3
    (distillation has no g); also that catalyst's ``schmidt`` and
    ``achieved_probability``.

A call that raises is hashed as its exception type and message. All calls
run in this one process, so the memos are warm wherever inputs repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

from entconc import (
    NoiseParams,
    birkhoff_decompose,
    compile_schedule,
    find_catalyst,
    optimize_distillation,
    prepare_state,
    result_to_document,
    reuse_catalyst,
    run_cec,
    run_distillation,
    run_nec,
    run_schedule,
    schedule_to_document,
)
from entconc.protocols import cec_planning_states, nec_planning_states

A_GRID = (0.0, 0.05, 0.1, 0.2, 0.3)
PD_GRID = (0.0, 0.01, 0.05, 0.1)
PG_GRID = (0.0, 1e-3, 0.02)
GROUPS = range(1, 7)


def feed(h, obj) -> None:
    """Add ``obj`` to the hash: arrays by dtype, shape and bytes, records by field."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    else:
        h.update(repr(obj).encode())


def attempt(h, func, *args) -> object:
    """``func(*args)``, or None after hashing the exception it raises."""
    try:
        return func(*args)
    except (ArithmeticError, ValueError) as exc:
        feed(h, f"{type(exc).__name__}: {exc}")
        return None


def hash_schedule(groups: dict, schedule) -> None:
    feed(groups["schedules"], schedule)
    feed(groups["schedules"], json.dumps(schedule_to_document(schedule)))
    for p_g in PG_GRID:
        feed(groups["runs"], run_schedule(schedule, p_g=p_g))


def noise_points(groups: dict) -> None:
    for a in A_GRID:
        for p_d in PD_GRID:
            rho = prepare_state(NoiseParams(a=a, p_d=p_d))
            nec = nec_planning_states(rho, rho)
            catalyst = attempt(groups["catalysts"], find_catalyst, *nec)
            feed(groups["catalysts"], catalyst)
            inputs = [nec]
            if catalyst is not None:
                inputs.append(cec_planning_states(rho, rho, catalyst.state))
            for planning in inputs:
                for g in GROUPS:
                    schedule = attempt(groups["schedules"], compile_schedule, *planning, g)
                    if schedule is not None:
                        hash_schedule(groups, schedule)


def hash_result(h, func, *args) -> object:
    """``attempt(h, func, *args)``, hashing the result's document when there is one."""
    result = attempt(h, func, *args)
    if result is not None:
        feed(h, json.dumps(result_to_document(result)))
    return result


def protocol_runs(groups: dict) -> None:
    h = groups["protocols"]
    for a in A_GRID:
        for p_d in PD_GRID:
            rho = prepare_state(NoiseParams(a=a, p_d=p_d))
            catalyst = attempt(h, find_catalyst, *nec_planning_states(rho, rho))
            if catalyst is not None:
                feed(h, [catalyst.schmidt, catalyst.achieved_probability])
            for p_g in PG_GRID:
                for g in (1, 2, 3):
                    hash_result(h, run_nec, rho, rho, g, p_g)
                    if catalyst is None:
                        continue
                    cec = hash_result(h, run_cec, rho, rho, catalyst, g, p_g)
                    if cec is None:
                        continue
                    for recompile in (False, True):
                        hash_result(h, lambda: reuse_catalyst(
                            cec, rho, rho, p_g, recompile_from_state=recompile))
                plan = attempt(h, optimize_distillation, rho, rho, p_g)
                if plan is not None:
                    hash_result(h, run_distillation, rho, rho, plan, p_g)


def random_inputs(groups: dict) -> None:
    rng = np.random.default_rng(2024)
    for d in (2, 4, 8):
        for _ in range(15):
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            source = psi / np.linalg.norm(psi)
            rank = int(rng.integers(1, d + 1))
            coeffs = rng.random(rank) + 0.05
            u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            mat = (u[:, :rank] * np.sqrt(coeffs / coeffs.sum())) @ v[:, :rank].T
            for g in (1, 2, 3):
                schedule = attempt(groups["random"], compile_schedule, source, mat.ravel(), g)
                if schedule is not None:
                    feed(groups["random"], json.dumps(schedule_to_document(schedule)))
                    feed(groups["random"], run_schedule(schedule))


def birkhoff_mixtures(groups: dict) -> None:
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        weights = rng.random(k) + 0.01
        mat = sum(w * np.eye(d)[rng.permutation(d)] for w in weights / weights.sum())
        feed(groups["birkhoff"], attempt(groups["birkhoff"], birkhoff_decompose, mat))


def main() -> int:
    groups = {name: hashlib.sha256() for name in
              ("schedules", "runs", "catalysts", "random", "birkhoff", "protocols")}
    noise_points(groups)
    protocol_runs(groups)
    random_inputs(groups)
    birkhoff_mixtures(groups)
    json.dump({name: h.hexdigest() for name, h in groups.items()}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
