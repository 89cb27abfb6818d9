"""Acceptance suite: one test per shipped criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test prints its measured values and asserts both the
numeric tolerance and the stated wall-time budget.

Criterion 5 checks that at a=0 the deterministic conversion sacrifices one
whole pair, so the output inherits one pair's depolarizing noise: output
infidelity equals p_d, slope 1 in the window [0.8, 1.2].
"""

import time

import numpy as np

from conftest import bell_diagonal, random_bipartite, werner

from entconc import (
    DiagonalPOVM,
    NoiseParams,
    birkhoff_decompose,
    build_doubly_stochastic,
    compile_schedule,
    dejmps_plan,
    embed_povm,
    execute_round,
    find_catalyst,
    optimize_distillation,
    prepare_state,
    run_cec,
    run_distillation,
    run_nec,
    run_schedule,
    schmidt_decompose,
    synthesize,
    t_transform_decompose,
    vidal_probability,
)
from entconc.locc import ScheduleRound
from entconc.majorize import TTransform, expand_ttransform, permutation_matrix
from entconc.protocols import cec_planning_states, nec_planning_states


def padded_bell(d_l, d_r):
    """Bell state embedded on the leading qubit of each register."""
    mat = np.zeros((d_l, d_r), dtype=complex)
    mat[0, 0] = np.sqrt(0.5)
    mat[d_l // 2, d_r // 2] = np.sqrt(0.5)
    return mat.ravel()


def random_majorized_pair(rng, d):
    beta = np.sort(rng.random(d) + 0.02)[::-1]
    beta = beta / beta.sum()
    mix = np.eye(d)
    for _ in range(int(rng.integers(1, d + 2))):
        j, k = sorted(rng.choice(d, size=2, replace=False))
        mix = expand_ttransform(TTransform(int(j), int(k), float(rng.random())),
                                d) @ mix
    alpha = np.sort(mix @ beta)[::-1]
    return alpha, beta


def test_criterion_01_vidal_desk_checks():
    start = time.perf_counter()
    p1 = vidal_probability([0.8, 0.2], [0.5, 0.5])
    alpha2 = np.sort(np.outer([0.75, 0.25], [0.75, 0.25]).ravel())[::-1]
    p2 = vidal_probability(alpha2, [0.5, 0.5, 0.0, 0.0])
    elapsed = time.perf_counter() - start
    print(f"criterion 1: p1={p1:.12f} p2={p2:.12f} elapsed={elapsed:.3f}s")
    assert abs(p1 - 0.4) < 1e-9
    assert abs(p2 - 0.875) < 1e-9
    assert elapsed < 1.0


def test_criterion_02_conclusive_purity(rng):
    start = time.perf_counter()
    worst_p = 0.0
    worst_f = 0.0
    for trial in range(200):
        d = int(rng.choice([2, 4, 8], p=[0.5, 0.35, 0.15]))
        psi = random_bipartite(rng, d, d)
        target = padded_bell(d, d)
        alpha = schmidt_decompose(psi, d, d).coefficients
        beta = np.zeros(d)
        beta[:2] = 0.5
        expected = vidal_probability(alpha, beta)
        for g in (1, 2, 63):
            sched = compile_schedule(psi, target, g)
            w, out = run_schedule(sched)
            fid = float(np.real(target.conj() @ out @ target))
            worst_p = max(worst_p, abs(w - expected))
            worst_f = max(worst_f, abs(fid - 1.0))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: max|p-vidal|={worst_p:.2e} "
          f"max|fid-1|={worst_f:.2e} elapsed={elapsed:.1f}s")
    assert worst_p < 1e-9
    assert worst_f < 1e-9
    assert elapsed < 60.0


def test_criterion_03_naimark_equivalence(rng):
    start = time.perf_counter()
    d = 4
    worst_w = 0.0
    worst_s = 0.0
    for trial in range(1000):
        a = rng.random(d)
        povm = DiagonalPOVM(
            elements=[a, 1.0 - a],
            corrections=[np.arange(d), np.arange(d)],
        )
        emb = embed_povm(povm)
        rep = synthesize(emb)
        rnd = ScheduleRound(povm, emb, rep, a, a)
        psi = random_bipartite(rng, d, d)
        big = np.zeros(d * 2 * d, dtype=complex)
        big.reshape(d, 2, d)[:, 0, :] = psi.reshape(d, d)
        branches = execute_round(np.outer(big, big.conj()), rnd, p_g=0.0)
        for m, (w, post, _) in enumerate(branches):
            el = povm.elements[m]
            expected_w = float(np.real(
                psi.conj() @ (np.kron(np.diag(el), np.eye(d)) @ psi)))
            worst_w = max(worst_w, abs(w - expected_w))
            ref = (np.sqrt(el)[:, None] * psi.reshape(d, d)).ravel()
            ref = ref / np.linalg.norm(ref)
            block = post.reshape(d, 2, d, d, 2, d)[:, 0, :, :, 0, :]
            block = block.reshape(d * d, d * d)
            overlap = float(np.real(ref.conj() @ block @ ref))
            worst_s = max(worst_s, abs(overlap - 1.0))
    elapsed = time.perf_counter() - start
    print(f"criterion 3: max weight err={worst_w:.2e} "
          f"max state err={worst_s:.2e} elapsed={elapsed:.1f}s")
    assert worst_w < 1e-10
    assert worst_s < 1e-10
    assert elapsed < 30.0


def test_criterion_04_decomposition_bounds(rng):
    start = time.perf_counter()
    worst_t = 0.0
    worst_b = 0.0
    for trial in range(500):
        d = int(rng.integers(2, 9))
        alpha, beta = random_majorized_pair(rng, d)
        ts = t_transform_decompose(alpha, beta)
        assert len(ts) <= d - 1
        dmat = build_doubly_stochastic(alpha, beta)
        prod = np.eye(d)
        for t in ts:
            prod = expand_ttransform(t, d) @ prod
        worst_t = max(worst_t, float(np.max(np.abs(prod - dmat))))
        terms = birkhoff_decompose(dmat)
        assert len(terms) <= (d - 1) ** 2 + 1
        rec = sum(w * permutation_matrix(p) for w, p in terms)
        worst_b = max(worst_b, float(np.max(np.abs(rec - dmat))))
    elapsed = time.perf_counter() - start
    print(f"criterion 4: max T recon={worst_t:.2e} "
          f"max Birkhoff recon={worst_b:.2e} elapsed={elapsed:.1f}s")
    assert worst_t < 1e-10
    assert worst_b < 1e-10
    assert elapsed < 30.0


def test_criterion_05_linear_infidelity_law():
    start = time.perf_counter()
    pds = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
    nec_inf = []
    cec_inf = []
    for p_d in pds:
        rho = prepare_state(NoiseParams(a=0.0, p_d=float(p_d)))
        nec_inf.append(run_nec(rho, rho).infidelity)
        cat = find_catalyst(*nec_planning_states(rho, rho))
        cec_inf.append(run_cec(rho, rho, cat).infidelity)
    nec_inf = np.array(nec_inf)
    cec_inf = np.array(cec_inf)
    nec_slope = float(np.polyfit(pds, nec_inf, 1)[0])
    cec_slope = float(np.polyfit(pds, cec_inf, 1)[0])
    elapsed = time.perf_counter() - start
    print(f"criterion 5: nec slope={nec_slope:.4f} cec slope={cec_slope:.4f} "
          f"nec infid={np.round(nec_inf, 6).tolist()} "
          f"cec infid={np.round(cec_inf, 6).tolist()} elapsed={elapsed:.1f}s")
    assert elapsed < 60.0
    assert np.all(nec_inf < 2.0 * pds)
    assert np.all(cec_inf < 2.0 * pds)
    # One whole pair is measured out, so infidelity is p_d: slope 1.
    assert 0.8 <= nec_slope <= 1.2
    assert 0.8 <= cec_slope <= 1.2


def test_criterion_06_coherent_error_plateau():
    start = time.perf_counter()
    grid = [0.0, 0.02, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5]
    nec_s = []
    cec_s = []
    for a in grid:
        rho = prepare_state(NoiseParams(a=a, p_d=0.05))
        nec_s.append(run_nec(rho, rho).success_probability)
        cat = find_catalyst(*nec_planning_states(rho, rho))
        cec_s.append(run_cec(rho, rho, cat).success_probability)
    elapsed = time.perf_counter() - start
    print(f"criterion 6: nec={np.round(nec_s, 9).tolist()} "
          f"cec={np.round(cec_s, 9).tolist()} elapsed={elapsed:.1f}s")

    def plateau_end(vals):
        end = -1
        for i, v in enumerate(vals):
            if abs(v - 1.0) <= 1e-6:
                end = i
            else:
                break
        return end

    nec_end = plateau_end(nec_s)
    cec_end = plateau_end(cec_s)
    assert nec_end >= 2, "NEC success must be 1 for small coherent errors"
    assert cec_end >= nec_end
    for seq, end in ((nec_s, nec_end), (cec_s, cec_end)):
        tail = seq[end:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
    assert elapsed < 120.0


def test_criterion_07_catalysis_dominance():
    start = time.perf_counter()
    worst_gap = np.inf
    for a in (0.0, 0.1, 0.2, 0.35, 0.5):
        for p_d in (0.0, 0.02, 0.05, 0.1):
            rho = prepare_state(NoiseParams(a=a, p_d=p_d))
            nec = run_nec(rho, rho)
            cat = find_catalyst(*nec_planning_states(rho, rho))
            cec = run_cec(rho, rho, cat)
            worst_gap = min(
                worst_gap,
                cec.success_probability - nec.success_probability,
            )
    elapsed = time.perf_counter() - start
    print(f"criterion 7: min(CEC-NEC)={worst_gap:.2e} elapsed={elapsed:.1f}s")
    assert worst_gap >= -1e-9
    assert elapsed < 300.0


def test_criterion_08_catalyst_degradation():
    start = time.perf_counter()
    fixed_a = 0.1
    post = []
    for p_d in (0.0, 0.02, 0.05, 0.1):
        rho = prepare_state(NoiseParams(a=fixed_a, p_d=p_d))
        cat = find_catalyst(*nec_planning_states(rho, rho))
        post.append(run_cec(rho, rho, cat).catalyst_fidelity_after)
    spread_vals = []
    for a in (0.0, 0.1, 0.2, 0.3):
        rho = prepare_state(NoiseParams(a=a, p_d=0.0))
        cat = find_catalyst(*nec_planning_states(rho, rho))
        spread_vals.append(run_cec(rho, rho, cat).catalyst_fidelity_after)
    spread = max(spread_vals) - min(spread_vals)
    elapsed = time.perf_counter() - start
    print(f"criterion 8: post={np.round(post, 9).tolist()} "
          f"a-spread at p_d=0: {spread:.2e} elapsed={elapsed:.1f}s")
    assert all(b < a for a, b in zip(post, post[1:]))
    assert spread < 0.01
    assert elapsed < 120.0


def test_criterion_09_operational_error_ordering():
    start = time.perf_counter()
    a, p_d = 0.15, 0.05
    rho = prepare_state(NoiseParams(a=a, p_d=p_d))
    cat = find_catalyst(*nec_planning_states(rho, rho))
    nec = run_nec(rho, rho, p_g=0.005)
    cec = run_cec(rho, rho, cat, p_g=0.005)
    plan = optimize_distillation(rho, rho, p_g=0.005)
    dist = run_distillation(rho, rho, plan, p_g=0.005)
    nec_s = []
    cec_s = []
    for p_g in (0.0, 0.002, 0.005, 0.01):
        nec_s.append(run_nec(rho, rho, p_g=p_g).success_probability)
        cec_s.append(run_cec(rho, rho, cat, p_g=p_g).success_probability)
    elapsed = time.perf_counter() - start
    print(f"criterion 9: infid cec={cec.infidelity:.6f} "
          f"nec={nec.infidelity:.6f} dist={dist.infidelity:.6f} "
          f"nec succ={np.round(nec_s, 6).tolist()} "
          f"cec succ={np.round(cec_s, 6).tolist()} elapsed={elapsed:.1f}s")
    assert cec.infidelity >= nec.infidelity - 1e-12
    assert nec.infidelity >= dist.infidelity - 1e-12
    assert all(b >= a - 1e-9 for a, b in zip(nec_s, nec_s[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(cec_s, cec_s[1:]))
    assert elapsed < 300.0


def test_criterion_10_distillation_oracle(rng):
    start = time.perf_counter()

    def dejmps_map(p):
        n = (p[0] + p[3]) ** 2 + (p[1] + p[2]) ** 2
        return (p[0] ** 2 + p[3] ** 2) / n, n

    p_in = np.array([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])
    oracle_fid, oracle_acc = dejmps_map(p_in)
    assert abs(oracle_fid - 145.0 / 173.0) < 1e-15
    assert abs(oracle_acc - 173.0 / 225.0) < 1e-15
    rho = werner(0.8)
    res = run_distillation(rho, rho, dejmps_plan())
    never_worse = True
    gaps = []
    for _ in range(5):
        w = np.sort(rng.random(4) + 0.05)[::-1]
        w = w / w.sum()
        bd = bell_diagonal(w)
        plan = optimize_distillation(bd, bd)
        best = run_distillation(bd, bd, plan)
        ref = run_distillation(bd, bd, dejmps_plan())
        gaps.append(best.output_fidelity - ref.output_fidelity)
        never_worse &= best.output_fidelity >= ref.output_fidelity - 1e-12
    elapsed = time.perf_counter() - start
    print(f"criterion 10: fid={res.output_fidelity:.12f} "
          f"(oracle {oracle_fid:.12f}) acc={res.success_probability:.12f} "
          f"(oracle {oracle_acc:.12f}) optimize gaps={np.round(gaps, 6).tolist()} "
          f"elapsed={elapsed:.1f}s")
    assert abs(res.output_fidelity - oracle_fid) < 1e-9
    assert abs(res.success_probability - oracle_acc) < 1e-9
    assert never_worse
    assert elapsed < 120.0


def test_criterion_11_round_aux_tradeoff():
    start = time.perf_counter()
    alpha = np.array([0.28, 0.26, 0.25, 0.21])
    beta = np.array([0.3, 0.3, 0.3, 0.1])
    src = np.diag(np.sqrt(alpha)).ravel().astype(complex)
    tgt = np.diag(np.sqrt(beta)).ravel().astype(complex)
    assert len(t_transform_decompose(alpha, beta)) == 3
    fine = compile_schedule(src, tgt, g=1)
    coarse = compile_schedule(src, tgt, g=3)
    w_fine, _ = run_schedule(fine)
    w_coarse, _ = run_schedule(coarse)
    elapsed = time.perf_counter() - start
    print(f"criterion 11: fine rounds={len(fine.rounds)} "
          f"coarse elements={len(coarse.rounds[0].povm.elements)} "
          f"p fine={w_fine:.12f} coarse={w_coarse:.12f} elapsed={elapsed:.1f}s")
    assert len(fine.rounds) == 3
    assert all(len(r.povm.elements) == 2 for r in fine.rounds)
    assert len(coarse.rounds) == 1
    assert len(coarse.rounds[0].povm.elements) <= 4
    assert abs(w_fine - w_coarse) < 1e-9
    assert elapsed < 10.0


def test_criterion_12_gate_count_accounting():
    start = time.perf_counter()
    rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
    nec_sur, nec_tgt = nec_planning_states(rho, rho)
    nec_sched = compile_schedule(nec_sur, nec_tgt)
    cat = find_catalyst(nec_sur, nec_tgt)
    cec_sur, cec_tgt = cec_planning_states(rho, rho, cat.state)
    cec_sched = compile_schedule(cec_sur, cec_tgt)
    for sched, budget in ((nec_sched, 8), (cec_sched, 16)):
        for rnd in sched.rounds:
            assert rnd.synthesis.mcx_total <= budget
            ka = 2 ** rnd.embedding.aux_count
            recount = 0
            for blk in rnd.embedding.blocks:
                if not np.allclose(blk, np.eye(ka), atol=1e-12):
                    recount += 2 * (rnd.embedding.n_outcomes - 1)
            assert recount == rnd.synthesis.mcx_total
    nec_res = run_nec(rho, rho)
    cec_res = run_cec(rho, rho, cat)
    elapsed = time.perf_counter() - start
    print(f"criterion 12: nec per-round="
          f"{[r.synthesis.mcx_total for r in nec_sched.rounds]} "
          f"cec per-round={[r.synthesis.mcx_total for r in cec_sched.rounds]} "
          f"elapsed={elapsed:.1f}s")
    assert nec_res.gate_counts["A"] == nec_sched.mcx_total
    assert cec_res.gate_counts["A"] == cec_sched.mcx_total
    assert elapsed < 10.0
