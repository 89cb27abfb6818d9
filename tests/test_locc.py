"""Unit tests for POVM construction, dilation, synthesis, and execution."""

import sys
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import random_bipartite, schmidt_pair_state

from entconc import (
    PHI_PLUS,
    DiagonalPOVM,
    NoiseParams,
    apply_correction,
    catalyst_from_schmidt,
    compile_schedule,
    depolarize,
    embed_povm,
    execute_filter,
    execute_round,
    js_povm,
    permute_subsystems,
    prepare_state,
    run_schedule,
    schedule_to_document,
    synthesize,
)
from entconc import majorize, qmath
from entconc.locc import ScheduleRound
from entconc.majorize import TTransform, birkhoff_decompose, expand_step
from entconc.protocols import (
    _parties,
    cec_planning_states,
    nec_planning_states,
    run_cec,
    run_nec,
)


def swap2():
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def diag_round(povm):
    """Wrap a POVM into an executable round (current/target unused here)."""
    emb = embed_povm(povm)
    rep = synthesize(emb)
    d = len(np.asarray(povm.elements[0]))
    v = np.full(d, 1.0 / d)
    return ScheduleRound(povm, emb, rep, v, v)


def aux_state(vec_data, ka, d_b=None):
    """Pure state on [A-data, A-aux(=0), B-data] from a data-data vector."""
    d = int(round(np.sqrt(vec_data.size))) if d_b is None else vec_data.size // d_b
    d_b = vec_data.size // d
    big = np.zeros(d * ka * d_b, dtype=complex)
    big.reshape(d, ka, d_b)[:, 0, :] = vec_data.reshape(d, d_b)
    return np.outer(big, big.conj())


def dilated_run(schedule, state, p_g):
    """Reference ``run_schedule`` through the Naimark dilation of each round.

    Attaches the auxiliary register in zeros, runs ``execute_round``,
    applies each branch's correction and sums the weighted branches.
    """
    d = schedule.dim
    w_in = np.kron(schedule.left_basis, schedule.right_basis).conj().T
    rho = w_in @ state @ w_in.conj().T
    for rnd in schedule.rounds:
        ka = 2**rnd.embedding.aux_count
        aux = np.zeros((ka, ka))
        aux[0, 0] = 1.0
        big = np.einsum("abcd,xy->axbcyd", rho.reshape(d, d, d, d), aux)
        acc = np.zeros((d * d, d * d), dtype=complex)
        for w, branch, perm in execute_round(big.reshape(d * ka * d, -1), rnd, p_g):
            small = branch.reshape(d, ka, d, d, ka, d)[:, 0, :, :, 0, :]
            acc += w * apply_correction(small.reshape(d * d, d * d), perm)
        rho = acc
    w, rho = execute_filter(rho, schedule.final_filter)
    v_out = np.kron(schedule.target_left, schedule.target_right)
    return w, v_out @ rho @ v_out.conj().T


def loop_run(schedule, state, p_g):
    """Reference ``run_schedule`` in loop form, built from public pieces.

    The ``np.kron`` frame rotations, per-qubit ``depolarize`` at the
    round's composed probability, Kraus multipliers from the embedding
    blocks with ``np.kron`` auxiliary weights, and ``apply_correction`` of
    each outcome's branch, summed in outcome order.
    """
    d = schedule.dim
    w_in = np.kron(schedule.left_basis, schedule.right_basis).conj().T
    rho = w_in @ state @ w_in.conj().T
    for rnd in schedule.rounds:
        prob = 0.75 * (1.0 - (1.0 - 4.0 * p_g / 3.0) ** rnd.synthesis.mcx_total)
        if prob:
            for q in range(d.bit_length() - 1):
                rho = depolarize(rho, prob, qubit=q)
        mix = [1.0 - 2.0 * prob / 3.0, 2.0 * prob / 3.0]
        aux = reduce(np.kron, [mix] * rnd.embedding.aux_count, np.ones(1))
        u = rnd.embedding.blocks
        acc = None
        for m, perm in enumerate(rnd.corrections):
            kraus = np.einsum("jx,x,kx->jk", u[:, m], aux, u[:, m].conj())
            branch = rho.reshape(d, d, d, d) * kraus[:, None, :, None]
            branch = apply_correction(branch.reshape(rho.shape), perm)
            acc = branch if acc is None else acc + branch
        rho = acc
    w, rho = execute_filter(rho, schedule.final_filter)
    v_out = np.kron(schedule.target_left, schedule.target_right)
    return w, v_out @ rho @ v_out.conj().T


def padded_bell(d):
    """Bell target on the leading qubit of each d-level register."""
    mat = np.zeros((d, d), dtype=complex)
    mat[0, 0] = mat[d // 2, d // 2] = np.sqrt(0.5)
    return mat.ravel()


def schedule_and_state(kind, g, rng):
    """A compiled schedule and a mixed physical state to execute it on."""
    if kind in ("nec", "cec"):
        rho = prepare_state(NoiseParams(a=0.3 * rng.random(), p_d=0.1 * rng.random()))
        if kind == "nec":
            planning = nec_planning_states(rho, rho)
            pairs = [rho, rho]
        else:
            cat = catalyst_from_schmidt(0.5 + 0.5 * rng.random())
            planning = cec_planning_states(rho, rho, cat.state)
            pairs = [rho, rho, np.outer(cat.state, cat.state.conj())]
        return compile_schedule(*planning, g), _parties(*pairs)
    d = int(kind.removeprefix("random"))
    psi = random_bipartite(rng, d, d)
    noise = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    noise = noise @ noise.conj().T
    state = 0.9 * np.outer(psi, psi.conj()) + 0.1 * noise / np.trace(noise)
    return compile_schedule(psi, padded_bell(d), g), state


class TestKrausExecution:
    @given(
        kind=st.sampled_from(["nec", "cec", "random4", "random8"]),
        g=st.integers(1, 3),
        p_g=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="cec", g=1, p_g=0.0, seed=0)
    @example(kind="cec", g=2, p_g=1.0, seed=1)
    @example(kind="random8", g=3, p_g=1.0, seed=2)
    def test_matches_dilated_reference(self, kind, g, p_g, seed):
        sched, state = schedule_and_state(kind, g, np.random.default_rng(seed))
        w, out = run_schedule(sched, state, p_g)
        w_ref, out_ref = dilated_run(sched, state, p_g)
        assert abs(w - w_ref) <= 1e-12
        assert np.max(np.abs(out - out_ref)) <= 1e-12

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["nec", "cec", "random4", "random8"])
    def test_bit_equal_to_loop_form(self, kind, g):
        sched, state = schedule_and_state(kind, g, np.random.default_rng(g))
        for p_g in (0.0, 1e-3, 0.02, 1.0):
            w, out = run_schedule(sched, state, p_g)
            w_ref, out_ref = loop_run(sched, state, p_g)
            assert w == w_ref
            assert np.array_equal(out, out_ref)

    @pytest.mark.parametrize("p_g", [0.07, 1.0])
    def test_composed_noise_equals_sequential_channels(self, rng, p_g):
        a = rng.random(4)
        rnd = diag_round(DiagonalPOVM(
            elements=[a, 1.0 - a], corrections=[np.arange(4), np.arange(4)],
        ))
        state = aux_state(random_bipartite(rng, 4, 4), 2)
        noisy = state
        for blk in rnd.synthesis.blocks:
            for _ in range(blk.mcx_count):
                for q in blk.touched_qubits:
                    noisy = depolarize(noisy, p_g, qubit=q)
        u = rnd.embedding.assemble()
        t = np.einsum("ij,jakb,lk->ialb", u, noisy.reshape(8, 4, 8, 4), u.conj())
        view = t.reshape(4, 2, 4, 4, 2, 4)
        branches = execute_round(state, rnd, p_g)
        assert len(branches) == 2
        for m, (w, post, _) in enumerate(branches):
            block = view[:, m, :, :, m, :]
            assert abs(w - np.einsum("abab->", block).real) < 1e-12
            got = post.reshape(4, 2, 4, 4, 2, 4)[:, 0, :, :, 0, :]
            assert np.max(np.abs(w * got - block)) < 1e-12


    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("kind", ["nec", "cec", "random8"])
    def test_kraus_rows_are_kept_read_only(self, kind, g):
        sched, state = schedule_and_state(kind, g, np.random.default_rng(7))
        first = run_schedule(sched, state, 1e-3)
        for rnd in sched.rounds:
            relabel, rows = rnd.kraus_rows
            assert rnd.kraus_rows[0] is relabel and rnd.kraus_rows[1] is rows
            d = rnd.embedding.data_dim
            for m, perm in enumerate(rnd.corrections):
                inv = np.argsort(perm)
                assert np.array_equal(relabel[m], (inv[:, None] * d + inv).ravel())
                assert np.array_equal(rows[m], rnd.embedding.blocks[inv, m])
            for arr in (relabel, rows):
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = arr.flat[0]
        second = run_schedule(sched, state, 1e-3)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

class TestJsPovm:
    def test_projective_case(self):
        dmat = 0.75 * np.eye(2) + 0.25 * swap2()
        povm = js_povm(birkhoff_decompose(dmat), np.array([1.0, 0.0]))
        assert len(povm.elements) == 2
        els = sorted(povm.elements, key=lambda e: -e[0])
        assert np.allclose(els[0], [1.0, 0.0], atol=1e-10)
        assert np.allclose(els[1], [0.0, 1.0], atol=1e-10)
        perms = {tuple(p) for p in povm.corrections}
        assert perms == {(0, 1), (1, 0)}

    def test_flat_case(self):
        dmat = 0.5 * np.eye(2) + 0.5 * swap2()
        povm = js_povm(birkhoff_decompose(dmat), np.array([0.75, 0.25]))
        assert len(povm.elements) == 2
        els = sorted(povm.elements, key=lambda e: -e[0])
        assert np.allclose(els[0], [0.75, 0.25], atol=1e-10)
        assert np.allclose(els[1], [0.25, 0.75], atol=1e-10)

    def test_identity_trivial(self):
        v = np.array([0.6, 0.4])
        povm = js_povm(birkhoff_decompose(np.eye(2)), v)
        assert len(povm.elements) == 1
        assert np.allclose(povm.elements[0], [1.0, 1.0], atol=1e-12)

    def test_merge_follows_a_chain(self):
        # images 0.6e-12 apart: the third joins the second, which joined the
        # first, though the first and third lie 1.2e-12 apart
        e = 0.6e-12
        x = (1.0 - 3 * e) / 3
        terms = [(0.5, (0, 1, 2)), (0.3, (1, 0, 2)), (0.2, (2, 0, 1))]
        povm = js_povm(terms, np.array([x + 2 * e, x + e, x]))
        assert len(povm.elements) == 1
        assert np.array_equal(povm.corrections[0], [0, 1, 2])
        assert np.allclose(povm.elements[0], 1.0, atol=1e-15)

    def test_completeness_on_support(self, rng):
        d = 5
        beta = np.sort(rng.random(d))[::-1]
        beta = beta / beta.sum()
        mix = np.eye(d)
        for _ in range(3):
            j, k = sorted(rng.choice(d, size=2, replace=False))
            mix = expand_step((TTransform(int(j), int(k), rng.random()),), d) @ mix
        povm = js_povm(birkhoff_decompose(mix), beta)
        total = sum(np.asarray(e) for e in povm.elements)
        assert np.allclose(total, 1.0, atol=1e-10)


def assert_complete(schedule):
    """Every round's elements sum to 1 within 1e-14 on the POVM support."""
    for rnd in schedule.rounds:
        total = np.sum(rnd.povm.elements, axis=0)
        assert np.max(np.abs(total[rnd.povm.support] - 1.0)) <= 1e-14


class TestPovmCompleteness:
    """Grouped rounds build complete POVMs, also for near-product catalysts."""

    @given(
        a=st.floats(0.0, 0.3),
        p_d=st.floats(0.0, 0.1),
        log_gap=st.floats(-11.0, float(np.log10(0.4))),
    )
    @example(a=0.1, p_d=0.05, log_gap=-9.0)
    def test_cec_with_near_product_catalysts(self, a, p_d, log_gap):
        # the catalyst's smaller Schmidt coefficient 1 - c1 is log-uniform
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        cat = catalyst_from_schmidt(1.0 - 10.0**log_gap)
        planning = cec_planning_states(rho, rho, cat.state)
        for g in (2, 3):
            assert_complete(compile_schedule(*planning, g))

    @given(d=st.sampled_from([4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_random_sources(self, d, seed):
        psi = random_bipartite(np.random.default_rng(seed), d, d)
        for g in (2, 3):
            assert_complete(compile_schedule(psi, padded_bell(d), g))


class TestDiagonalPovmValidation:
    def test_mismatched_corrections(self):
        with pytest.raises(ValueError):
            DiagonalPOVM(elements=[np.ones(2)], corrections=[])

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            DiagonalPOVM(
                elements=[np.array([0.5, 0.2]), np.array([0.4, 0.2])],
                corrections=[np.arange(2), np.arange(2)],
            )

    @pytest.mark.parametrize("bad", [[0, 0, 1, 1], [0, 1, 2], [0, 1, 2, 7]])
    def test_non_permutation_corrections_rejected(self, bad):
        a = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="permutation"):
            DiagonalPOVM(elements=[a, 1.0 - a], corrections=[np.arange(4), bad])

    def test_entries_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            DiagonalPOVM(elements=[[1.5, 0.5], [-0.5, 0.5]], corrections=[[0, 1], [0, 1]])

    def test_zero_rows_allowed_off_support(self):
        povm = DiagonalPOVM(
            elements=[np.array([1.0, 0.0]), np.array([0.0, 0.0])],
            corrections=[np.arange(2), np.arange(2)],
        )
        assert list(povm.support) == [True, False]


    def test_no_elements_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            DiagonalPOVM([], [])

    def test_elements_of_no_entry_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            DiagonalPOVM([[]], [[]])

    def test_caller_arrays_are_copied(self):
        els = np.array([[0.3, 0.6], [0.7, 0.4]])
        corr = np.array([[0, 1], [1, 0]])
        povm = DiagonalPOVM(els, corr)
        els[0] = [5.0, -2.0]
        corr[0] = [0, 0]
        assert povm.elements.tolist() == [[0.3, 0.6], [0.7, 0.4]]
        assert povm.corrections.tolist() == [[0, 1], [1, 0]]
        for arr in (povm.elements, povm.corrections, povm.support):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            embed_povm(povm)


class TestEmbedPovm:
    def test_certain_outcome_gives_z(self):
        povm = DiagonalPOVM(
            elements=[np.array([1.0]), np.array([0.0])],
            corrections=[np.arange(1), np.arange(1)],
        )
        emb = embed_povm(povm)
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(emb.blocks[0], z, atol=1e-12)

    def test_balanced_outcome_gives_hadamard(self):
        povm = DiagonalPOVM(
            elements=[np.array([0.5]), np.array([0.5])],
            corrections=[np.arange(1), np.arange(1)],
        )
        emb = embed_povm(povm)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(emb.blocks[0], h, atol=1e-12)

    def test_block_formula(self):
        povm = DiagonalPOVM(
            elements=[np.array([0.75, 0.25]), np.array([0.25, 0.75])],
            corrections=[np.arange(2), np.array([1, 0])],
        )
        emb = embed_povm(povm)
        assert emb.aux_count == 1
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for j, (a0, a1) in enumerate([(0.75, 0.25), (0.25, 0.75)]):
            assert np.allclose(
                emb.blocks[j], np.sqrt(a0) * z + np.sqrt(a1) * x, atol=1e-12
            )
        u = emb.assemble()
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_aux_count_scales_with_outcomes(self):
        povm = DiagonalPOVM(
            elements=[np.full(2, 0.25)] * 4,
            corrections=[np.arange(2)] * 4,
        )
        emb = embed_povm(povm)
        assert emb.aux_count == 2
        u = emb.assemble()
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)

    def test_naimark_statistics(self, rng):
        for _ in range(25):
            d = 4
            a = rng.random(d)
            povm = DiagonalPOVM(
                elements=[a, 1.0 - a],
                corrections=[np.arange(d), np.arange(d)],
            )
            rnd = diag_round(povm)
            psi = random_bipartite(rng, d, d)
            state = aux_state(psi, 2)
            branches = execute_round(state, rnd, p_g=0.0)
            mat = psi.reshape(d, d)
            for m, (w, post, _) in enumerate(branches):
                el = povm.elements[m]
                expected_w = float(np.real(psi.conj() @ (
                    np.kron(np.diag(el), np.eye(d)) @ psi)))
                assert abs(w - expected_w) < 1e-10
                ref = (np.sqrt(el)[:, None] * mat).ravel()
                ref = ref / np.linalg.norm(ref)
                got = post.reshape(d, 2, d, d, 2, d)[:, 0, :, :, 0, :]
                got = got.reshape(d * d, d * d)
                overlap = float(np.real(ref.conj() @ got @ ref))
                assert abs(overlap - 1.0) < 1e-10


def reflection_from_column(col):
    """Per-block reference: I - 2vv^T/|v|^2 with v = e_0 - col/|col|."""
    ka = col.size
    v = -(col / np.linalg.norm(col))
    v[0] += 1.0
    norm2 = float(v @ v)
    if norm2 < 1e-28:
        u = np.eye(ka)
        if ka > 1:
            u[1, 1] = -1.0
        return u
    return np.eye(ka) - 2.0 * np.outer(v, v) / norm2


class TestEmbedBatch:
    @given(
        m=st.integers(1, 5),
        d=st.sampled_from([2, 4, 8]),
        certain=st.integers(0, 2),
        off=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=2, d=4, certain=2, off=1, seed=0)
    def test_blocks_equal_per_block_reference(self, m, d, certain, off, seed):
        rng = np.random.default_rng(seed)
        els = rng.random((m, d))
        els /= els.sum(axis=0)
        els[:, :certain] = np.eye(m)[:, :1]
        els[:, d - off:] = 0.0
        povm = DiagonalPOVM(elements=list(els), corrections=[np.arange(d)] * m)
        emb = embed_povm(povm)
        ka = 2**emb.aux_count
        assert emb.blocks.shape == (d, ka, ka)
        for j in range(d):
            col = np.zeros(ka)
            col[:m] = np.sqrt(els[:, j])
            want = reflection_from_column(col) if povm.support[j] else np.eye(ka)
            assert np.array_equal(emb.blocks[j], want)


def reference_js_povm(terms, target):
    """Elements and corrections of a round, one term and one merge at a time."""
    target = np.asarray(target, dtype=float).reshape(-1)
    merged = []
    for q, perm in terms:
        image = target[perm]
        for entry in merged:
            if np.max(np.abs(entry[1] - image)) < 1e-12:
                entry[0] += q
                break
        else:
            merged.append([q, image, perm])
    parts = np.array([q * image for q, image, _ in merged])
    current = parts.sum(axis=0)
    support = current > 1e-12
    elements = np.zeros_like(parts)
    elements[:, support] = parts[:, support] / current[support]
    corrections = [np.asarray(perm, dtype=int) for _, _, perm in merged]
    return list(np.clip(elements, 0.0, 1.0)), corrections


def reference_embed_blocks(elements):
    """Dilation blocks of a POVM, built over all data indices and checked whole."""
    els = np.asarray(elements, dtype=float)
    m, d = els.shape
    on = els.sum(axis=0) > 0.5
    k = max(1, int(np.ceil(np.log2(m)))) if m > 1 else 0
    ka = 2**k
    col = np.zeros((on.sum(), ka))
    col[:, :m] = np.sqrt(els[:, on].T)
    v = -(col / np.sqrt(np.vecdot(col, col))[:, None])
    v[:, 0] += 1.0
    norm2 = np.vecdot(v, v)
    limit = norm2 < 1e-28
    refl = np.eye(ka) - 2.0 * (v[:, :, None] * v[:, None, :]) / np.where(
        limit, 1.0, norm2
    )[:, None, None]
    refl[limit] = np.diag(np.where(np.arange(ka) == 1, -1.0, 1.0))
    blocks = np.tile(np.eye(ka), (d, 1, 1))
    blocks[on] = refl
    assert np.allclose(blocks @ blocks.swapaxes(1, 2), np.eye(ka), atol=1e-10)
    return blocks, on


class TestRoundReference:
    """Round building matches its loop form on every round of the golden inputs."""

    def test_rounds_equal_loop_form(self, monkeypatch):
        from test_golden import GROUPS, _inputs

        import entconc.locc as locc

        seen = []
        build = locc.js_povm

        def record(terms, target):
            seen.append((terms, target))
            return build(terms, target)

        monkeypatch.setattr(locc, "js_povm", record)
        for src, tgt in _inputs().values():
            for g in GROUPS:
                sched = compile_schedule(src, tgt, g)
                n_data = sched.dim.bit_length() - 1
                # the one noise charge per round rests on every block being
                # charged alike on every qubit
                for rnd in sched.rounds:
                    emb = rnd.embedding
                    for blk in rnd.synthesis.blocks:
                        assert blk.touched_qubits == tuple(range(n_data + emb.aux_count))
                        assert blk.mcx_count == 2 * (emb.n_outcomes - 1)
        assert max(len(terms) for terms, _ in seen) > 2
        for terms, target in seen:
            povm = js_povm(terms, target)
            want_elements, want_corrections = reference_js_povm(terms, target)
            assert len(povm.elements) == len(want_elements)
            assert all(map(np.array_equal, povm.elements, want_elements))
            assert all(map(np.array_equal, povm.corrections, want_corrections))
            emb = embed_povm(povm)
            want_blocks, want_support = reference_embed_blocks(want_elements)
            assert np.array_equal(emb.blocks, want_blocks)
            assert np.array_equal(emb.support, want_support)
            assert np.array_equal(povm.support, want_support)


class TestSynthesize:
    def test_identity_blocks_free(self):
        povm = DiagonalPOVM(
            elements=[np.array([1.0, 1.0])],
            corrections=[np.arange(2)],
        )
        rep = synthesize(embed_povm(povm))
        assert rep.blocks == ()
        assert rep.mcx_total == 0

    def test_three_data_qubits(self, rng):
        a = rng.random(8)
        povm = DiagonalPOVM(
            elements=[a, 1.0 - a],
            corrections=[np.arange(8), np.arange(8)],
        )
        rep = synthesize(embed_povm(povm))
        assert len(rep.blocks) == 8
        assert rep.mcx_total == 16
        for blk in rep.blocks:
            assert blk.mcx_count == 2
            assert len(blk.touched_qubits) == 4

    def test_two_data_qubits(self, rng):
        a = rng.random(4)
        povm = DiagonalPOVM(
            elements=[a, 1.0 - a],
            corrections=[np.arange(4), np.arange(4)],
        )
        rep = synthesize(embed_povm(povm))
        assert len(rep.blocks) == 4
        assert rep.mcx_total == 8
        for blk in rep.blocks:
            assert blk.mcx_count == 2
            assert len(blk.touched_qubits) == 3

    def test_multi_outcome_cost(self):
        povm = DiagonalPOVM(
            elements=[np.full(2, 0.25)] * 4,
            corrections=[np.arange(2)] * 4,
        )
        rep = synthesize(embed_povm(povm))
        for blk in rep.blocks:
            assert blk.mcx_count == 2 * (4 - 1)

    def test_only_support_blocks_are_charged(self):
        # position 2 is off the support; position 0 is certain (block diag(1, -1))
        povm = DiagonalPOVM(
            elements=[np.array([1.0, 0.3, 0.0, 0.5]), np.array([0.0, 0.7, 0.0, 0.5])],
            corrections=[np.arange(4), np.arange(4)],
        )
        emb = embed_povm(povm)
        rep = synthesize(emb)
        assert [b.index for b in rep.blocks] == [0, 1, 3]
        assert np.array_equal(emb.blocks[0], np.diag([1.0, -1.0]))

    def test_rejects_data_dimension_not_power_of_two(self):
        povm = DiagonalPOVM(
            elements=[np.full(3, 0.5)] * 2,
            corrections=[np.arange(3)] * 2,
        )
        with pytest.raises(ValueError, match="power of two"):
            synthesize(embed_povm(povm))

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), d=st.integers(2, 8))
    def test_report_charges_each_support_block(self, seed, m, d):
        # random columns, about 30 % of them off the support
        rng = np.random.default_rng(seed)
        els = rng.dirichlet(np.ones(m), size=d).T * (rng.random(d) < 0.7)
        povm = DiagonalPOVM(els, [rng.permutation(d) for _ in range(m)])
        emb = embed_povm(povm)
        if d & (d - 1):
            with pytest.raises(ValueError, match="power of two"):
                synthesize(emb)
            return
        rep = synthesize(emb)
        support = np.flatnonzero(povm.support).tolist()
        assert rep.mcx_total == 2 * (m - 1) * len(support)
        assert [b.index for b in rep.blocks] == (support if m > 1 else [])
        touched = tuple(range(d.bit_length() - 1 + emb.aux_count))
        assert all(b.touched_qubits == touched and b.mcx_count == 2 * (m - 1) for b in rep.blocks)
        schedule = replace(compile_schedule(PHI_PLUS, PHI_PLUS), rounds=(diag_round(povm),))
        doc = schedule_to_document(schedule)["rounds"][0]
        assert doc["mcx_per_block"] == [b.mcx_count for b in rep.blocks]
        assert doc["touched_qubits"] == [list(b.touched_qubits) for b in rep.blocks]
        assert doc["mcx_total"] == rep.mcx_total

    @pytest.mark.parametrize("m", range(1, 10))
    def test_aux_count_is_ceil_log2(self, m):
        povm = DiagonalPOVM(elements=[np.full(2, 1.0 / m)] * m, corrections=[np.arange(2)] * m)
        assert embed_povm(povm).aux_count == (max(1, int(np.ceil(np.log2(m)))) if m > 1 else 0)


class FallbackCalled(Exception):
    pass


@pytest.fixture
def fallbacks_raise(monkeypatch):
    """Make every entconc binding of the generic fallbacks raise."""
    for fn in (qmath.apply_channel, majorize.birkhoff_decompose):

        def refuse(*args, _name=fn.__name__, **kwargs):
            raise FallbackCalled(_name)

        for name, mod in list(sys.modules.items()):
            if name == "entconc" or name.startswith("entconc."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, refuse)


class TestFastPaths:
    """Execution and one-step rounds use the closed forms, not the fallbacks."""

    def test_runs_at_g1_with_gate_noise_skip_fallbacks(self, fallbacks_raise):
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        nec = run_nec(rho, rho, g=1, p_g=0.01)
        cec = run_cec(rho, rho, catalyst_from_schmidt(0.8), g=1, p_g=0.01)
        for res in (nec, cec):
            assert 0.0 < res.success_probability <= 1.0
            assert 0.0 < res.output_fidelity <= 1.0

    def test_grouped_rounds_reach_birkhoff(self, fallbacks_raise):
        rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
        planning = cec_planning_states(rho, rho, catalyst_from_schmidt(0.8).state)
        with pytest.raises(FallbackCalled, match="birkhoff_decompose"):
            compile_schedule(*planning, 2)


class TestExecuteRound:
    def test_flat_round_branches(self):
        dmat = 0.5 * np.eye(2) + 0.5 * swap2()
        povm = js_povm(birkhoff_decompose(dmat), np.array([0.75, 0.25]))
        rnd = diag_round(povm)
        state = aux_state(schmidt_pair_state([0.5, 0.5]), 2)
        branches = execute_round(state, rnd, p_g=0.0)
        assert len(branches) == 2
        got = []
        for w, post, perm in branches:
            assert abs(w - 0.5) < 1e-10
            diag = np.real(np.diag(post)).reshape(2, 2, 2)
            assert diag[:, 1, :].sum() < 1e-12
            got.append(np.round(np.array([diag[0, 0, 0], diag[1, 0, 1]]), 9))
        keys = sorted(tuple(g) for g in got)
        assert keys == [(0.25, 0.75), (0.75, 0.25)]

    def test_trivial_round(self):
        v = np.array([0.6, 0.4])
        povm = js_povm(birkhoff_decompose(np.eye(2)), v)
        rnd = diag_round(povm)
        state = aux_state(schmidt_pair_state(v), 1)
        branches = execute_round(state, rnd, p_g=0.0)
        assert len(branches) == 1
        w, post, perm = branches[0]
        assert abs(w - 1.0) < 1e-12
        assert np.allclose(post, state, atol=1e-12)

    def test_full_noise_preserves_trace(self):
        dmat = 0.5 * np.eye(2) + 0.5 * swap2()
        povm = js_povm(birkhoff_decompose(dmat), np.array([0.75, 0.25]))
        rnd = diag_round(povm)
        state = aux_state(schmidt_pair_state([0.5, 0.5]), 2)
        branches = execute_round(state, rnd, p_g=1.0)
        assert abs(sum(w for w, _, _ in branches) - 1.0) < 1e-10

    def test_weights_sum_random(self, rng):
        a = rng.random(4)
        povm = DiagonalPOVM(
            elements=[a, 1.0 - a],
            corrections=[np.arange(4), np.arange(4)],
        )
        rnd = diag_round(povm)
        state = aux_state(random_bipartite(rng, 4, 4), 2)
        for p_g in (0.0, 0.3, 0.7):
            branches = execute_round(state, rnd, p_g)
            assert abs(sum(w for w, _, _ in branches) - 1.0) < 1e-10

    def test_state_size_must_match_registers(self):
        dmat = 0.5 * np.eye(2) + 0.5 * swap2()
        rnd = diag_round(js_povm(birkhoff_decompose(dmat), np.array([0.75, 0.25])))
        with pytest.raises(ValueError, match="does not match the round's registers"):
            execute_round(np.eye(6) / 6, rnd, p_g=0.0)

    def test_aux_must_start_in_zero(self):
        dmat = 0.5 * np.eye(2) + 0.5 * swap2()
        povm = js_povm(birkhoff_decompose(dmat), np.array([0.75, 0.25]))
        rnd = diag_round(povm)
        bad = np.zeros(8, dtype=complex)
        bad.reshape(2, 2, 2)[0, 1, 0] = 1.0
        with pytest.raises(ValueError):
            execute_round(np.outer(bad, bad.conj()), rnd, p_g=0.0)


class TestApplyCorrection:
    def test_swap_relabels_both_sides(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_correction(rho, [1, 0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_involution(self, rng):
        psi = random_bipartite(rng, 3, 3)
        rho = np.outer(psi, psi.conj())
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        once = apply_correction(rho, perm)
        back = apply_correction(once, inv)
        assert np.allclose(back, rho, atol=1e-12)

    @pytest.mark.parametrize("bad", [[0, 0, 1, 1], [0, 1, 2, 7]])
    def test_rejects_non_permutation(self, bad):
        # [0, 0, 1, 1] used to drop three quarters of the trace of I/16
        with pytest.raises(ValueError, match="permutation"):
            apply_correction(np.eye(16) / 16, bad)

    def test_restores_target_vector(self):
        v = np.array([0.75, 0.25])
        perm = np.array([1, 0])
        permuted = schmidt_pair_state(v[perm])
        rho = np.outer(permuted, permuted.conj())
        out = apply_correction(rho, perm)
        ref = schmidt_pair_state(v)
        assert abs(np.real(ref.conj() @ out @ ref) - 1.0) < 1e-12


# One verdict per correction: DiagonalPOVM and apply_correction share the check.
PERMUTATION_VERDICTS = {
    "wrong_shape": ([[0, 1]], False),
    "wrong_length": ([0, 1, 2], False),
    "repeated_index": ([0, 0], False),
    "fractional": ([1.7, 0.2], False),
    "nan": ([np.nan, 0.0], False),
    "exact_floats": ([1.0, 0.0], True),
}


@pytest.mark.parametrize("perm, accepted", PERMUTATION_VERDICTS.values(), ids=PERMUTATION_VERDICTS)
def test_povm_and_correction_agree_on_permutations(perm, accepted):
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    elements = [[0.3, 0.6], [0.7, 0.4]]
    if accepted:
        DiagonalPOVM(elements=elements, corrections=[[0, 1], perm])
        assert np.array_equal(apply_correction(rho, perm), apply_correction(rho, [1, 0]))
        assert np.array_equal(permute_subsystems(rho, perm), permute_subsystems(rho, [1, 0]))
        return
    with pytest.raises(ValueError, match="permutation"):
        DiagonalPOVM(elements=elements, corrections=[[0, 1], perm])
    with pytest.raises(ValueError, match="permutation"):
        apply_correction(rho, perm)
    with pytest.raises(ValueError, match="permutation"):
        permute_subsystems(rho, perm)


class TestExecuteFilter:
    def test_identity_filter(self, rng):
        psi = random_bipartite(rng, 2, 2)
        rho = np.outer(psi, psi.conj())
        w, out = execute_filter(rho, np.ones(2))
        assert abs(w - 1.0) < 1e-12
        assert np.allclose(out, rho, atol=1e-12)

    def test_bell_extraction(self):
        psi = schmidt_pair_state([0.8, 0.2])
        rho = np.outer(psi, psi.conj())
        w, out = execute_filter(rho, np.array([0.5, 1.0]))
        assert abs(w - 0.4) < 1e-10
        bell = schmidt_pair_state([0.5, 0.5])
        assert abs(np.real(bell.conj() @ out @ bell) - 1.0) < 1e-10

    def test_rejects_amplifying_filter(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            execute_filter(rho, np.array([1.2, 0.5]))

    def test_rejects_size_not_dividing_the_state(self):
        with pytest.raises(ValueError, match="does not divide the state dimension"):
            execute_filter(np.eye(4) / 4, [1.0, 1.0, 1.0])

    def test_rejects_empty_filter(self):
        with pytest.raises(ValueError, match="filter needs at least one entry"):
            execute_filter(np.eye(4) / 4, [])

    def test_weight_rounding_past_one_is_clipped(self):
        w, _ = execute_filter(np.eye(4) / 4 * (1.0 + 5e-13), np.ones(2))
        assert w == 1.0
        with pytest.raises(ArithmeticError):
            execute_filter(np.eye(4) / 2, np.ones(2))

    def test_entry_past_one_within_structural_tol_is_capped(self):
        # f^2 = 1 + 5e-11 passes the entry check; the weight on it reads 1
        rho = np.diag([1.0, 0.0, 0.0, 0.0])
        w, out = execute_filter(rho, [np.sqrt(1.0 + 5e-11), 1.0])
        assert w == 1.0
        assert np.array_equal(out, rho)

    def test_random_sources_succeed_with_weight_at_most_one(self, rng):
        for _ in range(12):
            sched = compile_schedule(random_bipartite(rng, 8, 8), padded_bell(8))
            w, _ = run_schedule(sched)
            assert 0.0 <= w <= 1.0
            assert 0.0 <= sched.success_probability <= 1.0


    @pytest.mark.parametrize("f", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_entry_rejected(self, f):
        with pytest.raises(ValueError, match="filter entries must satisfy"):
            execute_filter(np.eye(4) / 4, np.array(f))

class TestCompileSchedule:
    def test_majorized_source_is_deterministic(self):
        vec = (np.eye(4) / 2.0).ravel().astype(complex)
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell)
        assert abs(sched.success_probability - 1.0) < 1e-12
        on = sched.gamma > 1e-12
        assert np.allclose(sched.final_filter[on], 1.0, atol=1e-9)
        w, out = run_schedule(sched)
        assert abs(w - 1.0) < 1e-9

    def test_two_copy_probability(self):
        pair = schmidt_pair_state([0.75, 0.25])
        vec = np.kron(pair, pair)
        vec = vec.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell)
        assert abs(sched.success_probability - 0.875) < 1e-9
        w, out = run_schedule(sched)
        assert abs(w - 0.875) < 1e-9
        target = np.zeros(16, dtype=complex)
        target.reshape(4, 4)[np.ix_([0, 2], [0, 2])] = (
            bell.reshape(2, 2) / 1.0
        )
        fid = float(np.real(target.conj() @ out @ target))
        assert abs(fid - 1.0) < 1e-9

    def test_grouping_trades_rounds_for_elements(self):
        alpha = np.array([0.28, 0.26, 0.25, 0.21])
        beta = np.array([0.3, 0.3, 0.3, 0.1])
        vec = np.diag(np.sqrt(alpha)).ravel().astype(complex)
        tgt = np.diag(np.sqrt(beta)).ravel().astype(complex)
        fine = compile_schedule(vec, tgt, g=1)
        assert len(fine.rounds) == 3
        for rnd in fine.rounds:
            assert len(rnd.povm.elements) == 2
            assert rnd.embedding.aux_count == 1
        coarse = compile_schedule(vec, tgt, g=3)
        assert len(coarse.rounds) == 1
        assert len(coarse.rounds[0].povm.elements) <= 4
        assert abs(fine.success_probability - coarse.success_probability) < 1e-9

    def test_uniform_source_folds_into_one_round(self):
        # T(0,2,1/2) and T(1,3,1/2) act on disjoint pairs with equal weight:
        # one two-outcome round sacrifices a whole pair, and the pinned
        # frames leave the final frame rotation at the identity
        vec = (np.eye(4) / 2.0).ravel().astype(complex)
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell, g=1)
        assert len(sched.rounds) == 1
        (rnd,) = sched.rounds
        assert len(rnd.povm.elements) == 2
        assert rnd.embedding.aux_count == 1
        assert sched.mcx_total == 8
        assert abs(sched.success_probability - 1.0) < 1e-12
        for tgt, src in ((sched.target_left, sched.left_basis),
                         (sched.target_right, sched.right_basis)):
            assert np.allclose(tgt @ src.conj().T, np.eye(4), atol=1e-12)

    def test_near_equal_weights_fold_into_one_round(self):
        # the greedy chain is T(0,2,0.6), T(1,3,0.6 + 1.8e-13): weights that
        # differ by more than Birkhoff's cutoff still give one two-outcome
        # round, with no third outcome of weight 1.8e-13
        eta = 0.9e-13
        alpha = np.array([0.3, 0.3, 0.2 + eta, 0.2 - eta])
        vec = np.diag(np.sqrt(alpha)).ravel().astype(complex)
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell, g=1)
        (rnd,) = sched.rounds
        assert len(rnd.povm.elements) == 2
        assert rnd.embedding.aux_count == 1
        assert sched.mcx_total == 8

    def test_rank_violation(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        bell = schmidt_pair_state([0.5, 0.5])
        with pytest.raises(ValueError):
            compile_schedule(vec, bell)

    def test_source_size_not_a_power_of_four(self):
        with pytest.raises(ValueError, match="power of 4"):
            compile_schedule(np.full(8, 8**-0.5), schmidt_pair_state([0.5, 0.5]))

    def test_invalid_group_size(self):
        bell = schmidt_pair_state([0.5, 0.5])
        with pytest.raises(ValueError):
            compile_schedule(bell, bell, g=0)

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_state_raises(self, which):
        states = [np.diag(np.sqrt([0.5, 0.3, 0.2, 0.0])).ravel(), schmidt_pair_state([0.5, 0.5])]
        states[which][0] = np.nan
        with pytest.raises(ValueError, match="norm"):
            compile_schedule(*states)

    def test_rounds_complete_povms(self, rng):
        psi = random_bipartite(rng, 4, 4)
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(psi, bell)
        for rnd in sched.rounds:
            total = sum(np.asarray(e) for e in rnd.povm.elements)
            on = rnd.povm.support
            assert np.allclose(total[on], 1.0, atol=1e-10)


class TestRunSchedule:
    def test_purity_on_surrogate(self, rng):
        for _ in range(5):
            psi = random_bipartite(rng, 4, 4)
            bell = schmidt_pair_state([0.5, 0.5])
            sched = compile_schedule(psi, bell)
            w, out = run_schedule(sched)
            assert abs(w - sched.success_probability) < 1e-9
            evals = np.linalg.eigvalsh(out)
            assert abs(evals[-1] - 1.0) < 1e-9

    def test_gate_noise_degrades_output(self, rng):
        pair = schmidt_pair_state([0.75, 0.25])
        vec = np.kron(pair, pair)
        vec = vec.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell)
        target = np.zeros(16, dtype=complex)
        target.reshape(4, 4)[np.ix_([0, 2], [0, 2])] = bell.reshape(2, 2)
        w0, out0 = run_schedule(sched, p_g=0.0)
        f0 = float(np.real(target.conj() @ out0 @ target))
        w1, out1 = run_schedule(sched, p_g=0.05)
        f1 = float(np.real(target.conj() @ out1 @ target))
        assert f0 > f1

    @pytest.mark.parametrize("shape", [(16,), (16, 4), (64, 64)])
    def test_malformed_state_raises(self, rng, shape):
        sched = compile_schedule(random_bipartite(rng, 4, 4), schmidt_pair_state([0.5, 0.5]))
        with pytest.raises(ValueError, match=rf"{shape}.*\(16, 16\)"):
            run_schedule(sched, np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("p_g", [-0.01, 1.5, float("nan")])
    def test_invalid_gate_noise_raises(self, p_g):
        # a schedule of no rounds applies no gates, and still rejects p_g
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(bell, bell)
        assert sched.rounds == ()
        with pytest.raises(ValueError, match="p_g"):
            run_schedule(sched, p_g=p_g)
        rnd = diag_round(DiagonalPOVM(
            elements=[np.full(2, 0.5)] * 2, corrections=[np.arange(2)] * 2,
        ))
        with pytest.raises(ValueError, match="p_g"):
            execute_round(aux_state(bell, 2), rnd, p_g)


class TestScheduleDocument:
    def test_document_shape(self):
        alpha = np.array([0.4, 0.3, 0.2, 0.1])
        vec = np.diag(np.sqrt(alpha)).ravel().astype(complex)
        bell = schmidt_pair_state([0.5, 0.5])
        sched = compile_schedule(vec, bell, g=1)
        doc = schedule_to_document(sched)
        assert doc["group_size"] == 1
        assert len(doc["rounds"]) == 3
        assert doc["mcx_total"] == sum(r["mcx_total"] for r in doc["rounds"])
        assert abs(doc["success_probability"] - 1.0) < 1e-9
        for rnd in doc["rounds"]:
            assert len(rnd["elements"]) == len(rnd["corrections"])
        import json

        json.dumps(doc)
