"""The planning memos of ``compile_schedule`` and ``find_catalyst``.

Both keep their last few results keyed on the exact bytes of the inputs.
A hit returns the very object a cold call built, so every array in it is
read-only and every sequence a tuple, and a cold call after
``cache_clear()`` must give the same bytes. ``compile_schedule`` also
keeps the g-independent plan of an input, shared by its schedules at
every g, shares the rounds of a g past the step count, and keeps the
Birkhoff matching rule of each support. One sweep's p_d grid at two
values of a fits every planning memo, so sweeping it again, or at
another p_g, plans nothing twice. The conftest fixture empties all seven
memos before each test.
"""

import dataclasses
import json

import numpy as np
import pytest

from entconc import (
    PHI_PLUS,
    DiagonalPOVM,
    NoiseParams,
    compile_schedule,
    embed_povm,
    find_catalyst,
    locc,
    majorize,
    prepare_state,
    protocols,
    result_to_document,
    reuse_catalyst,
    run_cec,
    run_nec,
    run_schedule,
    schedule_to_document,
    synthesize,
)
from entconc.cli import main
from entconc.qmath import _MEMO_SIZE
from entconc.protocols import cec_planning_states, nec_planning_states

GROUPS = (1, 2, 3)
KINDS = ("nec", "cec", "random4", "random8")
CASES = [(kind, g) for kind in KINDS for g in GROUPS]


@pytest.fixture(scope="module")
def inputs():
    """Planning input kind -> (source, target), as the compile grid draws them."""
    rho = prepare_state(NoiseParams(a=0.1, p_d=0.05))
    nec = nec_planning_states(rho, rho)
    out = {"nec": nec, "cec": cec_planning_states(rho, rho, find_catalyst(*nec).state)}
    rng = np.random.default_rng(14)
    for d in (4, 8):
        psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        out[f"random{d}"] = (psi / np.linalg.norm(psi), PHI_PLUS)
    return out


def reachable_arrays(obj):
    """Every ndarray inside a plan: its fields, their lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from reachable_arrays(item)


def document(schedule) -> str:
    return json.dumps(schedule_to_document(schedule))


def record_calls(monkeypatch, name) -> list:
    """Patch locc's binding of ``name`` to log each call; return the log."""
    calls = []
    func = getattr(locc, name)
    monkeypatch.setattr(locc, name, lambda *a: calls.append(1) or func(*a))
    return calls


def assert_same_runs(first, second):
    for p_g in (0.0, 0.01):
        (w_1, rho_1), (w_2, rho_2) = (run_schedule(s, p_g=p_g) for s in (first, second))
        assert w_1 == w_2
        assert rho_1.tobytes() == rho_2.tobytes()


@pytest.mark.parametrize("kind, g", CASES)
class TestCompileMemo:
    def test_second_call_returns_same_object(self, inputs, kind, g):
        src, tgt = inputs[kind]
        first = compile_schedule(src, tgt, g)
        assert compile_schedule(src.copy(), tgt.copy(), g) is first
        assert compile_schedule.cache_info().hits == 1

    def test_cold_compile_equals_memoized(self, inputs, kind, g):
        src, tgt = inputs[kind]
        warm = compile_schedule(src, tgt, g)
        compile_schedule(src, tgt, g)
        compile_schedule.cache_clear()
        cold = compile_schedule(src, tgt, g)
        assert cold is not warm
        assert document(cold) == document(warm)
        assert_same_runs(warm, cold)

    def test_every_array_is_read_only(self, inputs, kind, g):
        arrays = list(reachable_arrays(compile_schedule(*inputs[kind], g)))
        assert len(arrays) > 8
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]

    def test_every_sequence_is_a_tuple(self, inputs, kind, g):
        """Rounds and synthesis blocks are tuples; POVM fields are read-only (m, d) arrays."""
        schedule = compile_schedule(*inputs[kind], g)
        before = document(schedule)
        rnd = schedule.rounds[0]
        for seq in (schedule.rounds, rnd.synthesis.blocks):
            assert type(seq) is tuple
            with pytest.raises(AttributeError):
                seq.pop()
            with pytest.raises(AttributeError):
                seq.append(seq[0])
        povm = rnd.povm
        for arr, dtype in ((povm.elements, float), (povm.corrections, int)):
            assert type(arr) is np.ndarray and arr.dtype == dtype
            assert arr.shape == (len(povm.elements), schedule.dim)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]
            with pytest.raises(ValueError, match="read-only"):
                arr += 0
        assert compile_schedule(*inputs[kind], g) is schedule
        assert document(schedule) == before


class TestRecordIdentity:
    def test_records_compare_and_hash_by_identity(self, inputs):
        src, tgt = inputs["cec"]
        cold = compile_schedule(src, tgt, 2)
        compile_schedule.cache_clear()
        warm = compile_schedule(src, tgt, 2)
        assert compile_schedule(src, tgt, 2) is warm
        c, w = cold.rounds[0], warm.rounds[0]
        for a, b in [(cold, warm), (c, w), (c.povm, w.povm), (c.embedding, w.embedding)]:
            assert a != b and a == a
            assert len({a, b}) == 2


@pytest.mark.parametrize("kind", KINDS)
class TestSharedPlan:
    def test_prefix_runs_once_across_group_sizes(self, monkeypatch, inputs, kind):
        counts = {name: record_calls(monkeypatch, name) for name in
                  ("schmidt_decompose", "_fix_degenerate_gauge", "t_transform_decompose")}
        warm = [compile_schedule(*inputs[kind], g) for g in GROUPS]
        assert {name: len(c) for name, c in counts.items()} == {
            "schmidt_decompose": 2, "_fix_degenerate_gauge": 1, "t_transform_decompose": 1}
        for g, schedule in zip(GROUPS, warm):
            compile_schedule.cache_clear()
            alone = compile_schedule(*inputs[kind], g)
            assert document(alone) == document(schedule)
            assert_same_runs(alone, schedule)

    def test_schedules_share_one_read_only_frame(self, inputs, kind):
        basis, *others = (compile_schedule(*inputs[kind], g).left_basis for g in GROUPS)
        assert all(other is basis for other in others)
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = basis[0, 0]


class TestRoundsPastStepCount:
    """A g past the step count shares the rounds of the schedule at it."""

    def test_nec_shares_its_two_step_rounds(self, inputs):
        src, tgt = inputs["nec"]
        assert len(compile_schedule(src, tgt, 1).rounds) == 2
        at_steps = compile_schedule(src, tgt, 2)
        past = compile_schedule(src, tgt, 3)
        assert len(at_steps.rounds) == 1 and len(at_steps.rounds[0].povm.elements) > 2
        assert past.rounds is at_steps.rounds
        assert past.final_filter is at_steps.final_filter
        assert (past.group_size, at_steps.group_size) == (3, 2)
        doc_past, doc_steps = json.loads(document(past)), json.loads(document(at_steps))
        assert doc_past.pop("group_size") == 3 and doc_steps.pop("group_size") == 2
        assert doc_past == doc_steps
        compile_schedule.cache_clear()
        cold = compile_schedule(src, tgt, 3)
        assert cold is not past and document(cold) == document(past)
        assert_same_runs(cold, past)

    def test_chain_of_no_steps_shares_group_size_one(self):
        schedules = [compile_schedule(PHI_PLUS, PHI_PLUS, g) for g in GROUPS]
        for g, schedule in zip(GROUPS, schedules):
            assert schedule.rounds == () and schedule.group_size == g
            assert schedule.final_filter is schedules[0].final_filter


class TestSynthesisMemo:
    """Synthesis reports per register shape, and the compile's structure memo."""

    @staticmethod
    def report(elements):
        d = len(elements[0])
        perms = [np.roll(np.arange(d), k) for k in range(len(elements))]
        return synthesize(embed_povm(DiagonalPOVM(elements, perms)))

    def test_outcomes_and_aux_count_do_not_collide(self):
        three = self.report([[0.2, 0.5], [0.3, 0.25], [0.5, 0.25]])
        four = self.report([[0.2, 0.5], [0.3, 0.25], [0.25, 0.1], [0.25, 0.15]])
        assert three is not four
        assert (three.mcx_total, four.mcx_total) == (8, 12)
        emb = embed_povm(DiagonalPOVM([[0.2, 0.5], [0.8, 0.5]], [[0, 1], [1, 0]]))
        wider = synthesize(dataclasses.replace(emb, aux_count=2))
        assert wider is not synthesize(emb)
        assert wider.blocks[0].touched_qubits == (0, 1, 2)
        assert synthesize(emb).blocks[0].touched_qubits == (0, 1)

    def test_cache_clear_empties_the_structure_memos(self, inputs):
        compile_schedule(*inputs["cec"], 2)
        assert majorize._support_rule.cache_info().currsize > 0
        compile_schedule.cache_clear()
        assert majorize._support_rule.cache_info().currsize == 0


class TestCompileKey:
    def test_input_written_in_place_is_compiled_anew(self, inputs):
        src = inputs["random4"][0].copy()
        before = compile_schedule(src, PHI_PLUS)
        src[:] = inputs["nec"][0]
        after = compile_schedule(src, PHI_PLUS)
        assert after is not before
        compile_schedule.cache_clear()
        assert document(after) == document(compile_schedule(inputs["nec"][0], PHI_PLUS))

    def test_failing_checks_raise_on_every_call(self, inputs):
        src, tgt = inputs["nec"]
        for _ in range(2):
            with pytest.raises(ValueError, match="norm"):
                compile_schedule(2.0 * src, tgt)
            with pytest.raises(ValueError, match="group size"):
                compile_schedule(src, tgt, 0)
        assert compile_schedule.cache_info().currsize == 0

    def test_cache_clear_empties_the_plan_memo(self, monkeypatch, inputs):
        calls = record_calls(monkeypatch, "schmidt_decompose")
        compile_schedule(*inputs["cec"], 1)
        compile_schedule(*inputs["cec"], 2)
        assert len(calls) == 2
        compile_schedule.cache_clear()
        compile_schedule(*inputs["cec"], 3)
        assert len(calls) == 4

    @pytest.mark.parametrize("source, target, match", [
        (np.full(16, 0.5), PHI_PLUS, "norm"),
        (np.eye(4)[0].astype(complex), PHI_PLUS, "Schmidt rank"),
        (PHI_PLUS, np.full(16, 0.25), "does not fit"),
    ])
    def test_failing_plan_raises_at_every_group_size(self, source, target, match):
        for g in GROUPS:
            with pytest.raises(ValueError, match=match):
                compile_schedule(source, target, g)
        assert locc._plan.cache_info().currsize == 0

    def test_memo_holds_at_most_its_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(_MEMO_SIZE + 4):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            compile_schedule(psi / np.linalg.norm(psi), PHI_PLUS)
        info = compile_schedule.cache_info()
        assert info.misses == _MEMO_SIZE + 4
        assert info.currsize == info.maxsize == _MEMO_SIZE


class TestGroupSize:
    def test_numpy_integer_is_stored_as_int(self, inputs):
        schedule = compile_schedule(*inputs["nec"], np.int64(2))
        assert type(schedule.group_size) is int
        assert json.loads(document(schedule))["group_size"] == 2
        assert compile_schedule(*inputs["nec"], 2) is schedule

    def test_bool_is_stored_as_int(self, inputs):
        schedule = compile_schedule(*inputs["nec"], True)
        assert type(schedule.group_size) is int
        assert '"group_size": 1' in document(schedule)

    def test_float_is_refused_cold_and_warm(self, inputs):
        with pytest.raises(TypeError):
            compile_schedule(*inputs["nec"], 2.0)
        compile_schedule(*inputs["nec"], 2)
        with pytest.raises(TypeError):
            compile_schedule(*inputs["nec"], 2.0)


class TestCatalystMemo:
    def test_second_call_returns_same_object(self, inputs):
        src, tgt = inputs["nec"]
        first = find_catalyst(src, tgt)
        assert find_catalyst(src.copy(), tgt.copy()) is first
        assert find_catalyst(src, PHI_PLUS) is not first

    def test_cold_search_equals_memoized(self, inputs):
        warm = find_catalyst(*inputs["nec"])
        find_catalyst.cache_clear()
        cold = find_catalyst(*inputs["nec"])
        assert cold is not warm
        assert cold.achieved_probability == warm.achieved_probability
        for field in ("schmidt", "state"):
            assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()

    def test_every_array_is_read_only(self, inputs):
        spec = find_catalyst(*inputs["nec"])
        arrays = list(reachable_arrays(spec))
        assert len(arrays) == 2
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_input_written_in_place_is_searched_anew(self, inputs):
        src = inputs["nec"][0].copy()
        before = find_catalyst(src, PHI_PLUS)
        src[:] = inputs["random4"][0]
        after = find_catalyst(src, PHI_PLUS)
        find_catalyst.cache_clear()
        cold = find_catalyst(inputs["random4"][0], PHI_PLUS)
        assert after is not before
        assert after.state.tobytes() == cold.state.tobytes()

    def test_failing_checks_raise_on_every_call(self, inputs):
        src, tgt = inputs["nec"]
        for _ in range(2):
            with pytest.raises(ValueError, match="norm"):
                find_catalyst(2.0 * src, tgt)
            with pytest.raises(ValueError, match="equal halves"):
                find_catalyst(src, np.ones(8, dtype=complex) / np.sqrt(8))
        assert find_catalyst.cache_info().currsize == 0

    def test_memo_holds_at_most_its_bound(self, inputs):
        src, tgt = inputs["nec"]
        for k in range(_MEMO_SIZE + 4):
            find_catalyst(other_source(src, seed=k), tgt)
        info = find_catalyst.cache_info()
        assert info.misses == _MEMO_SIZE + 4
        assert info.currsize == _MEMO_SIZE


class TestSweepPlansOnce:
    ARGV = ["sweep", "--protocols", "nec,cec,catalyst-reuse", "--axis", "pg",
            "--range", "0:0.1:0.01", "--a", "0.1", "--pd", "0.05"]

    def test_pg_sweep_compiles_twice_and_searches_once(self, tmp_path):
        assert main(self.ARGV + ["--out", str(tmp_path / "sweep.csv")]) == 0
        assert compile_schedule.cache_info().misses == 2
        assert find_catalyst.cache_info().misses == 1

    def test_recompiled_reuse_adds_one_compile_per_point(self, tmp_path):
        argv = self.ARGV + ["--recompile-on-reuse", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert compile_schedule.cache_info().misses == 2 + 11
        assert find_catalyst.cache_info().misses == 1


# the p_d grid of a sweep at two values of a: p_d = 0, 0.01, ..., 0.1
PD_GRID = [(a, i / 100) for a in (0.0, 0.1) for i in range(11)]
GRID_NAME = "the 22-point p_d grid (a in {0, 0.1} x p_d in {0, 0.01, ..., 0.1})"


@pytest.fixture(scope="module")
def grid_states():
    """(a, p_d) -> (pair state, NEC planning states) over PD_GRID."""
    out = {}
    for a, p_d in PD_GRID:
        rho = prepare_state(NoiseParams(a=a, p_d=p_d))
        out[a, p_d] = rho, nec_planning_states(rho, rho)
    return out


def plan_point(rho, nec):
    """The planning calls of one NEC and CEC sweep point at g = 1."""
    compile_schedule(*nec)
    compile_schedule(*cec_planning_states(rho, rho, find_catalyst(*nec).state))


def planning_misses() -> tuple:
    memos = (compile_schedule, locc._plan, locc._target_plan, find_catalyst)
    return tuple(memo.cache_info().misses for memo in memos)


def run_point(rho, p_g) -> list:
    """NEC, CEC and replayed reuse at one point, as comparable bytes."""
    cec = run_cec(rho, rho, find_catalyst(*nec_planning_states(rho, rho)), 1, p_g)
    results = (run_nec(rho, rho, 1, p_g), cec, reuse_catalyst(cec, rho, rho, p_g))
    return [(json.dumps(result_to_document(r)), r.output_state.tobytes(),
             None if r.catalyst_post is None else r.catalyst_post.tobytes()) for r in results]


class TestSweepGridFits:
    """One p_d grid at two values of a fits every planning memo."""

    def test_grid_inputs_fit_the_bound(self, grid_states):
        compiles, searches = set(), set()
        for rho, nec in grid_states.values():
            key = tuple(map(locc._input_bytes, nec))
            searches.add(key)
            compiles.add(key)
            cec = cec_planning_states(rho, rho, find_catalyst(*nec).state)
            compiles.add(tuple(map(locc._input_bytes, cec)))
        assert (len(compiles), len(searches)) == (28, 14), GRID_NAME
        assert len(compiles) <= _MEMO_SIZE, f"{GRID_NAME} overflows the compile memo"
        assert len(searches) <= _MEMO_SIZE, f"{GRID_NAME} overflows the catalyst memo"

    def test_second_pass_in_any_order_plans_nothing(self, grid_states):
        for rho, nec in grid_states.values():
            plan_point(rho, nec)
        first = planning_misses()
        assert first[0] == 28 and first[3] == 14
        points = list(grid_states.values())
        for i in np.random.default_rng(22).permutation(len(points)):
            plan_point(*points[i])
        assert planning_misses() == first, GRID_NAME

    def test_grid_stacked_over_pg_plans_once_and_equals_cold(self, grid_states):
        stacked = {(a, p_d, p_g): run_point(grid_states[a, p_d][0], p_g)
                   for p_g in (0.0, 1e-3) for a, p_d in PD_GRID}
        assert (compile_schedule.cache_info().misses, find_catalyst.cache_info().misses) == (
            28, 14), GRID_NAME
        for (a, p_d, p_g), warm in stacked.items():
            compile_schedule.cache_clear()
            find_catalyst.cache_clear()
            assert run_point(grid_states[a, p_d][0], p_g) == warm, (a, p_d, p_g)


def other_source(src, seed=5):
    """A random pure source of the same size: a new plan with the same target."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=src.size) + 1j * rng.normal(size=src.size)
    return psi / np.linalg.norm(psi)


class TestTargetPlan:
    """The target's identity-pinned Schmidt plan, memoized per register size."""

    def counts(self):
        info = locc._target_plan.cache_info()
        return info.hits, info.misses

    def test_hits_and_misses(self, inputs):
        src, tgt = inputs["random4"]
        compile_schedule(src, tgt, 1)
        compile_schedule(src, tgt, 2)
        assert self.counts() == (0, 1)
        compile_schedule(other_source(src), tgt)
        assert self.counts() == (1, 1)
        compile_schedule(*inputs["random8"])
        assert self.counts() == (1, 2)
        nec_src, nec_tgt = inputs["nec"]
        rho = prepare_state(NoiseParams(a=0.2, p_d=0.01))
        compile_schedule(nec_src, nec_tgt)
        compile_schedule(*nec_planning_states(rho, rho))
        assert self.counts() == (2, 3)

    @pytest.mark.parametrize("kind, g", CASES)
    def test_warm_target_plan_equals_cold_compile(self, inputs, kind, g):
        src, tgt = inputs[kind]
        compile_schedule(other_source(src), tgt, g)
        warm = compile_schedule(src, tgt, g)
        assert self.counts() == (1, 1)
        compile_schedule.cache_clear()
        cold = compile_schedule(src, tgt, g)
        assert self.counts() == (0, 1)
        pairs = list(zip(reachable_arrays(warm), reachable_arrays(cold), strict=True))
        assert len(pairs) > 8
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert_same_runs(warm, cold)

    def test_cached_plan_is_read_only(self, inputs):
        src, tgt = inputs["cec"]
        compile_schedule(src, tgt)
        plan = locc._target_plan(locc._input_bytes(tgt), 8, 8)
        assert self.counts() == (1, 1)
        for arr in plan:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]

    def test_cache_clear_empties_all_three_memos(self, inputs):
        memos = (locc._compile_schedule, locc._plan, locc._target_plan)
        compile_schedule(*inputs["cec"], 2)
        assert [memo.cache_info().currsize for memo in memos] == [1, 1, 1]
        compile_schedule.cache_clear()
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]

    @pytest.mark.parametrize("clear", [compile_schedule.cache_clear, find_catalyst.cache_clear],
                             ids=["compile_schedule", "find_catalyst"])
    def test_either_clear_empties_all_seven_memos(self, inputs, capsys, clear):
        memos = (locc._compile_schedule, locc._plan, locc._target_plan, majorize._support_rule,
                 protocols._find_catalyst, protocols._check_pair, protocols._pair_surrogate)
        point = ["sweep", "--protocols", "nec,cec,catalyst-reuse,distillation",
                 "--axis", "pd", "--range", "0.05:0.05:1", "--a", "0.1"]
        assert main(point) == 0
        compile_schedule(*inputs["cec"], 2)
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        clear()
        assert [memo.cache_info().currsize for memo in memos] == [0] * 7
        assert main(point) == 0
        capsys.readouterr()
        assert protocols._pair_surrogate.cache_info().misses == 1
