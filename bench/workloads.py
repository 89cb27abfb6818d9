"""The benchmark's three workloads: inputs, one op, and the output checks.

Each workload is a closed loop of ops in whole rounds. ``make_round(r)``
draws the inputs of round r from the run's seed (outside the timed op),
``run(op)`` is the timed op, and ``check(op, out)`` returns the list of
violations found by comparing the op's outputs with ``oracle``.

pd-sweep
    One op is ``entconc sweep --protocols nec,cec,catalyst-reuse,
    distillation --axis pd`` at one point (a, p_d) of the grid a in
    {0, 0.1} x p_d in {0, 0.01, ..., 0.1}, with p_g = 0 and g = 1. A
    round is the whole 22-point grid in an order drawn from the seed, so
    every run makes the same ops.
gate-noise
    One op is ``entconc sweep --protocols nec,cec,catalyst-reuse --axis
    pg`` at one p_g drawn log-uniformly from [1e-4, 0.02], with a = 0.1,
    p_d = 0.05 and g = 1. A round is two draws. Half the draws lie below
    about 1.4e-3, where the success check of the noisy runs is tight (see
    ``GateNoise.reference``); the cost of an op does not depend on p_g.
compile-grid
    One op compiles the four planning inputs of one draw, each at
    g = 1, 2, 3 (12 ``compile_schedule`` calls): the NEC and CEC planning
    states at (a, p_d) drawn uniformly from [0.05, 0.3] x [0, 0.1], and
    random complex 4x4 and 8x8 sources against a Bell target on their
    leading qubits. A round is four draws; every round draws new ones. The
    CEC catalyst comes from ``oracle.best_catalyst``, which scans the same
    grid as ``find_catalyst`` in one array pass: at 0.35 s a draw, the
    library search would take most of a run's time away from the ops.
"""

from __future__ import annotations

import contextlib
import csv
import io

import numpy as np

import oracle
from spans import rebind

RUNNERS = ("run_nec", "run_cec", "reuse_catalyst", "run_distillation")
SEARCHES = ("optimize_distillation",)
PD_GRID = [(a, round(i / 100, 2)) for a in (0.0, 0.1) for i in range(11)]
PD_PROTOCOLS = ("nec", "cec", "catalyst-reuse", "distillation")
PG_PROTOCOLS = ("nec", "cec", "catalyst-reuse")
GATE_A, GATE_PD = 0.1, 0.05
PG_LOW, PG_HIGH = 1e-4, 0.02
GROUPS = (1, 2, 3)


class Capture:
    """Keeps every ProtocolResult the public runners return to their caller.

    Each runner is wrapped once and rebound at every entconc name that
    refers to it, so results are seen whichever binding the CLI calls.
    Calls made inside another runner or inside a search (the candidate
    plans ``optimize_distillation`` scores) are intermediate and are not
    kept.
    """

    def __init__(self, modules):
        self.results: list = []
        self.depth = 0
        protocols = next(m for m in modules if m.__name__ == "entconc.protocols")
        for name in RUNNERS + SEARCHES:
            fn = getattr(protocols, name)
            rebind(modules, fn, self._wrap(fn, keep=name in RUNNERS))

    def _wrap(self, fn, keep: bool):
        def captured(*args, **kwargs):
            self.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.depth -= 1
            if keep and self.depth == 0:
                self.results.append(result)
            return result

        return captured


def _fmt(value) -> str:
    """The CSV's number format: 12 significant digits, blank for None."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _row_key(res) -> tuple:
    return (
        _fmt(res.success_probability),
        _fmt(res.output_fidelity),
        _fmt(res.catalyst_fidelity_before),
        _fmt(res.catalyst_fidelity_after),
        _fmt(res.mcx_total),
    )


def _result_checks(res, label: str) -> list:
    out = []
    for field in (
        "success_probability",
        "output_fidelity",
        "catalyst_fidelity_before",
        "catalyst_fidelity_after",
    ):
        out += oracle.unit_interval(f"{label}.{field}", getattr(res, field))
    out += oracle.density_matrix(f"{label}.output_state", res.output_state)
    out += oracle.density_matrix(f"{label}.catalyst_post", res.catalyst_post)
    return out


class SweepWorkload:
    """Shared op and checks of the two ``entconc sweep`` workloads."""

    axis = ""
    protocols: tuple = ()
    known_fault: tuple = ()

    def __init__(self, ec, capture, seed: int):
        self.cli = ec.cli
        self.capture = capture
        self.rng = np.random.default_rng(seed)

    def argv(self, op) -> list:
        a, p_d, p_g = op
        value = {"pd": p_d, "pg": p_g}[self.axis]
        return [
            "sweep", "--protocols", ",".join(self.protocols),
            "--axis", self.axis, "--range", f"{value!r}:{value!r}:1",
            "--a", repr(a), "--pd", repr(p_d), "--pg", repr(p_g), "--g", "1",
        ]

    def run(self, op):
        self.capture.results.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv(op))
        return code, buf.getvalue(), list(self.capture.results)

    def rows(self, op, out) -> tuple:
        """Match each CSV row to the returned result it prints; check both."""
        code, text, results = out
        if code != 0:
            return None, [f"exit code {code}"]
        problems = []
        for i, res in enumerate(results):
            problems += _result_checks(res, f"result{i}")
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        table = list(csv.DictReader(lines))
        if [r["protocol"] for r in table] != list(self.protocols):
            return None, problems + [f"rows {[r['protocol'] for r in table]}"]
        matched = {}
        free = list(results)
        for row in table:
            for field, want in zip(("a", "p_d", "p_g"), op):
                if float(row[field]) != want:
                    problems.append(f"{row['protocol']}.{field}={row[field]}")
            key = (
                row["success_probability"],
                row["output_fidelity"],
                row["catalyst_fidelity_before"],
                row["catalyst_fidelity_after"],
                row["mcx_total"],
            )
            hit = next((r for r in reversed(free) if _row_key(r) == key), None)
            if hit is None:
                problems.append(f"{row['protocol']} row matches no returned result")
                continue
            free.remove(hit)
            matched[row["protocol"]] = hit
        return matched, problems


class PdSweep(SweepWorkload):
    axis = "pd"
    # qmath.fidelity does not clip rounding: the catalyst fidelities come
    # out at 1.0000000000000002 on some grid points.
    known_fault = ("catalyst_fidelity_before", "catalyst_fidelity_after")
    protocols = PD_PROTOCOLS
    warmup_op = (0.1, 0.05, 0.0)

    def make_round(self, r: int) -> list:
        order = self.rng.permutation(len(PD_GRID))
        return [(*PD_GRID[i], 0.0) for i in order]

    def check(self, op, out) -> list:
        matched, problems = self.rows(op, out)
        if matched is None or len(matched) < len(self.protocols):
            return problems
        a, p_d, _ = op
        nec, cec = matched["nec"], matched["cec"]
        reuse, dist = matched["catalyst-reuse"], matched["distillation"]
        if p_d == 0.0:
            source = oracle.schmidt_vector(oracle.two_pair_source(a))
            bell = np.array([0.5, 0.5, 0.0, 0.0])
            c1 = float(cec.catalyst_spec.schmidt[0])
            want_nec = oracle.vidal(source, bell)
            want_cec = oracle.vidal(
                oracle.with_catalyst(source, c1), oracle.with_catalyst(bell, c1)
            )
            problems += oracle.close("nec.success", nec.success_probability, want_nec)
            problems += oracle.close("cec.success", cec.success_probability, want_cec)
            problems += oracle.close("nec.fidelity", nec.output_fidelity, 1.0)
            problems += oracle.close("cec.fidelity", cec.output_fidelity, 1.0)
        if a == 0.0:
            for name, res in (("nec", nec), ("cec", cec)):
                problems += oracle.close(f"{name}.infidelity", res.infidelity, p_d)
                problems += oracle.close(f"{name}.success", res.success_probability, 1.0)
            problems += oracle.at_least(
                "distillation.fidelity", dist.output_fidelity,
                oracle.dejmps_fidelity(p_d), 1e-12,
            )
        problems += oracle.at_least(
            "cec.success", cec.success_probability, nec.success_probability, 1e-9
        )
        problems += oracle.close(
            "catalyst-reuse.catalyst_fidelity_before",
            reuse.catalyst_fidelity_before, cec.catalyst_fidelity_after, 1e-12,
        )
        return problems


class GateNoise(SweepWorkload):
    axis = "pg"
    protocols = PG_PROTOCOLS
    warmup_op = (GATE_A, GATE_PD, 0.01)

    def make_round(self, r: int) -> list:
        draws = np.round(np.exp(self.rng.uniform(np.log(PG_LOW), np.log(PG_HIGH), 2)), 6)
        return [(GATE_A, GATE_PD, float(p)) for p in draws]

    def reference(self, ec) -> None:
        """The p_g = 0 results and noise charges the noisy ops are held to.

        N counts the single-qubit noise applications the synthesis report
        charges (MCX gates x qubits touched); ``execute_round`` applies
        exactly these. Each is the mixture (1 - p_g) id + p_g (Pauli
        channel), so the run is a mixture over error paths in which the
        error-free path has weight q = (1 - p_g)^N and reproduces the
        p_g = 0 run. Every other path accepts with some probability in
        [0, 1], so success lies in [q s0, q s0 + 1 - q], s0 the p_g = 0
        success.
        """
        p = ec.protocols
        rho = ec.noise.prepare_state(ec.noise.NoiseParams(a=GATE_A, p_d=GATE_PD))
        surrogate, target = p.nec_planning_states(rho, rho)
        catalyst = p.find_catalyst(surrogate, target)
        nec = p.run_nec(rho, rho)
        cec = p.run_cec(rho, rho, catalyst)
        reuse = p.reuse_catalyst(cec, rho, rho)
        cec_in = p.cec_planning_states(rho, rho, catalyst.state)
        charges = {}
        for name, (src, tgt) in (("nec", (surrogate, target)), ("cec", cec_in)):
            schedule = ec.locc.compile_schedule(src, tgt, 1)
            charges[name] = sum(
                blk.mcx_count * len(blk.touched_qubits)
                for rnd in schedule.rounds
                for blk in rnd.synthesis.blocks
            )
        charges["catalyst-reuse"] = charges["cec"]
        self.ref = {"nec": nec, "cec": cec, "catalyst-reuse": reuse}
        self.charges = charges

    def check(self, op, out) -> list:
        matched, problems = self.rows(op, out)
        if matched is None or len(matched) < len(self.protocols):
            return problems
        p_g = op[2]
        for name, res in matched.items():
            ref = self.ref[name]
            if res.mcx_total != ref.mcx_total:
                problems.append(f"{name}.mcx {res.mcx_total} != {ref.mcx_total} at p_g=0")
            q = (1.0 - p_g) ** self.charges[name]
            if name == "catalyst-reuse":
                # The reused catalyst is the first run's success-branch
                # state: its error-free part has weight q1 s1_0 / s1, s1
                # the first run's success (the CEC row's) and s1_0 its
                # p_g = 0 value. The rest is some other state.
                q1 = (1.0 - p_g) ** self.charges["cec"]
                first = matched["cec"].success_probability
                clean = q1 * self.ref["cec"].success_probability
                q *= min(1.0, clean / first) if first > 0 else 0.0
            problems += oracle.within(
                f"{name}.success", res.success_probability,
                q * ref.success_probability, q * ref.success_probability + 1.0 - q,
            )
        return problems


class CompileGrid:
    """Schedule compilation of NEC, CEC and random planning inputs."""

    known_fault: tuple = ()

    def __init__(self, ec, capture, seed: int):
        self.ec = ec
        self.seed = seed
        self.warmup_op = self._draw(np.random.default_rng([seed, 1 << 20]))

    def _draw(self, rng) -> list:
        """One op's inputs: (label, source, target, source dims) tuples."""
        p, noise = self.ec.protocols, self.ec.noise
        a, p_d = rng.uniform(0.05, 0.3), rng.uniform(0.0, 0.1)
        rho = noise.prepare_state(noise.NoiseParams(a=float(a), p_d=float(p_d)))
        nec_src, nec_tgt = p.nec_planning_states(rho, rho)
        c1 = oracle.best_catalyst(
            oracle.schmidt_vector(nec_src.reshape(4, 4)),
            oracle.schmidt_vector(nec_tgt.reshape(4, 4)),
        )
        catalyst = p.catalyst_from_schmidt(c1)
        cec_src, cec_tgt = p.cec_planning_states(rho, rho, catalyst.state)
        inputs = [("nec", nec_src, nec_tgt, 4), ("cec", cec_src, cec_tgt, 8)]
        for d in (4, 8):
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            inputs.append((f"random{d}", psi / np.linalg.norm(psi), oracle.BELL_PHI_PLUS, d))
        return inputs

    def make_round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [self._draw(rng) for _ in range(4)]

    def run(self, op):
        compile_schedule = self.ec.locc.compile_schedule
        return [compile_schedule(src, tgt, g) for _, src, tgt, _ in op for g in GROUPS]

    def check(self, op, out) -> list:
        problems = []
        schedules = iter(out)
        for label, src, tgt, d in op:
            full_target = tgt if tgt.size == d * d else oracle.bell_target(d, d)
            want = oracle.vidal(
                oracle.schmidt_vector(src.reshape(d, d)),
                oracle.schmidt_vector(full_target.reshape(d, d)),
            )
            for g in GROUPS:
                tag = f"{label}.g{g}"
                schedule = next(schedules)
                problems += oracle.close(
                    f"{tag}.planned_success", schedule.success_probability, want
                )
                prob, rho = self.ec.locc.run_schedule(schedule)
                problems += oracle.close(f"{tag}.success", prob, want)
                fid = float(np.real(full_target.conj() @ rho @ full_target))
                problems += oracle.close(f"{tag}.fidelity", fid, 1.0)
                problems += oracle.density_matrix(f"{tag}.output", rho)
                for k, rnd in enumerate(schedule.rounds):
                    if g == 1 and (
                        len(rnd.povm.elements) != 2 or rnd.embedding.aux_count != 1
                    ):
                        problems.append(
                            f"{tag} round {k}: {len(rnd.povm.elements)} outcomes,"
                            f" {rnd.embedding.aux_count} aux qubits"
                        )
                    problems += oracle.naimark(rnd, f"{tag} round {k}")
        return problems


WORKLOADS = {"pd-sweep": PdSweep, "gate-noise": GateNoise, "compile-grid": CompileGrid}


def known_fault_only(wl, problems: list) -> bool:
    """True when every violation is the workload's known fault.

    That is a field named in ``wl.known_fault`` a few ulps above 1.
    """
    return all(
        oracle.ROUNDING in p and any(f".{f}=" in p for f in wl.known_fault)
        for p in problems
    )
