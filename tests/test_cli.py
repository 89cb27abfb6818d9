"""Tests for the sweep/compile/report command line."""

import json

import numpy as np
import pytest

from entconc import NoiseParams, cli, prepare_state
from entconc.cli import main, COLUMNS, CSV_VERSION


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in data[1:]]
    return comments, header, rows


def write_csv(path, rows):
    lines = [f"# {CSV_VERSION}", "# axis=pg convention=error"]
    lines.append(",".join(COLUMNS))
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def synth_row(protocol, pg, infid, succ=0.9):
    return {
        "protocol": protocol,
        "a": 0.15,
        "p_d": 0.05,
        "p_g": pg,
        "g": 1,
        "success_probability": succ,
        "output_fidelity": 1.0 - infid,
        "infidelity": infid,
        "catalyst_fidelity_before": "",
        "catalyst_fidelity_after": "",
        "mcx_total": 8,
    }


class TestSweep:
    def test_three_protocol_pd_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--protocols", "nec,cec,distillation",
            "--axis", "pd", "--range", "0:0.1:0.01",
            "--out", str(out),
        ])
        assert code == 0
        comments, header, rows = read_rows(out)
        assert comments[0] == f"# {CSV_VERSION}"
        assert header == list(COLUMNS)
        assert len(rows) == 33
        for proto in ("nec", "cec", "distillation"):
            assert sum(r["protocol"] == proto for r in rows) == 11
        nec = [r for r in rows if r["protocol"] == "nec"]
        pds = [float(r["p_d"]) for r in nec]
        infs = [float(r["infidelity"]) for r in nec]
        assert pds == sorted(pds)
        # linear-trend texture: infidelity grows with p_d and stays < 2 p_d
        assert infs[0] < 1e-9
        assert all(b >= a - 1e-9 for a, b in zip(infs, infs[1:]))
        assert all(inf < 2 * pd + 1e-9 for pd, inf in zip(pds, infs) if pd > 0)

    def test_each_point_planned_once(self, tmp_path, monkeypatch):
        import entconc.cli as cli

        calls = {"find_catalyst": 0, "prepare_state": 0}
        for name in calls:
            def counted(*args, _fn=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        argv = ["sweep", "--axis", "pd", "--range", "0:0.02:0.01", "--a", "0.1"]
        both, alone = tmp_path / "both.csv", tmp_path / "cec.csv"
        assert main(argv + ["--protocols", "cec,catalyst-reuse", "--out", str(both)]) == 0
        assert calls == {"find_catalyst": 3, "prepare_state": 3}
        assert main(argv + ["--protocols", "cec", "--out", str(alone)]) == 0
        lines = both.read_text().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == ["cec"] * 3 + ["catalyst-reuse"] * 3
        assert "\n".join(lines[:-3]) + "\n" == alone.read_text()

    def test_coherent_axis_pure_pipeline(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main([
            "sweep", "--protocols", "nec",
            "--axis", "a", "--range", "0:0.4:0.1",
            "--out", str(out),
        ])
        assert code == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 5
        fids = [float(r["output_fidelity"]) for r in rows]
        succ = [float(r["success_probability"]) for r in rows]
        assert all(abs(f - 1.0) < 1e-9 for f in fids)
        assert abs(succ[0] - 1.0) < 1e-9
        assert all(b <= a + 1e-9 for a, b in zip(succ, succ[1:]))

    def test_byte_determinism(self, tmp_path):
        args = [
            "sweep", "--protocols", "nec,cec",
            "--axis", "pd", "--range", "0:0.04:0.02",
        ]
        f1 = tmp_path / "one.csv"
        f2 = tmp_path / "two.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_memoized_sweep_equals_cold_points(self, tmp_path):
        from entconc import compile_schedule, find_catalyst

        args = ["sweep", "--protocols", "nec,cec,catalyst-reuse", "--axis", "pg",
                "--a", "0.1", "--pd", "0.05"]

        def data_rows(path):
            return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]

        warm = tmp_path / "warm.csv"
        assert main(args + ["--range", "0:0.02:0.01", "--out", str(warm)]) == 0
        assert compile_schedule.cache_info().hits > 0
        cold = []
        for p_g in ("0", "0.01", "0.02"):
            compile_schedule.cache_clear()
            find_catalyst.cache_clear()
            point = tmp_path / f"cold-{p_g}.csv"
            assert main(args + ["--range", f"{p_g}:{p_g}:1", "--out", str(point)]) == 0
            cold += data_rows(point)
        assert sorted(data_rows(warm)) == sorted(cold)

    def test_svg_output(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code = main([
            "sweep", "--protocols", "nec,cec",
            "--axis", "pd", "--range", "0:0.04:0.02",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        assert text.count("<polyline") >= 4
        assert "infidelity" in text and "success probability" in text
        assert ">nec<" in text and ">cec<" in text

    def test_retention_convention(self, tmp_path):
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        code = main([
            "sweep", "--protocols", "nec",
            "--axis", "pd", "--range", "0:0.04:0.02",
            "--axis-convention", "retention",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        comments, _, _ = read_rows(out)
        assert any("retention = 1 - value" in c for c in comments)
        assert "retention" in svg.read_text()

    def test_catalyst_columns_filled_for_cec(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main([
            "sweep", "--protocols", "nec,cec",
            "--axis", "pd", "--range", "0.05:0.05:0.01", "--a", "0.1",
            "--out", str(out),
        ])
        assert code == 0
        _, _, rows = read_rows(out)
        by_proto = {r["protocol"]: r for r in rows}
        assert by_proto["nec"]["catalyst_fidelity_after"] == ""
        assert 0.0 < float(by_proto["cec"]["catalyst_fidelity_after"]) < 1.0

    def test_empty_protocols_usage_error(self, tmp_path, capsys):
        code = main([
            "sweep", "--protocols", " , ",
            "--axis", "pd", "--range", "0:0.1:0.05",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rng_text", ["0:0.1", "0.2:0.1:0.05", "0:1.5:0.1", "0:0.1:0", "a:b:c"]
    )
    def test_bad_range_usage_error(self, tmp_path, rng_text):
        code = main([
            "sweep", "--protocols", "nec",
            "--axis", "pd", "--range", rng_text,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_usage_error(self, tmp_path, capsys, step):
        code = main([
            "sweep", "--protocols", "nec",
            "--axis", "pd", "--range", f"0:0.1:{step}",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "step must be finite and positive" in capsys.readouterr().err

    def test_missing_axis_usage_error(self, tmp_path):
        code = main([
            "sweep", "--protocols", "nec",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unknown_protocol_usage_error(self, tmp_path):
        code = main([
            "sweep", "--protocols", "nec,teleport",
            "--axis", "pd", "--range", "0:0.1:0.05",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "option", [["--weights", "0,0,0"], ["--weights", "a,b,c"], ["--g", "0"]]
    )
    def test_bad_option_usage_error(self, tmp_path, capsys, option):
        code = main([
            "sweep", "--axis", "pd", "--range", "0:0.01:0.01", *option,
            "--out", str(tmp_path / "x.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("weights", ["nan,0,0", "1,nan,0"])
    def test_nan_weights_usage_error(self, tmp_path, capsys, weights):
        code = main([
            "sweep", "--protocols", "nec", "--axis", "pd", "--range", "0:0.01:0.01",
            "--weights", weights, "--out", str(tmp_path / "x.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_pair_state_exits_3(self, tmp_path, monkeypatch, capsys):
        import entconc.cli as cli

        prepare = cli.prepare_state
        monkeypatch.setattr(cli, "prepare_state", lambda params: 2.0 * prepare(params))
        code = main([
            "sweep", "--protocols", "nec", "--axis", "pd",
            "--range", "0.05:0.05:1", "--a", "0.1",
            "--out", str(tmp_path / "sweep.csv"),
        ])
        assert code == 3
        assert "trace" in capsys.readouterr().err


class TestDefaultWeights:
    @pytest.mark.parametrize("p_d", [0.05, 0.75, 1.0])
    def test_state_equals_noise_params_default(self, p_d):
        args = cli.build_parser().parse_args(
            ["sweep", "--axis", "pd", "--range", f"{p_d}:{p_d}:1", "--a", "0.1", "--pd", str(p_d)]
        )
        got = prepare_state(cli._noise_params(args))
        assert np.array_equal(got, prepare_state(NoiseParams(a=0.1, p_d=p_d)))

    def test_header_prints_default_weights(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--axis", "pd", "--range", "0:0:1", "--out", str(out)])
        comments, _, _ = read_rows(out)
        assert comments[1].endswith(" weights=0.57735026919,0.57735026919,0.57735026919")


class TestCompile:
    def test_nec_schedule_document(self, tmp_path):
        out = tmp_path / "sched.json"
        code = main([
            "compile", "--protocol", "nec",
            "--a", "0.1", "--pd", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["context"]["protocol"] == "nec"
        assert doc["context"]["a"] == 0.1
        sched = doc["schedule"]
        assert sched["mcx_total"] == sum(r["mcx_total"] for r in sched["rounds"])
        for rnd in sched["rounds"]:
            assert rnd["mcx_total"] <= 8
            total = np.zeros(len(rnd["current"]))
            for el in rnd["elements"]:
                total += np.asarray(el)
            on = total > 0.5
            assert np.allclose(total[on], 1.0, atol=1e-10)

    def test_cec_schedule_context(self, tmp_path):
        out = tmp_path / "sched.json"
        code = main([
            "compile", "--protocol", "cec",
            "--a", "0.1", "--pd", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "catalyst_c1" in doc["context"]
        assert 0.5 <= doc["context"]["catalyst_c1"] <= 1.0
        for rnd in doc["schedule"]["rounds"]:
            assert rnd["mcx_total"] <= 16

    def test_compile_deterministic(self, tmp_path):
        args = ["compile", "--protocol", "nec", "--a", "0.05", "--pd", "0.02"]
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestOutput:
    @pytest.mark.parametrize("args", [
        ["sweep", "--protocols", "nec,cec", "--axis", "pd", "--range", "0:0.02:0.01", "--a", "0.1"],
        ["compile", "--protocol", "cec", "--a", "0.1", "--pd", "0.05"],
    ], ids=["sweep-csv", "compile-json"])
    def test_stdout_and_file_get_the_same_bytes(self, tmp_path, capsysbinary, args):
        path = tmp_path / "out"
        assert main(args + ["--out", "-"]) == 0
        stdout = capsysbinary.readouterr().out
        assert main(args + ["--out", str(path)]) == 0
        assert stdout and path.read_bytes() == stdout


class TestReport:
    def test_single_row_echo(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_csv(path, [synth_row("nec", 0.0, 0.05)])
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 rows" in out
        assert "nec" in out
        assert "0.05" in out

    def test_crossover_detection(self, tmp_path, capsys):
        rows = []
        for pg, cec_inf, dist_inf in [
            (0.0, 0.01, 0.02),
            (0.005, 0.03, 0.025),
            (0.01, 0.06, 0.03),
        ]:
            rows.append(synth_row("cec", pg, cec_inf))
            rows.append(synth_row("distillation", pg, dist_inf))
        path = tmp_path / "cross.csv"
        write_csv(path, rows)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lowest infidelity from p_g=0: cec" in out
        assert "lowest infidelity from p_g=0.005: distillation" in out

    def test_missing_file_error(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_malformed_columns_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("col1,col2\n1,2\n")
        assert main(["report", str(path)]) == 2

    def test_report_consumes_sweep_output(self, tmp_path, capsys):
        out = tmp_path / "sw.csv"
        assert main([
            "sweep", "--protocols", "nec",
            "--axis", "pd", "--range", "0:0.04:0.02",
            "--out", str(out),
        ]) == 0
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "3 rows" in text
        assert "axis: p_d" in text


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_get_their_own_arguments(self, monkeypatch):
        seen = []
        for name in ("_cmd_sweep", "_cmd_compile", "_cmd_report"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        calls = [
            ["compile", "--protocol", "cec", "--a", "0.1", "--g", "3", "--out", "x.json"],
            ["sweep", "--protocols", "nec,cec", "--axis", "pd", "--range", "0:0.1:0.05",
             "--weights", "1,0,0", "--recompile-on-reuse"],
            ["compile"],
            ["sweep"],
            ["report", "a.csv", "b.csv"],
        ]
        for argv in calls:
            assert main(argv) == 0
        fresh = [vars(cli.build_parser.__wrapped__().parse_args(argv)) for argv in calls]
        assert seen == fresh
        assert seen[2]["protocol"] == "nec" and seen[2]["a"] == 0.0 and seen[2]["g"] == 1
        assert seen[2]["out"] == "-"
        assert seen[3]["weights"] == (1 / np.sqrt(3),) * 3
        assert not seen[3]["recompile_on_reuse"] and seen[3]["axis"] is None
        assert "protocol" not in seen[3] and "files" not in seen[3]
