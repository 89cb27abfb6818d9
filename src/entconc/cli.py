"""Benchmark command line for the concentration and distillation runners.

Subcommands
-----------
sweep
    Run the selected protocols over a swept noise axis and write a CSV
    (and optionally an SVG plot) of success probability and infidelity.
compile
    Dump the compiled conversion schedule for given noise parameters as
    JSON, for inspection and golden tests.
report
    Summarize previously written sweep CSVs: ranges, extrema, and which
    protocol has the lowest infidelity where.

All outputs are deterministic: identical arguments produce byte-identical
files. Exit codes: 0 success, 2 usage error (a bad option, or a file that
cannot be opened or read), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .locc import compile_schedule, schedule_to_document
from .noise import NoiseParams, prepare_state
from .qmath import INPUT_TOL, UNIT_TOL
from .protocols import (
    cec_planning_states,
    find_catalyst,
    nec_planning_states,
    optimize_distillation,
    reuse_catalyst,
    run_cec,
    run_distillation,
    run_nec,
)

CSV_VERSION = "entconc-sweep-csv v1"
COLUMNS = (
    "protocol",
    "a",
    "p_d",
    "p_g",
    "g",
    "success_probability",
    "output_fidelity",
    "infidelity",
    "catalyst_fidelity_before",
    "catalyst_fidelity_after",
    "mcx_total",
)
PROTOCOL_CHOICES = ("nec", "cec", "catalyst-reuse", "distillation")
AXIS_CHOICES = {"a": "a", "pd": "p_d", "pg": "p_g"}
_COLORS = {
    "nec": "#1f77b4",
    "cec": "#d62728",
    "catalyst-reuse": "#9467bd",
    "distillation": "#2ca02c",
}


class UsageError(Exception):
    """Invalid arguments or malformed input files."""


def _parse_protocols(text: str) -> list:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise UsageError("at least one protocol must be selected")
    out = []
    for name in names:
        if name not in PROTOCOL_CHOICES:
            raise UsageError(
                f"unknown protocol {name!r}; choose from "
                + ", ".join(PROTOCOL_CHOICES)
            )
        if name not in out:
            out.append(name)
    return out


def _parse_range(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--range must be lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --range value: {exc}") from exc
    if not (math.isfinite(step) and step > 0):
        raise UsageError("--range step must be finite and positive")
    if not (0.0 <= lo <= hi <= 1.0):
        raise UsageError("--range endpoints must satisfy 0 <= lo <= hi <= 1")
    count = int(math.floor((hi - lo) / step + INPUT_TOL))
    return [round(lo + i * step, 12) for i in range(count + 1)]


def _parse_weights(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--weights must be three comma-separated numbers ex,ez,ey")
    try:
        w = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"bad --weights value: {exc}") from exc
    norm = float(np.sqrt(np.sum(w**2)))
    if norm < UNIT_TOL:
        raise UsageError("--weights must not be all zero")
    return tuple(w / norm)


def _parse_group_size(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(f"--g must be a positive integer, got {text!r}")
    return int(text)


def _noise_params(args) -> NoiseParams:
    """NoiseParams of the options as given, ``--a``, ``--pd`` and ``--pg`` included.

    The depolarizing weights are the squared coherent amplitudes; for the
    default amplitudes, NoiseParams' own exact defaults (1/3 each).
    """
    fields = {"a": args.a, "p_d": args.pd, "p_g": args.pg}
    if args.weights != NoiseParams.coh_weights:
        depol = tuple(abs(w) ** 2 for w in args.weights)
        fields["coh_weights"] = args.weights
        fields["depol_weights"] = tuple(x / sum(depol) for x in depol)
    return _usage_checked(NoiseParams, **fields)


def _usage_checked(make, *args, **fields):
    """``make(*args, **fields)``, with NoiseParams' ValueError raised as a UsageError."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _point_results(protocols, params: NoiseParams, g: int, recompile: bool) -> dict:
    """Results of the selected protocols at one sweep point, planned once."""
    rho = prepare_state(params)
    out = {}
    if "nec" in protocols:
        out["nec"] = run_nec(rho, rho, g, params.p_g)
    if "cec" in protocols or "catalyst-reuse" in protocols:
        catalyst = find_catalyst(*nec_planning_states(rho, rho))
        out["cec"] = run_cec(rho, rho, catalyst, g, params.p_g)
        if "catalyst-reuse" in protocols:
            out["catalyst-reuse"] = reuse_catalyst(
                out["cec"], rho, rho, params.p_g, recompile_from_state=recompile
            )
    if "distillation" in protocols:
        plan = optimize_distillation(rho, rho, params.p_g)
        out["distillation"] = run_distillation(rho, rho, plan, params.p_g)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _sweep_rows(protocols, values, axis_field, args):
    """CSV rows, protocol-major, of the protocols at each swept value.

    The options are checked as given before the swept field replaces one,
    so a bad value of the swept option is a usage error too.
    """
    base = _noise_params(args)
    points = [_usage_checked(dataclasses.replace, base, **{axis_field: value})
              for value in values]
    results = [_point_results(protocols, p, args.g, args.recompile_on_reuse) for p in points]
    rows = []
    for protocol in protocols:
        for params, res in zip(points, (r[protocol] for r in results)):
            row = {"protocol": protocol, "a": params.a, "p_d": params.p_d,
                   "p_g": params.p_g, "g": args.g}
            # the remaining columns are ProtocolResult fields of the same name
            rows.append(row | {c: getattr(res, c) for c in COLUMNS[5:]})
    return rows


def _write_csv(stream, rows, axis_name, args):
    stream.write(f"# {CSV_VERSION}\n")
    stream.write(
        f"# axis={axis_name} convention={args.axis_convention}"
        f" a={_fmt(args.a)} p_d={_fmt(args.pd)} p_g={_fmt(args.pg)}"
        f" g={args.g} weights={','.join(_fmt(w) for w in args.weights)}\n"
    )
    if args.axis_convention == "retention":
        stream.write(
            "# axis columns store error probabilities; retention = 1 - value\n"
        )
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in COLUMNS])


def _svg_panel(lines, title, series, x_label, y_range, offset_y):
    left, top, width, height = 70.0, offset_y + 30.0, 520.0, 220.0
    xs_all = [x for pts in series.values() for x, _ in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    # axis values are rounded to 12 decimals, so distinct ones differ by
    # about 1e-12 or more, and both y ranges are at least 1e-6 high
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = y_range

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * width

    def sy(y):
        return top + height - (y - y_lo) / (y_hi - y_lo) * height

    lines.append(
        f'<text x="{left:.1f}" y="{offset_y + 18:.1f}" font-size="14" '
        f'font-family="sans-serif">{title}</text>'
    )
    lines.append(
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{width:.1f}" '
        f'height="{height:.1f}" fill="none" stroke="#888"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        lines.append(
            f'<text x="{sx(xv):.1f}" y="{top + height + 16:.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{xv:.4g}</text>'
        )
        lines.append(
            f'<text x="{left - 6:.1f}" y="{sy(yv) + 4:.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{yv:.4g}</text>'
        )
    lines.append(
        f'<text x="{left + width / 2:.1f}" y="{top + height + 34:.1f}" '
        f'font-size="12" font-family="sans-serif" text-anchor="middle">'
        f"{x_label}</text>"
    )
    for name, pts in series.items():
        color = _COLORS.get(name, "#333")
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        if len(pts) > 1:
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for x, y in pts:
            lines.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                f'fill="{color}"/>'
            )


def _write_svg(path, rows, axis_field, args):
    retention = args.axis_convention == "retention"
    x_label = f"1 - {axis_field} (retention)" if retention else axis_field
    series_inf, series_suc = {}, {}
    for row in rows:
        x = 1.0 - row[axis_field] if retention else row[axis_field]
        series_inf.setdefault(row["protocol"], []).append((x, row["infidelity"]))
        series_suc.setdefault(row["protocol"], []).append((x, row["success_probability"]))
    for pts in (*series_inf.values(), *series_suc.values()):
        pts.sort(key=lambda p: p[0])
    inf_max = max((y for pts in series_inf.values() for _, y in pts), default=1.0)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="680" height="620" '
        'viewBox="0 0 680 620">',
        '<rect width="680" height="620" fill="white"/>',
    ]
    legend_x = 70.0
    for proto in series_inf:
        lines.append(
            f'<text x="{legend_x:.1f}" y="14" font-size="12" '
            f'font-family="sans-serif" fill="{_COLORS.get(proto, "#333")}">'
            f"{proto}</text>"
        )
        legend_x += 10 + 8 * len(proto)
    _svg_panel(
        lines, "infidelity", series_inf, x_label,
        (0.0, max(inf_max * 1.05, 1e-6)), 20,
    )
    _svg_panel(
        lines, "success probability", series_suc, x_label, (0.0, 1.0), 320,
    )
    lines.append("</svg>")
    with _open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _open(path: str, *args, **kwargs):
    """``open(path, ...)``, with an OSError raised as a UsageError naming the path."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror}") from exc


def _output(path: str):
    """Context of the text stream ``--out`` names: stdout for -, else the file."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return _open(path, "w", encoding="utf-8", newline="")


def _cmd_sweep(args) -> int:
    protocols = _parse_protocols(args.protocols)
    if args.axis is None or args.range is None:
        raise UsageError("sweep requires --axis and --range")
    axis_field = AXIS_CHOICES[args.axis]
    values = _parse_range(args.range)
    rows = _sweep_rows(protocols, values, axis_field, args)
    with _output(args.out) as stream:
        _write_csv(stream, rows, args.axis, args)
    if args.svg:
        _write_svg(args.svg, rows, axis_field, args)
    return 0


def _cmd_compile(args) -> int:
    params = _noise_params(args)
    rho = prepare_state(params)
    context = {
        "protocol": args.protocol,
        "a": params.a,
        "p_d": params.p_d,
        "g": args.g,
    }
    if args.protocol == "nec":
        schedule = compile_schedule(*nec_planning_states(rho, rho), args.g)
    else:
        catalyst = find_catalyst(*nec_planning_states(rho, rho))
        schedule = compile_schedule(*cec_planning_states(rho, rho, catalyst.state), args.g)
        context["catalyst_c1"] = float(catalyst.schmidt[0])
        context["catalyst_probability"] = catalyst.achieved_probability
    doc = {"context": context, "schedule": schedule_to_document(schedule)}
    with _output(args.out) as stream:
        stream.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _read_csv(path: str) -> list:
    if not os.path.exists(path):
        raise UsageError(f"missing file: {path}")
    with _open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"malformed CSV (not UTF-8): {path}") from exc
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        raise UsageError(f"malformed CSV (no header): {path}")
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != COLUMNS:
        raise UsageError(f"malformed CSV (unexpected columns): {path}")
    rows = []
    for parts in reader:
        if len(parts) != len(COLUMNS):
            raise UsageError(f"malformed CSV (bad row): {path}")
        row = dict(zip(COLUMNS, parts))
        try:
            for key in ("a", "p_d", "p_g", "success_probability",
                        "output_fidelity", "infidelity"):
                row[key] = float(row[key])
        except ValueError as exc:
            raise UsageError(f"malformed CSV (bad number): {path}") from exc
        rows.append(row)
    if not rows:
        raise UsageError(f"malformed CSV (no rows): {path}")
    return rows


def _detect_axis(rows) -> str:
    for field in ("a", "p_d", "p_g"):
        if len({row[field] for row in rows}) > 1:
            return field
    return "a"


def _cmd_report(args) -> int:
    for path in args.files:
        rows = _read_csv(path)
        print(f"== {path}: {len(rows)} rows ==")
        if len(rows) == 1:
            print(",".join(COLUMNS))
            print(",".join(str(rows[0][c]) for c in COLUMNS))
            continue
        axis = _detect_axis(rows)
        protocols = []
        for row in rows:
            if row["protocol"] not in protocols:
                protocols.append(row["protocol"])
        print(f"axis: {axis}, protocols: {', '.join(protocols)}")
        for proto in protocols:
            sub = sorted(
                (r for r in rows if r["protocol"] == proto),
                key=lambda r: r[axis],
            )
            inf = [r["infidelity"] for r in sub]
            suc = [r["success_probability"] for r in sub]
            print(
                f"  {proto}: {axis} in [{sub[0][axis]:g}, {sub[-1][axis]:g}], "
                f"infidelity [{min(inf):.6g}, {max(inf):.6g}], "
                f"success [{min(suc):.6g}, {max(suc):.6g}]"
            )
        if len(protocols) > 1:
            values = sorted({r[axis] for r in rows})
            leader_prev = None
            for value in values:
                at_value = [r for r in rows if abs(r[axis] - value) < UNIT_TOL]
                if len(at_value) < len(protocols):
                    continue
                leader = min(at_value, key=lambda r: r["infidelity"])["protocol"]
                if leader != leader_prev:
                    print(
                        f"  lowest infidelity from {axis}={value:g}: {leader}"
                    )
                    leader_prev = leader
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="entconc",
        description="Entanglement concentration benchmarks on noisy pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--a", type=float, default=0.0,
                       help="coherent error probability (default 0)")
        p.add_argument("--pd", type=float, default=0.0,
                       help="incoherent error probability (default 0)")
        p.add_argument("--pg", type=float, default=0.0,
                       help="per-MCX gate error probability (default 0)")
        p.add_argument("--g", type=_parse_group_size, default=1,
                       help="transforms grouped per round (default 1)")
        p.add_argument("--weights", type=_parse_weights,
                       default=NoiseParams.coh_weights, metavar="ex,ez,ey",
                       help="coherent error amplitudes (normalized)")

    p_sweep = sub.add_parser("sweep", help="run protocols over a noise axis")
    p_sweep.add_argument("--protocols", default="nec",
                         help="comma-separated subset of "
                              + ",".join(PROTOCOL_CHOICES))
    p_sweep.add_argument("--axis", choices=sorted(AXIS_CHOICES),
                         help="parameter to sweep")
    p_sweep.add_argument("--range", help="lo:hi:step for the swept axis")
    add_common(p_sweep)
    p_sweep.add_argument("--out", default="-",
                         help="CSV output path, or - for stdout")
    p_sweep.add_argument("--svg", default=None, help="optional SVG plot path")
    p_sweep.add_argument("--axis-convention", choices=("error", "retention"),
                         default="error", dest="axis_convention",
                         help="label axis as error probability or retention")
    p_sweep.add_argument("--recompile-on-reuse", action="store_true",
                         dest="recompile_on_reuse",
                         help="replan catalyst reuse from the degraded state")

    p_compile = sub.add_parser("compile",
                               help="dump a compiled schedule as JSON")
    p_compile.add_argument("--protocol", choices=("nec", "cec"), default="nec")
    add_common(p_compile)
    p_compile.add_argument("--out", default="-",
                           help="JSON output path, or - for stdout")

    p_report = sub.add_parser("report", help="summarize sweep CSV files")
    p_report.add_argument("files", nargs="+", help="CSV files from sweep")
    return parser


def main(argv=None) -> int:
    try:
        # type= parsers raise UsageError, which argparse passes on to here
        args = build_parser().parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compile":
            return _cmd_compile(args)
        return _cmd_report(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
