"""Summarize the spans a traced benchmark run wrote.

    python3 bench/layers.py bench/out/spans-gate-noise.npz

Prints, per timed op, the self time of each module (layer) and of its
twelve busiest functions as a share of op time, and the inclusive time of each
function named with ``--inclusive`` and of all of them together (time in
their spans, children included, counting nested spans once).
"""

from __future__ import annotations

import argparse
from collections import defaultdict

import numpy as np

from spans import OP_SPAN, Spans

TOP = 12  # functions listed by self time


def _inclusive(sp: Spans, group) -> float:
    """Time in timed spans of ``group`` that have no ancestor in ``group``."""
    wanted = {sp.names.index(n) for n in group if n in sp.names}
    total = 0.0
    for i in np.nonzero((sp.op >= 0) & np.isin(sp.name, list(wanted)))[0]:
        p = sp.parent[i]
        while p >= 0 and sp.name[p] not in wanted:
            p = sp.parent[p]
        if p < 0:
            total += sp.end[i] - sp.start[i]
    return total


def summarize(path, inclusive: list) -> str:
    sp = Spans.load(path)
    calls, by_name = sp.totals()
    n_ops = calls[OP_SPAN]
    op_total = sp.op_seconds()
    by_layer = defaultdict(float)
    for n, t in by_name.items():
        by_layer[n.split(".", 1)[0]] += t

    lines = [f"{path}: {n_ops} ops, {1e3 * op_total / n_ops:.1f} ms per op (traced)", ""]
    lines.append("| layer | self ms/op | share of op time |")
    lines.append("|---|---:|---:|")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {1e3 * t / n_ops:.1f} | {100 * t / op_total:.1f} % |")
    lines += ["", "| function | calls/op | self ms/op | share of op time |", "|---|---:|---:|---:|"]
    for n, t in sorted(by_name.items(), key=lambda kv: -kv[1])[:TOP]:
        lines.append(
            f"| {n} | {calls[n] / n_ops:.1f} | {1e3 * t / n_ops:.1f} | {100 * t / op_total:.1f} % |"
        )
    lines.append("")
    for group in [[n] for n in inclusive] + ([inclusive] if len(inclusive) > 1 else []):
        t = _inclusive(sp, group)
        lines.append(
            f"inclusive {' + '.join(group)}: {1e3 * t / n_ops:.1f} ms/op,"
            f" {100 * t / op_total:.1f} % of op time"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", help="spans-<workload>.npz from a --trace 1 run")
    parser.add_argument("--inclusive", default="", help="comma-separated span names")
    args = parser.parse_args(argv)
    inclusive = [n for n in args.inclusive.split(",") if n]
    print(summarize(args.spans, inclusive))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
