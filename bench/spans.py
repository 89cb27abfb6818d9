"""In-memory span tracing of entconc's public functions.

``Tracer.install`` replaces every public entconc function at every name
that refers to it: the defining module, the package namespace, and each
module that imported it by name (``locc.birkhoff_decompose`` is its own
binding of ``majorize.birkhoff_decompose``). Callers look functions up by
those names at call time, so every call between layers opens a span named
after the defining module, whichever binding it went through.

A span is (name, start, end, parent, op). The benchmark opens one root
span per op, so a function's self time is its span minus the time its
child spans cover, and time in an op outside every entconc span is the
benchmark's own. Spans stay in memory and are written out by ``dump``;
calls and self time are computed from them (``Spans.totals``). Those and
the hook counters cover only spans inside timed ops.
"""

from __future__ import annotations

import functools
import hashlib
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

import numpy as np

OP_SPAN = "bench.op"


def entconc_modules(sys_modules) -> list:
    return [
        mod
        for name, mod in sorted(sys_modules.items())
        if mod is not None and (name == "entconc" or name.startswith("entconc."))
    ]


def rebind(modules, target, replacement) -> None:
    """Point every module attribute that is ``target`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


class Tracer:
    """Collects spans and per-function aggregates for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.inputs = defaultdict(set)
        self.op_inputs: list[set] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        if op >= 0:
            self.op_inputs.append(set())
        return self.enter(self.name_id(OP_SPAN))

    def end_op(self, idx: int) -> None:
        self.leave(idx)
        self.op = -1

    def note_input(self, name: str, key: bytes) -> None:
        if self.op >= 0:
            self.inputs[name].add(key)
            self.op_inputs[-1].add((name, key))

    def count(self, key: str, value: float) -> None:
        if self.op >= 0:
            self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        if self.op >= 0:
            self.maxima[key] = max(self.maxima[key], value)

    def install(self, modules) -> None:
        """Wrap every public entconc function at each of its bindings."""
        originals = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if (
                    callable(value)
                    and getattr(value, "__module__", "").startswith("entconc")
                    and type(value).__name__ == "function"
                    and not attr.startswith("_")
                    and value.__name__ == attr
                ):
                    originals[id(value)] = value
        for fn in originals.values():
            short = fn.__module__.rsplit(".", 1)[-1]
            name = f"{short}.{fn.__name__}"
            rebind(modules, fn, self._wrap(fn, name, _HOOKS.get(name)))

    def _wrap(self, fn, name, hook):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if hook is not None and self.op >= 0:
                hook(self, args, kwargs, result)
            return result

        return traced

    def spans(self) -> Spans:
        return Spans(
            list(self.names),
            np.frombuffer(self.span_name, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.span_op, dtype=np.int64),
        )

    def dump(self, path) -> None:
        sp = self.spans()
        np.savez_compressed(
            path, names=np.array(sp.names), name=sp.name, start=sp.start,
            end=sp.end, parent=sp.parent, op=sp.op,
        )


class Spans(NamedTuple):
    """Every span of a run as arrays; ``op`` is -1 outside timed ops."""

    names: list
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray

    @classmethod
    def load(cls, path) -> "Spans":
        data = np.load(path)
        return cls(
            [str(n) for n in data["names"]], data["name"], data["start"],
            data["end"], data["parent"], data["op"],
        )

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - child

    def totals(self) -> tuple:
        """(calls, self seconds) per span name, over spans inside timed ops."""
        timed = self.op >= 0
        n = len(self.names)
        calls = np.bincount(self.name[timed], minlength=n)
        self_s = np.bincount(self.name[timed], weights=self.self_time()[timed], minlength=n)
        return (
            defaultdict(int, {nm: int(c) for nm, c in zip(self.names, calls)}),
            defaultdict(float, {nm: float(t) for nm, t in zip(self.names, self_s)}),
        )

    def op_seconds(self) -> float:
        """Summed duration of the timed op spans."""
        roots = (self.op >= 0) & (self.name == self.names.index(OP_SPAN))
        return float((self.end - self.start)[roots].sum())


def _depolarize(tr, args, kwargs, result):
    rho = np.asarray(args[0])
    tr.count("noise.depolarize.state_bytes", rho.nbytes)


def _execute_round(tr, args, kwargs, result):
    tr.peak("locc.execute_round.max_dim", np.asarray(args[0]).shape[0])


def _note_planning_input(tr, name, args, kwargs):
    """Record a (surrogate, target, options) planning input by digest."""
    surrogate, target = (np.asarray(x) for x in args[:2])
    rest = args[2:] + tuple(sorted(kwargs.items()))
    tr.note_input(name, _digest(surrogate, target, rest))


def _compile_schedule(tr, args, kwargs, result):
    _note_planning_input(tr, "locc.compile_schedule", args, kwargs)
    tr.count("locc.compile_schedule.rounds", len(result.rounds))
    tr.count("locc.compile_schedule.mcx", result.mcx_total)


def _find_catalyst(tr, args, kwargs, result):
    _note_planning_input(tr, "protocols.find_catalyst", args, kwargs)


def _birkhoff(tr, args, kwargs, result):
    tr.count("majorize.birkhoff_decompose.terms", len(result))


_HOOKS = {
    "noise.depolarize": _depolarize,
    "locc.execute_round": _execute_round,
    "locc.compile_schedule": _compile_schedule,
    "protocols.find_catalyst": _find_catalyst,
    "majorize.birkhoff_decompose": _birkhoff,
}

# Functions whose per-op call count and self time the traced run reports.
SELF_MS = [
    "noise.depolarize", "qmath.apply_channel", "locc.execute_round",
    "locc.run_schedule", "locc.apply_correction", "locc.execute_filter",
    "protocols.optimize_distillation", "protocols.run_distillation",
    "protocols.find_catalyst", "protocols.run_nec", "protocols.run_cec",
    "locc.compile_schedule", "locc.js_povm", "locc.embed_povm",
    "locc.synthesize", "majorize.t_transform_decompose",
    "majorize.birkhoff_decompose", "qmath.schmidt_decompose",
    "qmath.partial_trace", "noise.prepare_state", "noise.surrogate",
    "majorize.vidal_probability", "qmath.permute_subsystems",
]
CALLS = [
    "noise.depolarize", "qmath.apply_channel", "locc.execute_round",
    "protocols.optimize_distillation", "protocols.run_distillation",
    "protocols.find_catalyst", "locc.compile_schedule",
    "qmath.schmidt_decompose", "majorize.vidal_probability",
]
LAYERS = ["protocols", "locc", "majorize", "noise", "qmath", "bench"]


def per_layer_spec() -> list:
    """Every per-layer metric the traced run reports, as BENCHMARK.json lists it."""
    spec = [(f"{n}.calls", "count/op", "lower") for n in CALLS]
    spec += [(f"{n}.self_ms", "ms/op", "lower") for n in SELF_MS]
    spec += [
        ("cli.sweep.self_ms", "ms/op", "lower"),
        ("noise.depolarize.state_mb", "MB/op", "lower"),
        ("locc.execute_round.max_dim", "count", "lower"),
        ("protocols.find_catalyst.distinct_ratio", "ratio", "higher"),
        ("locc.compile_schedule.distinct_ratio", "ratio", "higher"),
        ("locc.compile_schedule.rounds", "count/call", "lower"),
        ("locc.compile_schedule.mcx", "count/call", "lower"),
        ("majorize.birkhoff_decompose.terms", "count/call", "lower"),
        ("op.repeat_share", "ratio", "lower"),
        ("op.traced_ms", "ms/op", "lower"),
    ]
    spec += [(f"layer.{m}.self_ms", "ms/op", "lower") for m in LAYERS]
    return spec


def per_layer_values(tr: Tracer, n_ops: int) -> dict:
    """Per-layer metric values of a traced run with ``n_ops`` timed ops."""
    ops = max(n_ops, 1)
    sp = tr.spans()
    calls, self_s = sp.totals()

    def per_call(total, name):
        return total / calls[name] if calls[name] else 0.0

    values = {}
    for n in CALLS:
        values[f"{n}.calls"] = calls[n] / ops
    for n in SELF_MS:
        values[f"{n}.self_ms"] = self_s[n] * 1e3 / ops
    values["noise.depolarize.state_mb"] = (
        tr.counters["noise.depolarize.state_bytes"] / 1e6 / ops
    )
    values["locc.execute_round.max_dim"] = tr.maxima["locc.execute_round.max_dim"]
    for n in ("protocols.find_catalyst", "locc.compile_schedule"):
        # 1 when there are no calls: nothing was computed twice.
        values[f"{n}.distinct_ratio"] = per_call(len(tr.inputs[n]), n) or 1.0
    for key in ("locc.compile_schedule.rounds", "locc.compile_schedule.mcx",
                "majorize.birkhoff_decompose.terms"):
        values[key] = per_call(tr.counters[key], key.rsplit(".", 1)[0])
    seen: set = set()
    repeats = 0
    for keys in tr.op_inputs:
        repeats += bool(keys & seen)
        seen |= keys
    values["op.repeat_share"] = repeats / ops
    values["op.traced_ms"] = sp.op_seconds() * 1e3 / ops
    layer = defaultdict(float)
    for name, seconds in self_s.items():
        layer[name.split(".", 1)[0]] += seconds
    values["cli.sweep.self_ms"] = layer["cli"] * 1e3 / ops
    for m in LAYERS:
        values[f"layer.{m}.self_ms"] = layer[m] * 1e3 / ops
    return values
