"""Span tracer that wraps evtensor's public functions from outside the package.

A span is one call of a wrapped function: its name, start and end on the
perf_counter clock, the index of the span that was open when it began (its
parent, -1 at the top), the largest ndarray among its arguments and result
(`cells`), and a few extra numbers a hook may add. Spans are kept in memory
and written out by the caller when the run ends.

Functions are wrapped by attribute name in every evtensor module namespace
that holds the same function object, because the package calls them through
its own module globals (the solver reaches `update_factor` and `unfold` that
way). A name that no module holds any more is skipped, so a later refactor
that removes a function makes its metrics read 0 instead of failing.

The layer metrics are pure functions of the span list, so the self tests can
check them on hand-built spans.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

# attribute name -> span name. The span name is "<layer>.<function>".
TARGETS = {
    "generate": "synth.generate",
    "parse_events": "events.parse_events",
    "bin_to_tensor": "events.bin_to_tensor",
    "write_events_csv": "events.write_events_csv",
    "write_tensor_dump": "events.write_tensor_dump",
    "solve": "solver.solve",
    "update_factor": "solver.update_factor",
    "update_x": "solver.update_x",
    "objective": "solver.objective",
    "grow_rank": "solver.grow_rank",
    "cho_factor": "solver.cho_factor",
    "cho_solve": "solver.cho_solve",
    "save_checkpoint": "solver.save_checkpoint",
    "load_checkpoint": "solver.load_checkpoint",
    "write_trace_csv": "solver.write_trace_csv",
    "pair_contraction": "tensor_ops.pair_contraction",
    "unfold": "tensor_ops.unfold",
    "f3tn_contract": "tensor_ops.f3tn_contract",
    "frob_norm": "tensor_ops.frob_norm",
    "frob_dist": "tensor_ops.frob_dist",
    "extract_features": "evaluation.extract_features",
    "train_svm": "evaluation.train_svm",
    "auc": "evaluation.auc",
    "score_events": "denoise.score_events",
    "filter_events": "denoise.filter_events",
    "write_report_csv": "denoise.write_report_csv",
    "cmd_gen": "cli.gen",
    "cmd_bin": "cli.bin",
    "cmd_decompose": "cli.decompose",
    "cmd_classify": "cli.classify",
    "cmd_denoise": "cli.denoise",
}

CLI_COMMANDS = ("gen", "bin", "decompose", "classify", "denoise")
FROB = ("tensor_ops.frob_norm", "tensor_ops.frob_dist")
MODES = ("i", "j", "n")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    cells: int = 0
    extra: dict = field(default_factory=dict)


def _cells(value) -> int:
    size = getattr(value, "size", None)
    return size if isinstance(size, int) and hasattr(value, "ndim") else 0


def _span_name(base: str, args, kwargs) -> str:
    if base == "solver.update_factor":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "?")
        return f"{base}.{mode}"
    return base


def _extra(name: str, args, result) -> dict:
    """Work counts recorded at the boundary where the work happens."""
    if name == "events.parse_events":
        return {"events": len(result)}
    if name == "tensor_ops.unfold":
        return {"bytes": result.nbytes}
    if name == "events.write_tensor_dump" and len(args) > 1 \
            and isinstance(args[1], (str, os.PathLike)):
        return {"bytes": os.path.getsize(args[1])}
    if name == "solver.solve":
        state = result[1]
        return {"sweeps": state.s, "rank": state.f, "converged": int(state.converged)}
    return {}


class Tracer:
    """Wraps the TARGETS functions of the given modules; `uninstall` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        wrappers = {}
        for module in modules:
            for attr, base in TARGETS.items():
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, base)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, base):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            name = _span_name(base, args, kwargs)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            span.cells = max([_cells(a) for a in args] + [_cells(result)])
            span.extra = _extra(base, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# layer metrics from a span list


def _ancestors(spans, k):
    p = spans[k].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def outermost(spans, names) -> list[int]:
    """Indices of spans named in `names` with no ancestor named in `names`, so
    a function that recurses through its own wrapped global counts once."""
    names = set(names)
    return [k for k, s in enumerate(spans)
            if s.name in names and not any(spans[a].name in names for a in _ancestors(spans, k))]


def total_s(spans, names) -> float:
    return sum(spans[k].end - spans[k].start for k in outermost(spans, names))


def children(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for k, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(k)
    return kids


def self_time(spans, k, kids) -> float:
    """Span k's duration minus the part of it that its child spans cover."""
    start, end = spans[k].start, spans[k].end
    covered, reach = 0.0, start
    for c_start, c_end in sorted((spans[c].start, spans[c].end) for c in kids.get(k, ())):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def self_s(spans, names, kids) -> float:
    return sum(self_time(spans, k, kids) for k in outermost(spans, names))


def _child_time(spans, parents, names) -> float:
    parents = set(parents)
    return sum(s.end - s.start for s in spans if s.name in names and s.parent in parents)


def dense_passes(spans, dense_cells: int) -> int:
    """Calls under solver.solve whose operand or result has `dense_cells` cells,
    not counting those nested inside another such call."""
    solves = set(outermost(spans, ["solver.solve"]))
    count = 0
    for k, s in enumerate(spans):
        if s.cells != dense_cells:
            continue
        ups = list(_ancestors(spans, k))
        if solves.intersection(ups) and not any(
                spans[a].cells == dense_cells and a not in solves for a in ups):
            count += 1
    return count


def layer_metrics(spans, dense_cells: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the spans give, as name -> (value, unit).
    A function that was never called reads 0."""
    m: dict[str, tuple[float, str]] = {}
    kids = children(spans)

    def secs(metric, *names):
        m[metric] = (total_s(spans, names), "s")

    def count(metric, names):
        m[metric] = (float(len(outermost(spans, names))), "count")

    def extra_sum(metric, name, key, unit):
        m[metric] = (float(sum(spans[k].extra.get(key, 0) for k in outermost(spans, [name]))), unit)

    secs("synth.generate.s", "synth.generate")
    secs("events.parse_events.s", "events.parse_events")
    count("events.parse_events.calls", ["events.parse_events"])
    extra_sum("events.parse_events.events", "events.parse_events", "events", "count")
    for name in ("bin_to_tensor", "write_events_csv", "write_tensor_dump"):
        secs(f"events.{name}.s", f"events.{name}")
    extra_sum("events.write_tensor_dump.bytes", "events.write_tensor_dump", "bytes", "bytes")

    solves = outermost(spans, ["solver.solve"])
    secs("solver.solve.s", "solver.solve")
    sweeps = sum(spans[k].extra.get("sweeps", 0) for k in solves)
    m["solver.sweeps"] = (float(sweeps), "count")
    m["solver.rank_final"] = (float(spans[solves[-1]].extra["rank"]) if solves else 0.0, "count")
    m["solver.converged"] = (float(spans[solves[-1]].extra["converged"]) if solves else 0.0, "0/1")
    m["solver.sweep_ms"] = (1000.0 * m["solver.solve.s"][0] / sweeps if sweeps else 0.0, "ms")
    updates = []
    for mode in MODES:
        name = f"solver.update_factor.{mode}"
        secs(f"{name}.s", name)
        m[f"{name}.self_s"] = (self_s(spans, [name], kids), "s")
        updates += outermost(spans, [name])
    secs("solver.cholesky.s", "solver.cho_factor", "solver.cho_solve")
    m["solver.residual.s"] = (_child_time(spans, updates, {"tensor_ops.frob_norm"}), "s")
    for name in ("update_x", "objective", "grow_rank"):
        secs(f"solver.{name}.s", f"solver.{name}")
    m["solver.stop_check.s"] = (_child_time(spans, solves, set(FROB)), "s")
    m["solver.dense_passes_per_sweep"] = (
        dense_passes(spans, dense_cells) / sweeps if sweeps else 0.0, "count")

    secs("tensor_ops.pair_contraction.s", "tensor_ops.pair_contraction")
    secs("tensor_ops.unfold.s", "tensor_ops.unfold")
    extra_sum("tensor_ops.unfold.bytes", "tensor_ops.unfold", "bytes", "bytes")
    secs("tensor_ops.f3tn_contract.s", "tensor_ops.f3tn_contract")
    count("tensor_ops.f3tn_contract.calls", ["tensor_ops.f3tn_contract"])
    secs("tensor_ops.frob.s", *FROB)

    for name in ("save_checkpoint", "load_checkpoint", "write_trace_csv"):
        secs(f"solver.{name}.s", f"solver.{name}")
    for name in ("extract_features", "train_svm", "auc"):
        secs(f"evaluation.{name}.s", f"evaluation.{name}")
    for name in ("score_events", "filter_events", "write_report_csv"):
        secs(f"denoise.{name}.s", f"denoise.{name}")
    for cmd in CLI_COMMANDS:
        secs(f"cli.{cmd}.s", f"cli.{cmd}")
        m[f"cli.{cmd}.self_s"] = (self_s(spans, [f"cli.{cmd}"], kids), "s")
    return {name: (float(value), unit) for name, (value, unit) in m.items()}
