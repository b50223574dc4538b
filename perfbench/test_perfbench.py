"""Self tests of the benchmark's own arithmetic, on hand-built inputs.

    python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from baselines import neighbour_counts, neighbour_filter, signal_f1  # noqa: E402
from tracer import Span, Tracer, children, dense_passes, layer_metrics, self_time, total_s  # noqa: E402

D = 24  # cells of the dense tensor in the hand-built spans


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("p", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),    # overlaps a: [1, 5] is covered once
        Span("c", 8.0, 12.0, 0),   # clipped to the parent's end: [8, 10]
        Span("g", 3.5, 4.0, 2),    # a grandchild does not count twice
    ]
    assert self_time(spans, 0, children(spans)) == 4.0
    assert self_time(spans, 2, children(spans)) == 2.5


def test_recursive_span_counts_once():
    spans = [Span("x", 0.0, 10.0, -1), Span("x", 1.0, 9.0, 0), Span("x", 11.0, 12.0, -1)]
    assert total_s(spans, ["x"]) == 11.0


def test_dense_pass_counter():
    spans = [
        Span("tensor_ops.unfold", 0.0, 1.0, -1, cells=D),        # outside solve
        Span("solver.solve", 1.0, 20.0, -1, cells=D),            # its operand is dense
        Span("solver.update_factor.i", 2.0, 4.0, 1),
        Span("tensor_ops.unfold", 2.5, 3.0, 2, cells=D),         # 1
        Span("solver.update_x", 5.0, 8.0, 1, cells=D),           # 2
        Span("tensor_ops.f3tn_contract", 5.5, 7.0, 4, cells=D),  # nested in a dense call
        Span("tensor_ops.frob_norm", 9.0, 9.5, 1, cells=D),      # 3
        Span("tensor_ops.frob_norm", 9.6, 9.7, 1, cells=D - 1),  # another size
    ]
    spans[1].extra = {"sweeps": 2, "rank": 3, "converged": 0}
    assert dense_passes(spans, D) == 3
    m = layer_metrics(spans, D)
    assert m["solver.dense_passes_per_sweep"] == (1.5, "count")
    assert m["solver.stop_check.s"][0] == pytest.approx(0.6)
    assert m["solver.sweep_ms"][0] == 1000.0 * 19.0 / 2


def test_unreached_functions_read_zero():
    m = layer_metrics([], D)
    assert m["tensor_ops.unfold.s"] == (0.0, "s")
    assert m["cli.gen.self_s"] == (0.0, "s")
    assert m["solver.sweeps"] == (0.0, "count")


def test_tracer_wraps_every_namespace_and_skips_missing_names():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")
    lib.frob_norm = lambda a: float(np.sqrt((a * a).sum()))
    lib.frob_dist = lambda a, b: lib.frob_norm(a - b)   # reaches frob_norm via lib's global
    user.frob_dist = lib.frob_dist                       # same function, another namespace
    original = lib.frob_norm
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))
    tracer.install([lib, user])                          # neither module has `unfold`
    user.frob_dist(np.ones(D), np.zeros(D))
    tracer.uninstall()
    assert lib.frob_norm is original
    names = [(s.name, s.parent, s.cells) for s in tracer.spans]
    assert names == [("tensor_ops.frob_dist", -1, D), ("tensor_ops.frob_norm", 0, D)]
    m = layer_metrics(tracer.spans, D)
    assert m["tensor_ops.frob.s"] == (3.0, "s")
    assert m["tensor_ops.unfold.s"] == (0.0, "s")


def test_neighbour_counts_match_brute_force():
    rng = np.random.default_rng(3)
    data = (rng.random((5, 6, 4)) < 0.2).astype(np.uint8)
    counts = neighbour_counts(data)
    for idx in np.ndindex(data.shape):
        lo = [max(k - 1, 0) for k in idx]
        box = data[lo[0]:idx[0] + 2, lo[1]:idx[1] + 2, lo[2]:idx[2] + 2]
        assert counts[idx] == box.sum() - data[idx]


def test_neighbour_filter_drops_isolated_events():
    data = np.zeros((4, 4, 4), dtype=np.uint8)
    i, j, n = np.array([0, 1, 3]), np.array([0, 1, 3]), np.array([0, 1, 3])
    data[i, j, n] = 1                                    # (0,0,0) and (1,1,1) touch
    signal = np.array([True, True, False])
    out = neighbour_filter(data, i, j, n, signal)
    assert out["baseline.neighbour.denoise_f1"] == 1.0
    assert out["baseline.keep_all.precision"] == 2 / 3
    assert signal_f1(np.array([True, False, True]), signal) == 0.5


def test_declared_per_layer_metrics_are_all_produced():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    produced = {name: unit for name, (_, unit) in layer_metrics([], D).items()}
    assert all(units[name] == unit for name, unit in produced.items())
    added = set(units) - set(produced)
    assert added == {"trace.overhead_s", "solver.solve_1t_s", "baseline.random.objects_auc",
                     "baseline.random.noise_auc", "baseline.random.denoise_f1",
                     "baseline.neighbour.denoise_f1", "baseline.keep_all.precision"}
