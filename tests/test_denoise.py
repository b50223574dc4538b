import io
import tracemalloc

import numpy as np
import pytest

from evtensor.denoise import (
    filter_events,
    quantile_threshold,
    score_events,
    write_report_csv,
)
from evtensor.errors import ConsistencyError
from evtensor import tensor_ops
from evtensor.events import NOISE_LABEL, EventStream, bin_indices, bin_to_tensor
from evtensor.solver import SolverConfig, solve
from evtensor.synth import ObjectSpec, SceneSpec, generate
from evtensor.tensor_ops import f3tn_contract

import oracles
from oracles import random_factors


def small_setup(f=1, geometry=(4, 4), frames=4, seed=0):
    rng = np.random.default_rng(seed)
    m = 12
    stream = EventStream(
        i=rng.integers(0, geometry[0], size=m),
        j=rng.integers(0, geometry[1], size=m),
        t=rng.integers(0, 400, size=m),
        geometry=geometry, t_min=0, t_max=400,
    )
    tensor = bin_to_tensor(stream, frames)
    factors = random_factors(rng, tensor.dims, f, lo=0.0, hi=1.0)
    return stream, tensor, factors


def test_score_rank1_is_product_of_scalars():
    stream, tensor, factors = small_setup(f=1)
    scores = score_events(stream, tensor, factors)
    from evtensor.events import bin_indices

    frames = bin_indices(stream.t, tensor.bin_edges)
    for k in range(len(stream)):
        expected = (factors.g_i[stream.i[k], 0, 0]
                    * factors.g_j[0, stream.j[k], 0]
                    * factors.g_n[0, 0, frames[k]])
        assert scores[k] == pytest.approx(expected, rel=1e-12)


def test_identical_coordinates_identical_scores():
    stream = EventStream(i=[1, 1], j=[2, 2], t=[5, 9], geometry=(4, 4),
                         t_min=0, t_max=40)
    tensor = bin_to_tensor(stream, 4)
    factors = random_factors(np.random.default_rng(3), tensor.dims, 2)
    scores = score_events(stream, tensor, factors)
    assert scores[0] == scores[1]


@pytest.mark.parametrize("seed", range(5))
def test_scores_equal_full_contraction_entries(seed):
    stream, tensor, factors = small_setup(f=2, seed=seed)
    scores = score_events(stream, tensor, factors)
    recon = f3tn_contract(factors)
    from evtensor.events import bin_indices

    frames = bin_indices(stream.t, tensor.bin_edges)
    expected = recon[stream.i, stream.j, frames]
    np.testing.assert_allclose(scores, expected, rtol=1e-10)


def test_score_dim_mismatch():
    stream, tensor, _ = small_setup()
    wrong = random_factors(np.random.default_rng(0), (4, 4, 3), 1)
    with pytest.raises(ConsistencyError):
        score_events(stream, tensor, wrong)


def test_filter_minus_infinity_keeps_everything():
    stream, tensor, factors = small_setup()
    labeled = EventStream(i=stream.i, j=stream.j, t=stream.t,
                          geometry=stream.geometry,
                          labels=np.zeros(len(stream), dtype=np.int64),
                          t_min=stream.t_min, t_max=stream.t_max)
    scores = score_events(labeled, tensor, factors)
    kept, report = filter_events(labeled, scores, -np.inf)
    assert len(kept) == len(labeled)
    assert report.recall == 1.0
    assert report.n_kept == len(labeled)


def test_filter_plus_infinity_keeps_nothing():
    stream, tensor, factors = small_setup()
    labeled = EventStream(i=stream.i, j=stream.j, t=stream.t,
                          geometry=stream.geometry,
                          labels=np.zeros(len(stream), dtype=np.int64),
                          t_min=stream.t_min, t_max=stream.t_max)
    scores = score_events(labeled, tensor, factors)
    kept, report = filter_events(labeled, scores, np.inf)
    assert kept is None
    assert report.precision == 0.0
    assert report.n_kept == 0


def test_filter_monotone_in_threshold():
    stream, tensor, factors = small_setup(f=2)
    scores = score_events(stream, tensor, factors)
    taus = np.quantile(scores, [0.1, 0.4, 0.7])
    masks = []
    for tau in taus:
        _, report = filter_events(stream, scores, tau)
        masks.append(report.kept)
    for lo, hi in zip(masks, masks[1:]):
        assert (hi <= lo).all()  # raising tau never adds events
    for tau, mask in zip(taus, masks):
        assert mask.sum() + (~mask).sum() == len(stream)


def test_filter_misaligned_scores():
    stream, tensor, factors = small_setup()
    with pytest.raises(ConsistencyError):
        filter_events(stream, np.zeros(3), 0.0)


def test_quantile_threshold():
    scores = np.arange(10, dtype=float)
    assert quantile_threshold(scores, 0.0) == 0.0
    assert quantile_threshold(scores, 1.0) == 9.0
    with pytest.raises(ValueError):
        quantile_threshold(scores, 1.5)


def test_quantile_threshold_is_np_quantile_bit_for_bit():
    # np.quantile's linear rule without the numpy.ma import np.quantile makes;
    # a third of the cases are rounded into long tie runs
    rng = np.random.default_rng(32)
    for case in range(3000):
        scores = rng.normal(size=int(rng.integers(1, 501))) * 10.0 ** rng.integers(-3, 4)
        if case % 3 == 0:
            scores = np.round(scores, 0)
        for q in (rng.random(), 0.0, 0.2, 0.5, 1.0):
            expected = np.quantile(scores, q)
            assert np.float64(quantile_threshold(scores, q)).tobytes() == expected.tobytes(), (
                case, q)
    # any NaN gives NaN; an infinite end reads as numpy reads it
    with np.errstate(invalid="ignore"):
        for scores in ([np.nan, 1.0], [1.0, 2.0, np.nan], [1.0, np.inf], [-np.inf, 1.0, 2.0]):
            for q in (0.0, 0.3, 0.5, 1.0):
                np.testing.assert_equal(quantile_threshold(scores, q), np.quantile(scores, q))


def test_denoise_beats_baseline_on_structured_scene():
    # one coherent object + uniform noise at low density; reconstruction
    # scores must rank object events above noise (frozen seed, values
    # measured before freezing: precision 0.81 vs base 0.74, recall 0.87)
    spec = SceneSpec(
        geometry=(40, 30), n_frames=40, duration_us=40_000,
        objects=(ObjectSpec(kind="linear", start=(8.0, 3.0), velocity=(0.3, 0.55),
                            footprint=1, prob=0.8),),
        noise_per_frame=2.5, seed=4,
    )
    stream = generate(spec)
    tensor = bin_to_tensor(stream, spec.n_frames)
    factors, _ = solve(tensor, SolverConfig(f_max=4, s_max=500, seed=4))
    scores = score_events(stream, tensor, factors)
    tau = quantile_threshold(scores, 0.2)
    _, report = filter_events(stream, scores, tau)
    base_rate = float((stream.labels != NOISE_LABEL).mean())
    assert report.precision > base_rate
    assert report.recall >= 0.7


def test_report_csv_layout():
    stream = EventStream(i=[0, 1], j=[1, 0], t=[0, 10], geometry=(2, 2),
                         labels=[0, NOISE_LABEL], t_min=0, t_max=10)
    tensor = bin_to_tensor(stream, 2)
    factors = random_factors(np.random.default_rng(0), tensor.dims, 1, lo=0.0, hi=1.0)
    scores = score_events(stream, tensor, factors)
    _, report = filter_events(stream, scores, float(scores.min()))
    buf = io.StringIO()
    write_report_csv(stream, report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,i,j,label,score,kept"
    assert len(lines) == 3
    assert lines[1].endswith(",1")


@pytest.mark.parametrize("labels", [None, [0, NOISE_LABEL, 3, NOISE_LABEL, -5]],
                         ids=["unlabelled", "labelled"])
def test_report_csv_bytes_equal_the_row_writer(labels):
    stream = EventStream(i=[0, 1, 2, 3, 3], j=[1, 0, 2, 3, 3], t=[0, 10, 2**45, 40, 40],
                         geometry=(4, 4), labels=labels)
    scores = np.array([0.0, -0.0, 5e-324, 1e-300, 1.7e308])
    _, report = filter_events(stream, scores, 1e-300)
    fast, rows = io.StringIO(), io.StringIO()
    write_report_csv(stream, report, fast)
    oracles.write_report_csv(stream, report, rows)
    assert fast.getvalue() == rows.getvalue()
    assert "-0," in fast.getvalue() and "4.9406564584124654e-324" in fast.getvalue()


@pytest.mark.parametrize("field", ["scores", "kept"])
@pytest.mark.parametrize("resize", [lambda a: a[:-1], lambda a: np.r_[a, a[:1]]],
                         ids=["shorter", "longer"])
def test_report_csv_rejects_a_misaligned_report(tmp_path, field, resize):
    stream, tensor, factors = small_setup()
    _, report = filter_events(stream, score_events(stream, tensor, factors), 0.0)
    setattr(report, field, resize(getattr(report, field)))
    path = tmp_path / "report.csv"
    with pytest.raises(ConsistencyError):
        write_report_csv(stream, report, path)
    assert not path.exists()


def _davis_scale_scored():
    """The DAVIS-scale scene (260 x 346 x 100, 57,843 events), its tensor,
    random factors at f = 6, score_events' scores on them and its
    tracemalloc peak."""
    spec = SceneSpec(
        geometry=(260, 346), n_frames=100, duration_us=1_000_000,
        objects=(ObjectSpec(kind="linear", start=(20.0, 20.0), velocity=(2.1, 3.0),
                            footprint=8, prob=0.8),
                 ObjectSpec(kind="circular", start=(130.0, 173.0), radius=80.0, freq=0.01,
                            footprint=8, prob=0.8)),
        noise_per_frame=115.6, seed=7,
    )
    stream = generate(spec)
    tensor = bin_to_tensor(stream, spec.n_frames)
    factors = random_factors(np.random.default_rng(0), tensor.dims, 6)
    tracemalloc.start()
    try:
        scores = score_events(stream, tensor, factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == len(stream)
    return stream, tensor, factors, scores, peak


def test_score_events_peak_memory_is_the_table_at_the_events_columns_and_two_blocks():
    # mode j's whole pair table is 7.5 MB, the events touch 11,417 of its
    # 26,000 columns; the table at those is 3.3 MB. Streamed a block of
    # rows at a time, the table holds at most two blocks beside a few
    # event-sized vectors, well inside this bound. The scores are the
    # unblocked oracle's bit for bit at DAVIS scale, not only on small tensors
    stream, tensor, factors, scores, peak = _davis_scale_scored()
    frames = bin_indices(stream.t, tensor.bin_edges)
    used = len(np.unique(stream.i * tensor.dims[2] + frames))
    assert peak < 8 * 6 * 6 * used + 2 * tensor_ops.BLOCK_BYTES + (1 << 20)
    np.testing.assert_array_equal(scores, oracles.cell_values_unblocked(factors, stream.i,
                                                                        stream.j, frames))


@pytest.mark.parametrize("block_bytes", [1 << 18, 1 << 19])
def test_score_events_makes_the_table_a_block_of_columns_at_a_time(monkeypatch, block_bytes):
    # at a BLOCK_BYTES well under the 3.3 MB table at the events' columns,
    # the peak is a few per-event arrays (the frames, the cells' columns,
    # the scores, one table row's term and its gather) and two blocks of
    # table rows, two rows of 208 kB each: 2.9 MB at both sizes here, where
    # the whole table at those columns made it 5.0 and 5.1 MB
    monkeypatch.setattr(tensor_ops, "BLOCK_BYTES", block_bytes)
    stream, *_, peak = _davis_scale_scored()
    assert peak < 6 * 8 * len(stream) + 2 * block_bytes
