import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtensor
from evtensor import evaluation
from evtensor.errors import ConsistencyError, NumericalError, ProtocolError, ShapeError
from evtensor.evaluation import (
    TASK_OBJECTS,
    FeatureMatrix,
    GatheredFeatures,
    SweepCell,
    SweepResult,
    auc,
    auc_gap,
    binary_task,
    classify_factors,
    extract_features,
    save_model,
    sweep_lambdas,
    temporal_split,
    train_svm,
    write_results_csv,
)
from evtensor.denoise import filter_events
from evtensor.events import NOISE_LABEL, EventStream, bin_to_tensor
from evtensor.solver import SolverConfig, solve
from evtensor.synth import generate, load_scene_spec
from evtensor.tensor_ops import matricize_factor

import oracles
from oracles import auc_bruteforce, load_model, random_factors


def labeled_stream(geometry=(6, 6), frames=10, per_frame=4, seed=0):
    """Deterministic two-object stream: object 0 in the top rows, object 1 in
    the bottom rows, every frame populated."""
    rng = np.random.default_rng(seed)
    rows, cols = geometry
    ii, jj, tt, lab = [], [], [], []
    for n in range(frames):
        for k in range(per_frame):
            obj = k % 2
            ii.append(int(rng.integers(0, 2)) if obj == 0 else rows - 1 - int(rng.integers(0, 2)))
            jj.append(int(rng.integers(0, cols)))
            tt.append(n * 100 + int(rng.integers(0, 100)))
            lab.append(obj)
    return EventStream(i=ii, j=jj, t=tt, geometry=geometry,
                       labels=lab, t_min=0, t_max=frames * 100)


def fitted_pieces(f=2, seed=0):
    stream = labeled_stream(seed=seed)
    tensor = bin_to_tensor(stream, 10)
    rng = np.random.default_rng(seed)
    factors = random_factors(rng, tensor.dims, f, lo=0.0, hi=1.0)
    return stream, tensor, factors


# ---------------------------------------------------------------------------
# feature extraction


def test_features_f1_are_factor_scalars():
    stream, tensor, factors = fitted_pieces(f=1)
    feats = extract_features(stream, tensor, factors)
    assert feats.features.shape == (len(stream), 3)
    k = 5
    i, j, n = stream.i[k], stream.j[k], feats.frames[k]
    expected = [factors.g_i[i, 0, 0], factors.g_j[0, j, 0], factors.g_n[0, 0, n]]
    np.testing.assert_allclose(feats.features[k], expected)


def test_features_shared_coordinates_identical():
    stream = EventStream(i=[2, 2], j=[3, 3], t=[10, 15], geometry=(6, 6),
                         labels=[0, 1], t_min=0, t_max=100)
    tensor = bin_to_tensor(stream, 4)
    factors = random_factors(np.random.default_rng(1), tensor.dims, 2)
    feats = extract_features(stream, tensor, factors)
    np.testing.assert_array_equal(feats.features[0], feats.features[1])


def test_features_f2_event_at_origin_matches_hand_read():
    stream = EventStream(i=[0], j=[0], t=[0], geometry=(4, 4),
                         labels=[0], t_min=0, t_max=100)
    tensor = bin_to_tensor(stream, 4)
    factors = random_factors(np.random.default_rng(2), tensor.dims, 2)
    feats = extract_features(stream, tensor, factors)
    assert feats.features.shape == (1, 12)
    expected = np.concatenate([
        matricize_factor(factors.g_i, "i")[0],
        matricize_factor(factors.g_j, "j")[0],
        matricize_factor(factors.g_n, "n")[0],
    ])
    np.testing.assert_array_equal(feats.features[0], expected)


def test_features_require_labels():
    stream = EventStream(i=[0], j=[0], t=[0], geometry=(4, 4), t_min=0, t_max=100)
    tensor = bin_to_tensor(stream, 4)
    factors = random_factors(np.random.default_rng(0), tensor.dims, 1)
    with pytest.raises(ProtocolError):
        extract_features(stream, tensor, factors)


def test_features_dim_mismatch():
    stream, tensor, _ = fitted_pieces()
    wrong = random_factors(np.random.default_rng(0), (6, 6, 3), 2)
    with pytest.raises(ConsistencyError):
        extract_features(stream, tensor, wrong)


def test_unrelated_factor_rows_leave_features_unchanged():
    stream, tensor, factors = fitted_pieces(f=2)
    feats = extract_features(stream, tensor, factors)
    g_i = factors.g_i.copy()
    untouched_rows = np.setdiff1d(np.arange(tensor.dims[0]), stream.i)
    assert len(untouched_rows) > 0
    g_i[untouched_rows[0]] += 100.0
    from evtensor.tensor_ops import FactorTriple

    perturbed = extract_features(stream, tensor,
                                 FactorTriple(g_i=g_i, g_j=factors.g_j, g_n=factors.g_n))
    np.testing.assert_array_equal(perturbed.features, feats.features)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_gathered_features_densify_to_the_dense_oracle(f):
    stream, tensor, factors = fitted_pieces(f=f)
    feats = extract_features(stream, tensor, factors)
    dense = oracles.extract_features(stream, tensor, factors).features
    assert isinstance(feats.features, GatheredFeatures)
    assert feats.features.shape == dense.shape
    assert len(feats.features) == len(dense)
    np.testing.assert_array_equal(np.asarray(feats.features), dense)


def test_gathered_features_index_like_the_dense_array():
    stream, tensor, factors = fitted_pieces(f=2)
    gathered = extract_features(stream, tensor, factors).features
    dense = oracles.extract_features(stream, tensor, factors).features
    m = len(dense)
    mask = np.arange(m) % 3 != 1
    for key in (mask, np.array([5, 0, 5, m - 1]), slice(3, 17, 2), slice(None)):
        picked = gathered[key]
        assert isinstance(picked, GatheredFeatures)
        assert picked.shape == dense[key].shape
        np.testing.assert_array_equal(np.asarray(picked), dense[key])
    for key in (0, 7, -1, np.int64(m - 2)):
        np.testing.assert_array_equal(gathered[key], dense[key])
    np.testing.assert_array_equal(gathered[mask][3], dense[mask][3])
    assert np.asarray(gathered, dtype=np.float32).dtype == np.float32
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        # numpy 2 passes copy= to __array__; the suite errors on the
        # DeprecationWarning it gives for an __array__ without that keyword
        np.testing.assert_array_equal(np.array(gathered, copy=True), dense)
        with pytest.raises(ValueError):
            np.asarray(gathered, copy=False)


# ---------------------------------------------------------------------------
# temporal split


@pytest.mark.parametrize("frames,cutoff", [(100, 60), (5, 3), (60, 36)])
def test_split_cutoff(frames, cutoff):
    m = frames  # one event per frame
    feats = FeatureMatrix(
        features=np.zeros((m, 3)),
        labels=np.zeros(m, dtype=np.int64),
        frames=np.arange(m),
        n_frames=frames,
    )
    tagged = temporal_split(feats)
    np.testing.assert_array_equal(tagged.is_train, np.arange(m) < cutoff)


def test_split_empty_train_is_protocol_error():
    feats = FeatureMatrix(
        features=np.zeros((3, 3)),
        labels=np.zeros(3, dtype=np.int64),
        frames=np.array([99, 99, 99]),
        n_frames=100,
    )
    with pytest.raises(ProtocolError):
        temporal_split(feats)


def test_split_empty_test_is_protocol_error():
    feats = FeatureMatrix(
        features=np.zeros((3, 3)),
        labels=np.zeros(3, dtype=np.int64),
        frames=np.array([0, 1, 2]),
        n_frames=100,
    )
    with pytest.raises(ProtocolError):
        temporal_split(feats)


def test_split_is_label_blind():
    rng = np.random.default_rng(0)
    frames = rng.integers(0, 10, size=50)
    feats = FeatureMatrix(features=np.zeros((50, 3)),
                          labels=rng.integers(0, 2, size=50),
                          frames=frames, n_frames=10)
    a = temporal_split(feats).is_train
    permuted = FeatureMatrix(features=feats.features,
                             labels=rng.permutation(feats.labels),
                             frames=frames, n_frames=10)
    b = temporal_split(permuted).is_train
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# binary task selection


def test_binary_task_objects_excludes_noise():
    labels = np.array([0, 1, -1, 0, 1])
    mask, y = binary_task(labels, "objects")
    np.testing.assert_array_equal(mask, [True, True, False, True, True])
    np.testing.assert_array_equal(y, [0, 1, 0, 1])


def test_binary_task_noise_keeps_all():
    labels = np.array([0, 1, -1, -2])
    mask, y = binary_task(labels, "noise")
    assert mask.all()
    np.testing.assert_array_equal(y, [1, 1, 0, 1])


def test_the_noise_tasks_positives_are_the_denoise_reports_signal():
    # every label but NOISE_LABEL is signal, -2 included, in both: keeping
    # exactly the noise task's positives keeps all the report's signal
    labels = np.array([0, 1, NOISE_LABEL, -2])
    stream = EventStream(i=[0, 0, 0, 0], j=[0, 1, 2, 3], t=[0, 1, 2, 3], geometry=(1, 4),
                         labels=labels)
    _, y = binary_task(labels, "noise")
    _, report = filter_events(stream, y.astype(np.float64), 0.5)
    assert report.precision == report.recall == 1.0


def test_binary_task_objects_needs_exactly_two_classes():
    with pytest.raises(ProtocolError):
        binary_task(np.array([0, 1, 2]), "objects")
    with pytest.raises(ProtocolError):
        binary_task(np.array([0, 0, -1]), "objects")


# ---------------------------------------------------------------------------
# SVM


def test_svm_separable_two_points():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    model = train_svm(x, y)
    scores = model.decision_scores(x)
    assert ((scores > 0).astype(int) == y).all()


def test_svm_single_class_raises():
    with pytest.raises(ProtocolError):
        train_svm(np.zeros((4, 2)), np.zeros(4, dtype=int))


def test_svm_rerun_bitwise_identical():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60)
    m1 = train_svm(x, y)
    m2 = train_svm(x, y)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_svm_in_place_standardization_is_bit_identical():
    # the model's scores on a dense matrix are those of the fresh difference
    # (x - mean) / std to the last bit; a constant dimension gets std 1 and,
    # its standardized column all zero, no weight
    rng = np.random.default_rng(12)
    x = rng.normal(loc=3.0, scale=[0.5, 2.0, 7.0, 1e-3, 40.0], size=(300, 5))
    x[:, 1] = 4.0  # a constant dimension
    y = (x[:, 0] + 0.3 * rng.normal(size=300) > 3.0).astype(int)
    model = train_svm(x, y)
    assert model.std[1] == 1.0  # the constant dimension's std, replaced
    assert model.weights[1] == 0.0
    assert np.all(model.weights[[0, 2, 3, 4]] != 0.0)
    fresh = (x - model.mean) / model.std @ model.weights + model.bias
    np.testing.assert_array_equal(model.decision_scores(x), fresh)


def test_svm_shape_mismatches_name_both_sizes():
    stream, tensor, factors = fitted_pieces(f=3)
    gathered = extract_features(stream, tensor, factors).features
    y = np.arange(len(gathered)) % 2
    for features in (gathered, np.asarray(gathered)):
        with pytest.raises(ShapeError, match=f"{len(y)} feature rows but {len(y) - 1} targets"):
            train_svm(features, y[:-1])
    narrower = extract_features(stream, tensor,
                                random_factors(np.random.default_rng(3), tensor.dims, 2))
    model = train_svm(narrower.features, y)
    for features in (gathered, np.asarray(gathered)):
        with pytest.raises(ShapeError, match="27 columns, the model has 12 weights"):
            model.decision_scores(features)


def test_svm_concatenated_duplicate_set_matches():
    # full-batch means duplication changes nothing but summation blocking
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    y = (x[:, 0] > 0).astype(int)
    m1 = train_svm(x, y)
    m2 = train_svm(np.vstack([x, x]), np.r_[y, y])
    np.testing.assert_allclose(m2.weights, m1.weights, rtol=1e-10, atol=1e-12)


def test_svm_null_band_over_ten_seeds():
    # labels independent of features: test AUC stays inside the empirical
    # null band measured before freezing ([0.446, 0.551] observed)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(400, 12))
        y = rng.integers(0, 2, size=400)
        model = train_svm(x[:240], y[:240])
        value = auc(model.decision_scores(x[240:]), y[240:])
        assert 0.35 <= value <= 0.65


def test_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    model = train_svm(x, y)
    path = str(tmp_path / "svm.model")
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.std, model.std)
    assert loaded.bias == model.bias
    assert loaded.iterations == model.iterations >= 1


@pytest.mark.parametrize("keep,missing", [(1, "bias"), (2, "mean"), (3, "std"),
                                          (5, "iterations")])
def test_truncated_model_file_names_the_missing_field(tmp_path, keep, missing):
    rng = np.random.default_rng(5)
    model = train_svm(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40))
    path = tmp_path / "svm.model"
    save_model(model, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep]))
    with pytest.raises(ValueError, match=f"no '{missing}' field"):
        load_model(str(path))


def test_model_file_with_a_short_std_row_is_rejected(tmp_path):
    rng = np.random.default_rng(5)
    model = train_svm(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40))
    path = tmp_path / "svm.model"
    save_model(model, str(path))
    text = path.read_text()
    std_line = next(line for line in text.splitlines() if line.startswith("std "))
    path.write_text(text.replace(std_line, std_line.rsplit(" ", 1)[0]))
    with pytest.raises(ShapeError, match="3 weights, 3 means and 2 stds"):
        load_model(str(path))


# ---------------------------------------------------------------------------
# the gathered Newton solve against the dense oracle on the reference scene


@pytest.fixture(scope="module")
def ref_scene_fit():
    spec = load_scene_spec(oracles.REF_SCENE)
    stream = generate(spec)
    tensor = bin_to_tensor(stream, spec.n_frames)
    factors, _ = solve(tensor, SolverConfig(s_max=100))
    return stream, tensor, factors


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_gathered_svm_matches_dense_oracle_on_reference_scene(ref_scene_fit, task):
    stream, tensor, factors = ref_scene_fit
    gathered = temporal_split(extract_features(stream, tensor, factors))
    dense = temporal_split(oracles.extract_features(stream, tensor, factors))
    mask, y = binary_task(gathered.labels, task)
    tr, te = mask & gathered.is_train, mask & ~gathered.is_train
    y_tr, y_te = y[gathered.is_train[mask]], y[~gathered.is_train[mask]]
    m_g = train_svm(gathered.features[tr], y_tr)
    m_d = oracles.train_svm_dense(dense.features[tr], y_tr)
    assert m_g.iterations > 1
    np.testing.assert_allclose(m_g.mean, m_d.mean, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(m_g.std, m_d.std, rtol=1e-10)
    np.testing.assert_allclose(m_g.weights, m_d.weights, rtol=1e-9)
    assert m_g.bias == pytest.approx(m_d.bias, rel=1e-9)
    dense_scores = (dense.features[te] - m_d.mean) / m_d.std @ m_d.weights + m_d.bias
    assert auc(m_g.decision_scores(gathered.features[te]), y_te) == auc(dense_scores, y_te)


def _random_svm_data(seed):
    """A dense training set whose label follows one column, with noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=1.0, scale=[0.5, 2.0, 1.0, 3.0, 0.1, 1.0], size=(400, 6))
    return x, (x[:, 0] - x[:, 3] / 4 + 0.5 * rng.normal(size=400) > 1.0).astype(int)


def _assert_at_the_optimum(model, x, y):
    gradient = oracles.svm_primal_gradient(model, x, y)
    at_zero = replace(model, weights=np.zeros_like(model.weights), bias=0.0)
    scale = np.linalg.norm(oracles.svm_primal_gradient(at_zero, x, y))
    assert np.linalg.norm(gradient) <= 1e-8 * scale


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_svm_stops_at_the_primal_optimum_on_the_reference_scene(ref_scene_fit, task):
    features, y, _ = _train_and_test_features(*ref_scene_fit, task)
    model = train_svm(features, y)
    assert 1 < model.iterations < evaluation.SVM_MAX_ITERATIONS
    _assert_at_the_optimum(model, np.asarray(features), y)


@pytest.mark.parametrize("seed", range(4))
def test_svm_stops_at_the_primal_optimum_on_random_data(seed):
    x, y = _random_svm_data(seed)
    model = train_svm(x, y)
    assert 1 < model.iterations < evaluation.SVM_MAX_ITERATIONS
    _assert_at_the_optimum(model, x, y)


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_svm_is_the_same_under_event_order_and_duplication(ref_scene_fit, task):
    features, y, _ = _train_and_test_features(*ref_scene_fit, task)
    model = train_svm(features, y)
    rerun = train_svm(features, y)
    np.testing.assert_array_equal(rerun.weights, model.weights)
    assert rerun.bias == model.bias
    for keep in (np.random.default_rng(7).permutation(len(y)), np.tile(np.arange(len(y)), 2)):
        other = train_svm(features[keep], y[keep])
        np.testing.assert_allclose(other.weights, model.weights, rtol=1e-10)
        assert other.bias == pytest.approx(model.bias, rel=1e-10)


_SEARCH_KINDS = ("generic", "no_kink_ahead", "every_kink_ahead", "tied_kinks", "zero_steps",
                 "root_past_the_first_window")


def _line_search_case(kind, seed):
    """Seeded (slack, step, w, dw) inputs of a line search, of one kind."""
    rng = np.random.default_rng([_SEARCH_KINDS.index(kind), seed])
    n, d = int(rng.integers(1, 2000)), int(rng.integers(1, 12))
    slack, step = rng.normal(size=n), rng.normal(size=n)
    w, dw = rng.normal(size=d), rng.normal(size=d)
    if kind == "no_kink_ahead":  # each slack moves away from 0
        step = -np.sign(slack) * np.abs(step)
    elif kind == "every_kink_ahead":
        slack, step = np.abs(slack), np.abs(step)
    elif kind == "tied_kinks":  # a few distinct (slack, step) pairs, each repeated
        slack, step = rng.normal(size=(2, 5))[:, rng.integers(0, 5, n)]
    elif kind == "zero_steps":
        step[rng.random(n) < 0.5] = 0.0
        slack[rng.random(n) < 0.1] = 0.0
    elif kind == "root_past_the_first_window":
        # every kink ahead and a step too small to pay for its regularizer
        # until nearly every slack has crossed 0
        slack, step = np.abs(slack), np.abs(step)
        w, dw = np.zeros(d), 1e-3 * dw
    return slack, step, w, dw


@pytest.mark.parametrize("kind", _SEARCH_KINDS)
def test_the_kink_window_line_search_equals_the_full_sort(kind):
    roots_past = 0  # roots past the first window of 16 kinks and its first growth to 64
    for seed in range(60):
        slack, step, w, dw = _line_search_case(kind, seed)
        t = evaluation._line_search(slack, step, w, dw)
        assert t == oracles.line_search_full_sort(slack, step, w, dw), seed
        kinks = np.divide(slack, step, out=np.zeros(len(slack)), where=step != 0)
        roots_past += np.count_nonzero((kinks > 0) & (kinks < t)) > 64
    if kind == "root_past_the_first_window":
        assert roots_past >= 50


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_svm_is_the_same_with_the_full_sort_line_search(ref_scene_fit, task, monkeypatch):
    features, y, _ = _train_and_test_features(*ref_scene_fit, task)
    model = train_svm(features, y)
    monkeypatch.setattr(evaluation, "_line_search", oracles.line_search_full_sort)
    oracle = train_svm(features, y)
    np.testing.assert_array_equal(model.weights, oracle.weights)
    assert (model.bias, model.iterations) == (oracle.bias, oracle.iterations)
    assert model.iterations > 1


def test_svm_reaching_its_iteration_cap_warns(monkeypatch, caplog):
    x, y = _random_svm_data(0)
    monkeypatch.setattr(evaluation, "SVM_MAX_ITERATIONS", 1)
    with caplog.at_level("WARNING", logger="evtensor.evaluation"):
        model = train_svm(x, y)
    assert model.iterations == 1
    assert "cap of 1 Newton steps" in caplog.text


def test_newton_step_with_no_active_event_keeps_the_bias():
    # every margin at or past 1 leaves only the regularizer: its minimizer is
    # w = 0 at any bias, so the step keeps the bias instead of a singular solve
    features = GatheredFeatures([np.arange(6.0).reshape(3, 2), np.ones((2, 1))],
                                [np.array([0, 2, 1]), np.array([1, 0, 1])])
    parts = evaluation._standardized(features, np.zeros(3), np.ones(3))
    w = np.array([0.5, -1.0, 2.0])
    dw, db = evaluation._newton_step(parts, np.array([True, False, True]),
                                     np.zeros(3, dtype=bool), w, 0.25)
    np.testing.assert_array_equal(w + dw, np.zeros(3))
    assert db == 0.0


def test_svm_through_an_empty_active_set_ends_at_the_optimum(monkeypatch):
    # on these four points the fifth step starts with every margin past 1
    x = np.array([[0.0, 1.5], [0.3, -0.3], [11.0, 14.0], [-0.5, -1.5]])
    y = np.array([0, 0, 1, 0])
    sizes = []
    newton_step = evaluation._newton_step

    def recording(*args):
        sizes.append(int(np.count_nonzero(args[2])))
        return newton_step(*args)

    monkeypatch.setattr(evaluation, "_newton_step", recording)
    model = train_svm(x, y)
    assert 0 in sizes and sizes[-1] > 0
    _assert_at_the_optimum(model, x, y)


def _train_and_test_features(stream, tensor, factors, task):
    feats = temporal_split(extract_features(stream, tensor, factors))
    mask, y = binary_task(feats.labels, task)
    return (feats.features[mask & feats.is_train], y[feats.is_train[mask]],
            feats.features[mask & ~feats.is_train])


def _events_of(features, y, events):
    """A reordering or subset of the training events; see the test below."""
    frames = features.rows[-1]
    if events == "shuffled":
        keep = np.random.default_rng(7).permutation(len(y))
    elif events == "frames_with_gaps":
        # empty frames at the start, between non-empty ones and at the end
        keep = np.flatnonzero((frames % 3 != 1) & (frames > 0) & (frames < frames.max()))
    elif events == "one_frame":
        both = [f for f in np.unique(frames) if len(np.unique(y[frames == f])) == 2]
        keep = np.flatnonzero(frames == both[len(both) // 2])
    else:
        keep = np.arange(len(y))
    return features[keep], y[keep]


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_column_stats_are_bit_identical_under_any_event_order(ref_scene_fit, task):
    # integer row counts carry the events, so their order and a duplicated
    # set leave the statistics unchanged to the last bit
    features, y, _ = _train_and_test_features(*ref_scene_fit, task)
    for subset in ("as_split", "frames_with_gaps"):
        base = _events_of(features, y, subset)[0]
        mean, std = evaluation._column_stats(base)
        want_mean, want_std = oracles.column_stats_unblocked(base)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(std, want_std, rtol=1e-10)
        shuffled = np.random.default_rng(7).permutation(len(base))
        for keep in (shuffled, np.tile(np.arange(len(base)), 2)):
            got_mean, got_std = evaluation._column_stats(base[keep])
            np.testing.assert_array_equal(got_mean, mean)
            np.testing.assert_array_equal(got_std, std)


def test_column_stats_peak_memory_is_table_sized_not_event_sized():
    # DAVIS-scale tables (260, 346 and 100 rows at f = 6) and 57,843 events:
    # the statistics hold a table's temporaries, not an (events, columns) block
    rng = np.random.default_rng(0)
    f, n = 6, 57_843
    tables = [rng.normal(size=(rows, f * f)) for rows in (260, 346, 100)]
    features = GatheredFeatures(tables, [rng.integers(0, len(t), size=n) for t in tables])
    tracemalloc.start()
    try:
        mean, std = evaluation._column_stats(features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mean.shape == std.shape == (3 * f * f,)
    assert peak < 3 * max(t.nbytes for t in tables) + (64 << 10)
    assert peak < n * 8


def test_train_svm_peak_memory_is_a_few_event_arrays():
    # DAVIS-scale tables at f = 6 and the noise task's 34,777 training
    # events. Each Newton step holds a few event-sized arrays and one table-
    # row co-occurrence count, never an (events, columns) block; the 500-epoch
    # subgradient loop it replaced peaked at 12 event-sized float64 arrays
    rng = np.random.default_rng(0)
    f, n = 6, 34_777
    tables = [rng.normal(size=(rows, f * f)) for rows in (260, 346, 100)]
    rows = [rng.integers(0, len(t), size=n) for t in tables]
    features = GatheredFeatures(tables, rows)
    y = (sum(t[r, 0] for t, r in zip(tables, rows)) + rng.normal(size=n) > 0.5).astype(int)
    tracemalloc.start()
    try:
        model = train_svm(features, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.iterations > 1
    assert peak < 9 * n * 8


@pytest.mark.parametrize("task", ["objects", "noise"])
def test_decision_scores_follow_the_callers_event_order(ref_scene_fit, task):
    train, y, test = _train_and_test_features(*ref_scene_fit, task)
    model = train_svm(train, y)
    perm = np.random.default_rng(8).permutation(len(test))
    np.testing.assert_array_equal(model.decision_scores(test[perm]),
                                  model.decision_scores(test)[perm])


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_hand_computed_three_quarters():
    # pos {0.8, 0.3}, neg {0.5, 0.1}: wins 3 of 4 pairs
    assert auc([0.8, 0.3, 0.5, 0.1], [1, 1, 0, 0]) == 0.75


def test_auc_one_class_raises():
    with pytest.raises(ProtocolError):
        auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(20))
def test_auc_matches_bruteforce_with_ties(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 400))
    scores = rng.integers(0, 6, size=m).astype(float)  # heavy ties
    labels = rng.integers(0, 2, size=m)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) == auc_bruteforce(scores, labels)


def test_auc_is_bit_identical_to_the_tie_run_scan():
    # the ranks of one np.unique call are exactly the tie-run scan's: a run of
    # c ties ending at sorted position e ranks e - (c - 1) / 2 = (start + end + 1) / 2
    rng = np.random.default_rng(31)
    for case in range(300):
        m = int(rng.integers(2, 2000))
        if case % 3 == 0:
            scores = np.full(m, rng.normal())
        elif case % 3 == 1:
            scores = rng.integers(0, int(rng.integers(1, 20)), size=m) * rng.normal()
        else:
            scores = rng.normal(size=m)
        labels = rng.integers(0, 2, size=m)
        labels[:2] = 0, 1
        assert auc(scores, labels) == oracles.auc_by_tie_runs(scores, labels), case


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 50))
    scores = rng.normal(size=m)
    labels = rng.integers(0, 2, size=m)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auc_complement_without_ties():
    rng = np.random.default_rng(0)
    scores = rng.permutation(20).astype(float)  # distinct
    labels = np.r_[np.ones(10, dtype=int), np.zeros(10, dtype=int)]
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scores", [[np.nan, 1.0, 2.0, 0.5], [0.0, 1.0, 2.0, np.nan]])
def test_auc_of_nan_scores_is_nan(scores):
    assert np.isnan(auc(scores, [1, 0, 1, 0]))


def test_auc_counts_signed_zeros_as_a_tie():
    scores, labels = [0.0, -0.0, 1.0, -1.0, -0.0], [1, 0, 1, 0, 1]
    assert auc(scores, labels) == auc_bruteforce(scores, labels)


def test_importing_the_package_loads_no_scipy():
    src = Path(evtensor.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import evtensor, evtensor.cli; print('scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, str(src)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# sweep


def small_cfg():
    return SolverConfig(f_max=2, s_max=15, seed=0)


def test_sweep_single_point_gap_zero():
    stream = labeled_stream()
    tensor = bin_to_tensor(stream, 10)
    result = sweep_lambdas(tensor, stream, [(0.1, 0.1)], small_cfg())
    assert len(result.cells) == 1
    assert result.overall_gap() == 0.0


def test_sweep_internal_consistency():
    stream = labeled_stream()
    tensor = bin_to_tensor(stream, 10)
    grid = [(l1, l2) for l1 in (0.0, 0.3) for l2 in (0.1, 0.4)]
    result = sweep_lambdas(tensor, stream, grid, small_cfg())
    aucs = result.aucs()
    assert all(0.0 <= a <= 1.0 for a in aucs)
    gap = result.overall_gap()
    assert 0.0 <= gap <= 100.0
    assert gap == pytest.approx(100.0 * (max(aucs) - min(aucs)) / max(aucs))
    # per-axis gaps exist for both axes on a full grid
    assert len(result.axis_gaps("lambda1")) == 2
    assert len(result.axis_gaps("lambda2")) == 2


def test_sweep_records_cell_failures_without_aborting(monkeypatch):
    stream = labeled_stream()
    tensor = bin_to_tensor(stream, 10)

    def solve_or_fail(tensor, cfg):
        if cfg.lambda1 == 0.2:
            raise NumericalError(3, "non-finite factor")
        return solve(tensor, cfg)

    # the first point's solve fails: the cell must fail, the sweep must not
    monkeypatch.setattr(evaluation, "solve", solve_or_fail)
    result = sweep_lambdas(tensor, stream, [(0.2, 0.1), (0.1, 0.1)], small_cfg())
    assert len(result.cells) == 2
    assert np.isnan(result.cells[0].auc)
    assert result.cells[0].error == "iteration 3: non-finite factor"
    assert not np.isnan(result.cells[1].auc)


@pytest.mark.parametrize("grid, message", [
    ([(0.1, 0.1), (0.1, 0.0)], "lambda2 must be > 0"),
    ([(0.1, 0.1), (float("nan"), 0.1)], "lambda1 must be finite"),
], ids=["lambda2-0", "lambda1-nan"])
def test_a_grid_point_the_solver_config_refuses_fails_before_the_first_solve(monkeypatch, grid,
                                                                            message):
    # such a point once became a failed cell, and a NaN lambda1 a nan row
    stream = labeled_stream()
    solves = []
    monkeypatch.setattr(evaluation, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match=message):
        sweep_lambdas(bin_to_tensor(stream, 10), stream, grid, small_cfg())
    assert solves == []


def test_a_sweep_point_whose_classify_fails_after_its_solve_records_a_failed_cell():
    # objects only in the training frames: the solve runs, then the objects
    # task finds no test event; the cell must not keep the solve's sweeps
    stream = labeled_stream()
    labels = np.where(stream.t >= 600, NOISE_LABEL, stream.labels)  # frames 6..9 test
    stream = EventStream(i=stream.i, j=stream.j, t=stream.t, geometry=stream.geometry,
                         labels=labels, t_min=0, t_max=1000)
    tensor = bin_to_tensor(stream, 10)
    factors, state = solve(tensor, replace(small_cfg(), lambda1=0.2, lambda2=0.3))
    assert state.s > 0
    with pytest.raises(ProtocolError) as err:
        classify_factors(stream, tensor, factors, TASK_OBJECTS)
    [cell] = sweep_lambdas(tensor, stream, [(0.2, 0.3)], small_cfg(), task=TASK_OBJECTS).cells
    assert np.isnan(cell.auc)
    assert (cell.lambda1, cell.lambda2, cell.converged, cell.iters, cell.error) == (
        0.2, 0.3, False, 0, str(err.value))
    assert cell.seconds >= 0.0


def test_sweep_empty_grid_rejected():
    stream = labeled_stream()
    tensor = bin_to_tensor(stream, 10)
    with pytest.raises(ValueError):
        sweep_lambdas(tensor, stream, [], small_cfg())


@pytest.mark.parametrize("labeled, message", [
    (False, "a sweep needs a labeled stream"),
    (True, r"object task needs exactly two object classes, found \[0\]"),
], ids=["unlabeled", "one-object-class"])
def test_a_sweep_its_labels_cannot_serve_fails_before_the_first_solve(monkeypatch, labeled,
                                                                       message):
    # every grid point would fail alike, so no point is solved
    stream = labeled_stream()
    labels = np.where(stream.labels == 1, NOISE_LABEL, stream.labels) if labeled else None
    stream = EventStream(i=stream.i, j=stream.j, t=stream.t, geometry=stream.geometry,
                         labels=labels, t_min=0, t_max=1000)
    solves = []
    monkeypatch.setattr(evaluation, "solve", lambda *args: solves.append(args))
    with pytest.raises(ProtocolError, match=message):
        sweep_lambdas(bin_to_tensor(stream, 10), stream, [(0.1, 0.1), (0.2, 0.1)], small_cfg(),
                      task=TASK_OBJECTS)
    assert solves == []


def test_results_csv_layout(tmp_path):
    stream = labeled_stream()
    tensor = bin_to_tensor(stream, 10)
    result = sweep_lambdas(tensor, stream, [(0.0, 0.1), (0.2, 0.1)], small_cfg())
    path = str(tmp_path / "results.csv")
    write_results_csv(result, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "lambda1,lambda2,auc,converged,iters,seconds"
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert any(l.startswith("# overall_gap_percent:") for l in lines)


def test_results_csv_writes_each_lambda_exactly(tmp_path):
    # %g once wrote both lambda1 values as 0.123457, one row and one gap key twice
    lambda1s = (0.1234567, 0.1234568)
    result = SweepResult([SweepCell(l1, l2, 0.5 + l1 + l2, True, 3, 0.0)
                          for l1 in lambda1s for l2 in (0.1, 0.2)])
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    lines = path.read_text().splitlines()
    rows = [line.rsplit(",", 4)[0] for line in lines[1:] if not line.startswith("#")]
    assert rows == ["%.17g,%.17g" % (l1, l2) for l1 in lambda1s for l2 in (0.1, 0.2)]
    assert len(set(rows)) == 4
    keys = [line.split(":")[0] for line in lines
            if line.startswith("# gap_percent_varying_lambda2")]
    assert keys == ["# gap_percent_varying_lambda2[lambda1=%.17g]" % l1 for l1 in lambda1s]
    assert [float(key.split("=")[1].rstrip("]")) for key in keys] == list(lambda1s)


def test_auc_gap_edge_cases():
    assert auc_gap([0.5]) == 0.0
    assert auc_gap([0.8, 0.6]) == pytest.approx(25.0)
    assert np.isnan(auc_gap([float("nan")]))
