"""Classification-based evaluation of learned factors.

Each labeled event at coordinates (i, j, n) gets a feature vector by
concatenating the vectorized latent slices of the three factors at its
coordinates -- row i of the matricized g_i, row j of the matricized g_j,
row n of the matricized g_n -- length d = 3*f^2 total. The split is fixed:
events in the first 60% of the frames (TRAIN_FRACTION) train, the rest test.
Test events therefore sit at frames, and for a moving object mostly at
pixels, that no training event had (about 9 in 10 of each object's test
events on the reference scene), so the objects AUC measures extrapolation.
`classify_factors` trains a linear SVM and scores its ranking by AUC; the
CLI's classify command and the regularization sweep both call it.

Features are kept in gathered form (`GatheredFeatures`): the three matricized
factor tables T_a plus each event's row r_a into each, so the (n, d) matrix
z is never built; a dense (n, d) ndarray is a gather from one table. The
column mean and std come from each table's integer row counts. The SVM
minimizes the squared-hinge primal, the bias unregularized,

    P(w, b) = lambda/2 ||w||^2 + 1/(2n) sum_m max(0, 1 - y_m (z_m . w + b))^2

by exact finite Newton (Keerthi & DeCoste, JMLR 2005; Chapelle, Neural
Computation 2007). Each iteration:

- takes the Newton point of the active set I (events with margin < 1), where
  P is a quadratic: one (d+1) x (d+1) solve of the normal equations
  [lambda I + Z_I^T Z_I / n, Z_I^T 1 / n; 1^T Z_I / n, |I| / n] against
  [Z_I^T y_I / n; sum(y_I) / n]. Z_I^T Z_I comes from the tables: diagonal
  blocks T_a^T diag(c_a) T_a, c_a the active events' row counts in table a,
  cross blocks T_a^T C_ab T_b, C_ab their table-row co-occurrence counts.
  The counts are exact integers: the system ignores the events' order;
- searches the line to it exactly (P along it is piecewise quadratic);
- stops when the new point's active set is the one the step was built from:
  that point is the Newton point of its own active set, P's exact optimum.
  Reaching SVM_MAX_ITERATIONS first logs a warning.

An iteration costs O(n) for the counts, margins and kinks, O(n) for each of
about log2(k) + log4(k) line-search probes with the root past the k smallest
kinks (O(K) to partition the K kinks ahead, O(k log k) to sort the window),
O(sum_a rows_a d_a^2 + rows_a rows_b d_b) on the tables and a (d+1)^3 solve.

The regularization sweep reruns the whole pipeline per (lambda1, lambda2) grid
point and summarizes sensitivity with the AUC gap, 100 * (highest - lowest) /
highest.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ProtocolError, ShapeError
from .events import NOISE_LABEL, EventStream, EventTensor, event_frames, open_text
from .solver import SolverConfig, solve
from .tensor_ops import MODES, FactorTriple, matricize_factor

logger = logging.getLogger(__name__)

TASK_OBJECTS = "objects"
TASK_NOISE = "noise"

TRAIN_FRACTION = 0.6  # leading share of the frames that trains the SVM
SVM_LAMBDA = 1e-3     # L2 coefficient of the squared hinge loss
SVM_MAX_ITERATIONS = 50  # Newton steps; every committed workload settles within 18


class GatheredFeatures:
    """An (M, d) feature matrix held as row gathers from a few tables: row m
    is the concatenation of ``tables[k][rows[k][m]]`` over k.

    Indexing by a bool mask, an int array or a slice selects events and
    returns another `GatheredFeatures`; an int returns that event's dense
    row. ``np.asarray`` builds the dense matrix.
    """

    def __init__(self, tables, rows):
        self.tables = tuple(tables)
        self.rows = tuple(rows)

    def __len__(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), sum(t.shape[1] for t in self.tables)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return np.concatenate([t[r[key]] for t, r in zip(self.tables, self.rows)])
        return GatheredFeatures(self.tables, [r[key] for r in self.rows])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("gathered features have no dense array to view")
        dense = np.hstack([t[r] for t, r in zip(self.tables, self.rows)])
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass
class FeatureMatrix:
    """Per-event latent features with labels, frame indices, and split tags."""

    # (M, 3*f^2): from extract_features, the three matricized factor tables
    # with each event's (i, j, n) row indices; any (M, d) ndarray also works
    features: GatheredFeatures | np.ndarray
    labels: np.ndarray          # (M,) raw integer labels
    frames: np.ndarray          # (M,) bin index per event
    n_frames: int
    is_train: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)


def extract_features(stream: EventStream, tensor: EventTensor,
                     factors: FactorTriple) -> FeatureMatrix:
    """One row per labeled event: [g_i slice at i | g_j slice at j | g_n slice
    at n], each slice vectorized with the shared latent-pair flattening.
    The rows are kept in gathered form (see `GatheredFeatures`)."""
    if not stream.has_labels:
        raise ProtocolError("feature extraction requires a labeled stream")
    frames = event_frames(stream, tensor, factors.dims)
    tables = [matricize_factor(factors.factor(mode), mode) for mode in MODES]
    return FeatureMatrix(
        features=GatheredFeatures(tables, [stream.i, stream.j, frames]),
        labels=stream.labels.copy(),
        frames=frames,
        n_frames=factors.dims[2],
    )


def temporal_split(features: FeatureMatrix) -> FeatureMatrix:
    """Tag events in frames 0 .. ceil(TRAIN_FRACTION * N) - 1 as train, the
    rest as test. Label-blind by construction: assignment depends only on the
    frame index."""
    cutoff = math.ceil(TRAIN_FRACTION * features.n_frames)
    is_train = features.frames < cutoff
    if not is_train.any():
        raise ProtocolError("temporal split produced an empty train partition")
    if is_train.all():
        raise ProtocolError("temporal split produced an empty test partition")
    return replace(features, is_train=is_train)


def binary_task(labels: np.ndarray, task: str) -> tuple[np.ndarray, np.ndarray]:
    """Reduce raw labels to a binary task.

    'objects': keep only object-labeled events (exactly two object classes
    required); positives are the higher object id. 'noise': keep everything;
    positives are signal (label != NOISE_LABEL), negatives noise.
    Returns (row mask, 0/1 targets for the masked rows).
    """
    if task == TASK_NOISE:
        mask = np.ones(len(labels), dtype=bool)
        return mask, (labels != NOISE_LABEL).astype(np.int64)
    if task == TASK_OBJECTS:
        mask = labels != NOISE_LABEL
        # distinct by a sort: np.unique's hash path imports numpy.ma
        objects = np.sort(labels[mask])
        classes = objects[:1].tolist() + objects[1:][np.diff(objects) != 0].tolist()
        if len(classes) != 2:
            raise ProtocolError(f"object task needs exactly two object classes, found {classes}")
        return mask, (labels[mask] == classes[1]).astype(np.int64)
    raise ValueError(f"unknown task {task!r}")


@dataclass
class SvmModel:
    """Linear max-margin classifier with train-set standardization baked in."""

    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray
    reg_lambda: float
    iterations: int  # Newton steps run

    def decision_scores(self, features: GatheredFeatures | np.ndarray) -> np.ndarray:
        """Raw signed margins (AUC is rank-based; no calibration)."""
        features = _gathered(features)
        if features.shape[1] != len(self.weights):
            raise ShapeError(f"features have {features.shape[1]} columns, "
                             f"the model has {len(self.weights)} weights")
        return _scores(_standardized(features, self.mean, self.std), self.weights, self.bias)


def _gathered(features) -> GatheredFeatures:
    """Gathered features as they are; an (n, d) array as the gather of its
    rows 0 .. n-1 from one table."""
    if isinstance(features, GatheredFeatures):
        return features
    x = np.asarray(features)
    return GatheredFeatures([x], [np.arange(len(x))])


def _column_stats(features: GatheredFeatures) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std over the events, from each table's row counts."""
    n = len(features)
    means, stds = [], []
    for table, rows in zip(features.tables, features.rows):
        counts = np.bincount(rows, minlength=len(table))
        mean = counts @ table / n
        means.append(mean)
        stds.append(np.sqrt(counts @ (table - mean) ** 2 / n))
    return np.concatenate(means), np.concatenate(stds)


def _standardized(features: GatheredFeatures, mean, std) -> list[tuple]:
    """Per table: the table standardized, its event rows, its feature columns."""
    cols = np.cumsum([0] + [t.shape[1] for t in features.tables])
    return [((t - mean[c0:c1]) / std[c0:c1], r, slice(c0, c1))
            for t, r, c0, c1 in zip(features.tables, features.rows, cols, cols[1:])]


def _scores(parts, w, b) -> np.ndarray:
    """z @ w + b: per table, its product with its columns of w, gathered."""
    out = np.full(len(parts[0][1]), float(b))
    for z, rows, block in parts:
        out += (z @ w[block])[rows]
    return out


def _newton_step(parts, positive, active, w, b):
    """The step from (w, b) to the Newton point of the active set, from n
    times its normal equations (see the module docstring). With no event
    active only the regularizer is left: its minimizer is w = 0 at any b."""
    d = len(w)
    if not active.any():
        return -w, 0.0
    system, rhs = np.zeros((d + 1, d + 1)), np.zeros(d + 1)
    hits = active & positive
    pair = np.empty(len(active), dtype=np.intp)
    for k, (zk, rk, bk) in enumerate(parts):
        counts = np.bincount(rk, weights=active, minlength=len(zk))
        system[bk, bk] = zk.T @ (counts[:, None] * zk)
        system[bk, d] = system[d, bk] = counts @ zk
        # y summed over each row's active events: +1 on a hit, -1 off it
        rhs[bk] = (2.0 * np.bincount(rk, weights=hits, minlength=len(zk)) - counts) @ zk
        for zl, rl, bl in parts[k + 1:]:
            np.add(np.multiply(rk, len(zl), out=pair), rl, out=pair)
            counts = np.bincount(pair, weights=active, minlength=len(zk) * len(zl))
            system[bk, bl] = zk.T @ (counts.reshape(len(zk), len(zl)) @ zl)
            system[bl, bk] = system[bk, bl].T
    system[d, d] = np.count_nonzero(active)
    rhs[d] = 2.0 * np.count_nonzero(hits) - system[d, d]
    system[np.arange(d), np.arange(d)] += SVM_LAMBDA * len(active)
    solution = np.linalg.solve(system, rhs)
    return solution[:d] - w, solution[d] - b


def _line_search(slack, step, w, dw) -> float:
    """The t >= 0 minimizing the primal at w + t dw, along which each slack
    1 - margin falls by t * step. Its derivative is continuous, non-decreasing
    and linear between kinks where a slack crosses 0: a binary search over the
    kinks ahead finds the piece where it turns non-negative. Only the m
    smallest kinks are sorted and searched, m growing fourfold from 16 until
    the derivative at the m-th is >= 0; they are the first m of all kinks
    sorted, so the piece is the same. On the DAVIS-scale scene a Newton step
    has 10k-29k kinks ahead, and past the first step the root lies among the
    first 831."""
    n = len(slack)
    kinks = np.divide(slack, step, out=np.zeros(n), where=step != 0)
    kinks = kinks[kinks > 0]

    def rising(t):
        return SVM_LAMBDA * (w + t * dw) @ dw - step @ np.maximum(slack - t * step, 0.0) / n >= 0

    # the root's piece ends at the first kink where the derivative is >= 0;
    # it is none of the `passed` smallest
    passed, m = 0, 16
    while m < len(kinks):
        window = np.sort(np.partition(kinks, m - 1)[:m])
        if rising(window[-1]):
            lo = bisect_left(window, True, passed, m - 1, key=rising)
            break
        passed, m = m, 4 * m
    else:
        window = np.sort(kinks)
        lo = bisect_left(window, True, passed, key=rising)
    start = window[lo - 1] if lo else 0.0
    live = slack - (0.5 * (start + window[lo]) if lo < len(window) else start + 1.0) * step > 0
    offset = SVM_LAMBDA * (w @ dw) - step[live] @ slack[live] / n
    rate = SVM_LAMBDA * (dw @ dw) + step[live] @ step[live] / n
    return max(start, -offset / rate) if rate > 0 else start


def train_svm(features: GatheredFeatures | np.ndarray, targets: np.ndarray) -> SvmModel:
    """Exact finite Newton on the squared-hinge primal over features
    standardized with train statistics (see the module docstring). A
    reordered or duplicated training set gives the same model up to rounding."""
    features = _gathered(features)
    targets = np.asarray(targets)
    if len(targets) != len(features):
        raise ShapeError(f"{len(features)} feature rows but {len(targets)} targets")
    if not len(targets) or targets.min() == targets.max():
        raise ProtocolError("training set contains a single class")
    positive = targets == targets.max()  # y = +1, else -1

    mean, std = _column_stats(features)
    std[std == 0.0] = 1.0  # constant dims carry no signal; avoid divide-by-zero
    parts = _standardized(features, mean, std)
    w, b, slack = np.zeros(features.shape[1]), 0.0, np.ones(len(targets))
    active = slack > 0  # slack = 1 - y (z @ w + b), the margin's shortfall
    for iteration in range(1, SVM_MAX_ITERATIONS + 1):
        dw, db = _newton_step(parts, positive, active, w, b)
        step = _scores(parts, dw, db)
        np.negative(step, out=step, where=~positive)  # y times the scores' change
        t = _line_search(slack, step, w, dw)
        w, b = w + t * dw, b + t * db
        slack -= np.multiply(step, t, out=step)
        del step  # not held through the next step's counts
        settled, active = active, slack > 0
        if np.array_equal(active, settled):
            break
    else:
        logger.warning("the SVM reached its cap of %d Newton steps before its active "
                       "set settled", SVM_MAX_ITERATIONS)
    return SvmModel(weights=w, bias=b, mean=mean, std=std,
                    reg_lambda=SVM_LAMBDA, iterations=iteration)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties half
    (rank-based Mann-Whitney form)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ProtocolError("AUC needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    # average ranks: the c tied scores of a run that ends at sorted position e rank e - (c - 1) / 2
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_gap(aucs) -> float:
    """100 * (highest - lowest) / highest over a set of AUC values."""
    values = [a for a in aucs if not math.isnan(a)]
    if not values:
        return float("nan")
    highest = max(values)
    if highest == 0.0:
        return 0.0
    return 100.0 * (highest - min(values)) / highest


def classify_factors(stream: EventStream, tensor: EventTensor, factors: FactorTriple, task: str):
    """Extract features from fitted factors, split, train, score.
    Returns (auc, model, train event count, test event count)."""
    feats = temporal_split(extract_features(stream, tensor, factors))
    # derive the task mapping from the full label set so train and test share it
    mask, y = binary_task(feats.labels, task)
    tr = mask & feats.is_train
    te = mask & ~feats.is_train
    y_tr = y[feats.is_train[mask]]
    y_te = y[~feats.is_train[mask]]
    if len(y_tr) == 0 or len(y_te) == 0:
        raise ProtocolError("task selection emptied a partition")
    model = train_svm(feats.features[tr], y_tr)
    value = auc(model.decision_scores(feats.features[te]), y_te)
    return value, model, len(y_tr), len(y_te)


@dataclass
class SweepCell:
    lambda1: float
    lambda2: float
    auc: float
    converged: bool
    iters: int
    seconds: float
    error: str | None = None


@dataclass
class SweepResult:
    cells: list[SweepCell]

    def aucs(self) -> list[float]:
        return [c.auc for c in self.cells]

    def overall_gap(self) -> float:
        return auc_gap(self.aucs())

    def axis_gaps(self, axis: str) -> list[tuple[float, float]]:
        """Gap per grid line along `axis` ('lambda1' varies lambda1 holding
        lambda2 fixed, and vice versa). Returns (held value, gap) pairs."""
        if axis not in ("lambda1", "lambda2"):
            raise ValueError(f"unknown axis {axis!r}")
        held = "lambda2" if axis == "lambda1" else "lambda1"
        out = []
        for value in sorted({getattr(c, held) for c in self.cells}):
            line = [c.auc for c in self.cells if getattr(c, held) == value]
            if len(line) > 1:
                out.append((value, auc_gap(line)))
        return out


def sweep_lambdas(tensor: EventTensor, stream: EventStream, grid,
                  base_cfg: SolverConfig, task: str = TASK_OBJECTS) -> SweepResult:
    """Run the full pipeline per (lambda1, lambda2) grid point, seeded
    identically. Each point makes one SweepCell; one whose solve or classify
    raised reads auc nan, not converged, 0 iters and the error's text, and the
    sweep goes on. Before any solve, a point SolverConfig refuses raises its
    ValueError, and a stream without labels, or with none that pose `task`,
    raises ProtocolError."""
    configs = [replace(base_cfg, lambda1=lambda1, lambda2=lambda2) for lambda1, lambda2 in grid]
    if not configs:
        raise ValueError("sweep grid is empty")
    if not stream.has_labels:
        raise ProtocolError("a sweep needs a labeled stream")
    binary_task(stream.labels, task)
    cells = []
    for cfg in configs:
        start = time.perf_counter()
        value, converged, iters, error = float("nan"), False, 0, None
        try:
            factors, state = solve(tensor, cfg)
            value = classify_factors(stream, tensor, factors, task)[0]
            converged, iters = state.converged, state.s
        except Exception as exc:  # record and continue; sweeps must not abort
            logger.warning("sweep cell (%g, %g) failed: %s", cfg.lambda1, cfg.lambda2, exc)
            error = str(exc)
        cells.append(SweepCell(cfg.lambda1, cfg.lambda2, auc=value, converged=converged,
                               iters=iters, seconds=time.perf_counter() - start, error=error))
    return SweepResult(cells=cells)


def write_results_csv(result: SweepResult, path_or_fh) -> None:
    """Results CSV: one row per grid cell plus gap summary comment lines."""
    with open_text(path_or_fh, "w") as fh:
        fh.write("lambda1,lambda2,auc,converged,iters,seconds\n")
        for c in result.cells:
            fh.write("%.17g,%.17g,%.17g,%s,%d,%.3f\n"
                     % (c.lambda1, c.lambda2, c.auc, str(c.converged).lower(), c.iters, c.seconds))
        fh.write("# overall_gap_percent: %.6g\n" % result.overall_gap())
        for axis, held in (("lambda1", "lambda2"), ("lambda2", "lambda1")):
            for value, gap in result.axis_gaps(axis):
                fh.write("# gap_percent_varying_%s[%s=%.17g]: %.6g\n" % (axis, held, value, gap))


def save_model(model: SvmModel, path_or_fh) -> None:
    """Plain-text model file: weights, bias, standardization vectors."""
    with open_text(path_or_fh, "w") as fh:
        fh.write("weights " + " ".join("%.17g" % v for v in model.weights) + "\n")
        fh.write("bias %.17g\n" % model.bias)
        fh.write("mean " + " ".join("%.17g" % v for v in model.mean) + "\n")
        fh.write("std " + " ".join("%.17g" % v for v in model.std) + "\n")
        fh.write("reg_lambda %.17g\n" % model.reg_lambda)
        fh.write("iterations %d\n" % model.iterations)
