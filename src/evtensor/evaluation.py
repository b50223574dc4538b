"""Classification-based evaluation of learned factors.

Each labeled event at coordinates (i, j, n) gets a feature vector by
concatenating the vectorized latent slices of the three factors at its
coordinates -- row i of the matricized g_i, row j of the matricized g_j,
row n of the matricized g_n -- length 3*f^2 total. Frames are split
temporally (first 60% train, rest test), a linear SVM is trained on
standardized features, and ranking quality is scored with AUC.
`classify_factors` is that post-solve step; the CLI's classify command and
the regularization sweep both call it.

Features are kept in gathered form (`GatheredFeatures`): the three
matricized factor tables plus each event's row index into each table, so the
(M, 3*f^2) matrix is never built. A DAVIS-scale scene has ~35k training
events but only I + J + N = 706 distinct table rows. Each of the SVM's
full-batch epochs then costs O(3*n + (I+J+N)*d) instead of O(n*d):

- margins: ``Zt @ w``, gathered at the three row indices and summed, where
  ``Zt`` is the standardized tables stacked block-diagonally,
  (I+J+N) x 3*f^2;
- gradient: the per-row ``np.bincount`` of the violators' signed targets,
  times ``Zt``.

A dense ndarray input, and gathered input whose mean block width
3*f^2 / 3 is at most `DENSE_MAX_BLOCK_WIDTH`, take the dense loop (two GEMVs
over the (n, d) matrix per epoch) instead: for narrow blocks the gathers and
bincounts cost more than the GEMVs they replace. Per-epoch times on the
DAVIS-scale noise task's train split (n = 34,777, random factors, 2-vCPU
host, two runs each), dense against gathered: f = 1 0.19-0.32 against
0.66-0.73 ms, f = 2 0.50-0.56 against 0.59-0.64 ms, f = 3 0.90-1.03 against
0.62-0.65 ms, f = 6 2.20-2.28 against 0.62-0.65 ms. The crossover lies
between f = 2 and f = 3.

The regularization sweep reruns the whole pipeline per (lambda1, lambda2)
grid point and summarizes sensitivity with the AUC gap,
100 * (highest - lowest) / highest.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ProtocolError, ShapeError
from .events import NOISE_LABEL, EventStream, EventTensor, event_frames, open_text
from .solver import SolverConfig, solve
from .tensor_ops import FactorTriple, matricize_factor

logger = logging.getLogger(__name__)

TASK_OBJECTS = "objects"
TASK_NOISE = "noise"


DENSE_MAX_BLOCK_WIDTH = 4  # f <= 2; see the module docstring for the measured crossover


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

    @property
    def train(self) -> tuple[GatheredFeatures | np.ndarray, np.ndarray]:
        if self.is_train is None:
            raise ProtocolError("temporal_split has not been applied")
        return self.features[self.is_train], self.labels[self.is_train]

    @property
    def test(self) -> tuple[GatheredFeatures | np.ndarray, np.ndarray]:
        if self.is_train is None:
            raise ProtocolError("temporal_split has not been applied")
        return self.features[~self.is_train], self.labels[~self.is_train]


def extract_features(stream: EventStream, tensor: EventTensor,
                     factors: FactorTriple) -> FeatureMatrix:
    """One row per labeled event: [g_i slice at i | g_j slice at j | g_n slice
    at n], each slice vectorized with the shared latent-pair flattening.
    The rows are kept in gathered form (see `GatheredFeatures`)."""
    if not stream.has_labels:
        raise ProtocolError("feature extraction requires a labeled stream")
    frames = event_frames(stream, tensor, factors.dims)
    tables = [matricize_factor(factors.g_i, "i"), matricize_factor(factors.g_j, "j"),
              matricize_factor(factors.g_n, "n")]
    return FeatureMatrix(
        features=GatheredFeatures(tables, [stream.i, stream.j, frames]),
        labels=stream.labels.copy(),
        frames=frames,
        n_frames=factors.dims[2],
    )


def temporal_split(features: FeatureMatrix, train_fraction: float = 0.6) -> FeatureMatrix:
    """Tag events in frames 0 .. ceil(train_fraction * N) - 1 as train, the
    rest as test. Label-blind by construction: assignment depends only on the
    frame index."""
    cutoff = math.ceil(train_fraction * features.n_frames)
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
    positives are signal (label >= 0), negatives noise.
    Returns (row mask, 0/1 targets for the masked rows).
    """
    if task == TASK_NOISE:
        mask = np.ones(len(labels), dtype=bool)
        return mask, (labels >= 0).astype(np.int64)
    if task == TASK_OBJECTS:
        mask = labels != NOISE_LABEL
        classes = np.unique(labels[mask])
        if len(classes) != 2:
            raise ProtocolError(
                f"object task needs exactly two object classes, found {classes.tolist()}"
            )
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
    epochs: int

    def decision_scores(self, features: GatheredFeatures | np.ndarray) -> np.ndarray:
        """Raw signed margins (AUC is rank-based; no calibration)."""
        features = _dense_unless_wide(features)
        if features.shape[-1] != len(self.weights):
            raise ShapeError(f"features have {features.shape[-1]} columns, "
                             f"the model has {len(self.weights)} weights")
        matvec, _ = _standardized_products(features, self.mean, self.std)
        return matvec(self.weights) + self.bias


def _dense_unless_wide(features):
    """Gathered features whose mean block width exceeds DENSE_MAX_BLOCK_WIDTH
    stay gathered; everything else becomes a dense ndarray."""
    if (isinstance(features, GatheredFeatures)
            and features.shape[1] > DENSE_MAX_BLOCK_WIDTH * len(features.tables)):
        return features
    return np.asarray(features)


def _standardized_products(features, mean, std):
    """(w -> z @ w, v -> v @ z) for z = (features - mean) / std.

    Dense features build z; gathered ones standardize only their tables,
    stacked block-diagonally into zt, so z = A @ zt for the (n, rows of zt)
    0/1 matrix A with one 1 per block in each row.
    """
    if not isinstance(features, GatheredFeatures):
        z = features - mean
        z /= std
        return (lambda w: z @ w), (lambda v: v @ z)
    starts = np.cumsum([0] + [len(t) for t in features.tables])
    cols = np.cumsum([0] + [t.shape[1] for t in features.tables])
    zt = np.zeros((starts[-1], cols[-1]))
    for table, r0, c0, c1 in zip(features.tables, starts, cols, cols[1:]):
        zt[r0:r0 + len(table), c0:c1] = (table - mean[c0:c1]) / std[c0:c1]
    index = [r + r0 for r, r0 in zip(features.rows, starts)]

    def matvec(w):
        s = zt @ w
        out = s[index[0]]
        for rows in index[1:]:
            out += s[rows]
        return out

    def rmatvec(v):
        return np.concatenate([np.bincount(r, weights=v, minlength=len(t))
                               for t, r in zip(features.tables, features.rows)]) @ zt

    return matvec, rmatvec


def _column_stats(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std over the rows; the gathered form takes them one
    table block at a time, which matches the dense matrix's bit for bit."""
    if not isinstance(features, GatheredFeatures):
        return features.mean(axis=0), features.std(axis=0)
    blocks = (t[r] for t, r in zip(features.tables, features.rows))
    means, stds = zip(*[(b.mean(axis=0), b.std(axis=0)) for b in blocks])
    return np.concatenate(means), np.concatenate(stds)


def train_svm(features: GatheredFeatures | np.ndarray, targets: np.ndarray,
              reg_lambda: float = 1e-3, epochs: int = 500) -> SvmModel:
    """Deterministic full-batch subgradient descent on the L2-regularized
    hinge loss. Features are standardized per dimension with train statistics;
    the bias is left unregularized. Full-batch updates mean a duplicated
    training set yields the identical model.
    """
    features = _dense_unless_wide(features)
    targets = np.asarray(targets)
    if len(targets) != len(features):
        raise ShapeError(f"{len(features)} feature rows but {len(targets)} targets")
    classes = np.unique(targets)
    if len(classes) < 2:
        raise ProtocolError("training set contains a single class")
    y = np.where(targets == classes.max(), 1.0, -1.0)

    mean, std = _column_stats(features)
    std[std == 0.0] = 1.0  # constant dims carry no signal; avoid divide-by-zero
    matvec, rmatvec = _standardized_products(features, mean, std)

    n, d = features.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(1, epochs + 1):
        lr = 1.0 / (reg_lambda * (t + 1))
        margins = y * (matvec(w) + b)
        # hinge subgradient: margin violators only. As y is +-1 this is
        # np.where(margins < 1.0, y, 0.0) at a fifth of the cost; its -0.0
        # entries leave every sum below, and so w and b, bit-identical
        yv = y * (margins < 1.0)
        grad_w = reg_lambda * w - rmatvec(yv) / n
        grad_b = -yv.sum() / n
        w = w - lr * grad_w
        b = b - lr * grad_b
    return SvmModel(weights=w, bias=b, mean=mean, std=std,
                    reg_lambda=reg_lambda, epochs=epochs)


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
    # average ranks: each run of tied sorted scores at positions [start, end)
    # shares the rank (start + 1 + end) / 2
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
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


def classify_factors(stream: EventStream, tensor: EventTensor, factors: FactorTriple,
                     task: str = TASK_OBJECTS, train_fraction: float = 0.6,
                     svm_lambda: float = 1e-3, svm_epochs: int = 500):
    """Extract features from fitted factors, split, train, score.
    Returns (auc, model, train event count, test event count)."""
    feats = temporal_split(extract_features(stream, tensor, factors), train_fraction)
    # derive the task mapping from the full label set so train and test share it
    mask, y = binary_task(feats.labels, task)
    tr = mask & feats.is_train
    te = mask & ~feats.is_train
    y_tr = y[feats.is_train[mask]]
    y_te = y[~feats.is_train[mask]]
    if len(y_tr) == 0 or len(y_te) == 0:
        raise ProtocolError("task selection emptied a partition")
    model = train_svm(feats.features[tr], y_tr, reg_lambda=svm_lambda, epochs=svm_epochs)
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
    identically; per-cell failures are recorded without aborting the sweep."""
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid is empty")
    cells = []
    for lambda1, lambda2 in grid:
        start = time.perf_counter()
        try:
            factors, state = solve(tensor, replace(base_cfg, lambda1=lambda1, lambda2=lambda2))
            value = classify_factors(stream, tensor, factors, task)[0]
            cells.append(SweepCell(
                lambda1=lambda1, lambda2=lambda2, auc=value,
                converged=state.converged, iters=state.s,
                seconds=time.perf_counter() - start,
            ))
        except Exception as exc:  # record and continue; sweeps must not abort
            logger.warning("sweep cell (%g, %g) failed: %s", lambda1, lambda2, exc)
            cells.append(SweepCell(
                lambda1=lambda1, lambda2=lambda2, auc=float("nan"),
                converged=False, iters=0,
                seconds=time.perf_counter() - start, error=str(exc),
            ))
    return SweepResult(cells=cells)


def write_results_csv(result: SweepResult, path_or_fh) -> None:
    """Results CSV: one row per grid cell plus gap summary comment lines."""
    with open_text(path_or_fh, "w") as fh:
        fh.write("lambda1,lambda2,auc,converged,iters,seconds\n")
        for c in result.cells:
            fh.write("%g,%g,%.17g,%s,%d,%.3f\n"
                     % (c.lambda1, c.lambda2, c.auc, str(c.converged).lower(), c.iters, c.seconds))
        fh.write("# overall_gap_percent: %.6g\n" % result.overall_gap())
        for axis in ("lambda1", "lambda2"):
            held = "lambda2" if axis == "lambda1" else "lambda1"
            for value, gap in result.axis_gaps(axis):
                fh.write("# gap_percent_varying_%s[%s=%g]: %.6g\n" % (axis, held, value, gap))


def save_model(model: SvmModel, path_or_fh) -> None:
    """Plain-text model file: weights, bias, standardization vectors."""
    with open_text(path_or_fh, "w") as fh:
        fh.write("weights " + " ".join("%.17g" % v for v in model.weights) + "\n")
        fh.write("bias %.17g\n" % model.bias)
        fh.write("mean " + " ".join("%.17g" % v for v in model.mean) + "\n")
        fh.write("std " + " ".join("%.17g" % v for v in model.std) + "\n")
        fh.write("reg_lambda %.17g\n" % model.reg_lambda)
        fh.write("epochs %d\n" % model.epochs)


def load_model(path_or_fh) -> SvmModel:
    """Read a `save_model` file. A missing or empty field raises ValueError
    naming it; weights, mean and std of unequal lengths raise ShapeError."""
    fields = {}
    with open_text(path_or_fh) as fh:
        for line in fh:
            name, _, rest = line.partition(" ")
            fields[name] = rest.split()

    def field(name):
        if not fields.get(name):
            raise ValueError(f"model file has no {name!r} field")
        return fields[name]

    model = SvmModel(
        weights=np.array(field("weights"), dtype=np.float64),
        bias=float(field("bias")[0]),
        mean=np.array(field("mean"), dtype=np.float64),
        std=np.array(field("std"), dtype=np.float64),
        reg_lambda=float(field("reg_lambda")[0]),
        epochs=int(field("epochs")[0]),
    )
    if not len(model.weights) == len(model.mean) == len(model.std):
        raise ShapeError(f"model file has {len(model.weights)} weights, {len(model.mean)} "
                         f"means and {len(model.std)} stds")
    return model
