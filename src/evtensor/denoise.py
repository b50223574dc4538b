"""Reconstruction-threshold event denoising.

Coherent trajectories are well captured by a low-rank factor triple while
isolated background noise is not, so the reconstruction value at an event's
own (i, j, n) cell ranks signal above noise. Scoring evaluates single
entries straight from the factors (no full-tensor materialization); events
scoring below a threshold -- user-supplied or a quantile of the score
distribution -- are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .events import NOISE_LABEL, EventStream, EventTensor, event_frames, write_rows
from .tensor_ops import FactorTriple, cell_values

DEFAULT_QUANTILE = 0.2  # drop the lowest-scoring 20% by default


def score_events(stream: EventStream, tensor: EventTensor,
                 factors: FactorTriple) -> np.ndarray:
    """Reconstruction value at each event's cell.

    For an event at (i, j, n) the score is the reconstruction's entry there,
    sum over (x, y, z) of g_i[i, x, y] * g_j[x, j, z] * g_n[y, z, n], read
    by tensor_ops.cell_values, which holds a few event-sized vectors beside
    one or two blocks of table rows.
    """
    return cell_values(factors, stream.i, stream.j, event_frames(stream, tensor, factors.dims))


@dataclass
class DenoiseReport:
    """A threshold's scores, kept mask and signal retention; none kept is n_kept == 0."""

    threshold: float
    scores: np.ndarray
    kept: np.ndarray               # boolean mask over the stream's events
    precision: float | None = None  # of kept events being signal (labels only)
    recall: float | None = None     # of signal events being kept
    f1: float | None = None

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())

    def summary(self) -> str:
        lines = [
            f"threshold: {self.threshold:.6g}",
            f"kept: {self.n_kept} / {len(self.kept)} events",
        ]
        if self.precision is not None:
            lines.append(f"signal precision: {self.precision:.4f}")
            lines.append(f"signal recall: {self.recall:.4f}")
            lines.append(f"signal F1: {self.f1:.4f}")
        if not self.n_kept:
            lines.append("warning: threshold removed every event")
        return "\n".join(lines)


def filter_events(stream: EventStream, scores: np.ndarray,
                  threshold: float) -> tuple[EventStream | None, DenoiseReport]:
    """Keep events with score >= threshold.

    When the stream is labeled, the report carries precision/recall/F1 of
    signal retention (object labels positive, noise negative). An empty kept
    set reports precision 0 and returns None for the filtered stream.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != stream.t.shape:
        raise ConsistencyError("scores are not aligned with the event stream")
    kept = scores >= threshold
    report = DenoiseReport(threshold=float(threshold), scores=scores, kept=kept)

    if stream.has_labels:
        signal = stream.labels != NOISE_LABEL
        n_signal = int(signal.sum())
        kept_signal = int((kept & signal).sum())
        report.precision = kept_signal / report.n_kept if report.n_kept else 0.0
        report.recall = kept_signal / n_signal if n_signal else 0.0
        denom = report.precision + report.recall
        report.f1 = 2 * report.precision * report.recall / denom if denom else 0.0

    if not report.n_kept:
        return None, report

    filtered = EventStream(
        i=stream.i[kept], j=stream.j[kept], t=stream.t[kept],
        geometry=stream.geometry,
        labels=stream.labels[kept] if stream.has_labels else None,
        t_min=stream.t_min, t_max=stream.t_max,
    )
    return filtered, report


def quantile_threshold(scores: np.ndarray, quantile: float = DEFAULT_QUANTILE) -> float:
    """Score value at the given quantile (default keeps the top 80%), as
    ``np.quantile``'s linear rule gives it bit for bit, without the numpy.ma
    import that np.quantile makes: h = (n - 1) q falls between the sorted
    scores a and b at floor(h) and the next (both the largest when h reaches
    n - 1, from index -1 as numpy's), weighted by g = h - floor(h); any NaN
    gives NaN."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        return float("nan")
    h = (len(scores) - 1) * quantile
    below = math.floor(h) if h < len(scores) - 1 else -1
    above = below + 1 if below >= 0 else -1
    # partitioned at np.quantile's own indices, so that of tied -0.0 and 0.0
    # the one numpy reads lands at each
    a, b = np.partition(scores, sorted({0, -1, below, above}))[[below, above]]
    g = h - below
    return float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))


def write_report_csv(stream: EventStream, report: DenoiseReport, path_or_fh) -> None:
    """Per-event report rows: t,i,j[,label],score,kept, the score as
    ``%.17g`` and the rest as ``%d``, written by :func:`events.write_rows`.
    A report whose scores or kept mask do not align with the stream raises
    ConsistencyError before anything is written."""
    if len(report.scores) != len(stream) or len(report.kept) != len(stream):
        raise ConsistencyError("the report is not aligned with the event stream")
    labels = (stream.labels,) if stream.has_labels else ()
    write_rows(path_or_fh, "t,i,j,label,score,kept\n" if labels else "t,i,j,score,kept\n",
               (stream.t, stream.i, stream.j, *labels,
                np.asarray(report.scores, dtype=np.float64), np.asarray(report.kept, dtype=bool)))
