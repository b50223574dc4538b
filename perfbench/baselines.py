"""Trivial reference filters that give the quality numbers a scale.

The neighbour-count filter is the spatiotemporal background-activity idea:
an event is kept when at least one other cell of the binary tensor is active
in its 3x3x3 neighbourhood. It is computed here in numpy, independently of
evtensor.
"""

from __future__ import annotations

import numpy as np


def neighbour_counts(data: np.ndarray) -> np.ndarray:
    """Active cells in each cell's 3x3x3 neighbourhood, the cell itself excluded."""
    binary = (np.asarray(data) != 0).astype(np.uint8)
    padded = np.pad(binary, 1)
    ii, jj, nn = binary.shape
    counts = np.zeros(binary.shape, dtype=np.uint8)
    for di in range(3):
        for dj in range(3):
            for dn in range(3):
                counts += padded[di:di + ii, dj:dj + jj, dn:dn + nn]
    return counts - binary


def signal_f1(kept: np.ndarray, signal: np.ndarray) -> float:
    """F1 of keeping signal events: precision over kept, recall over signal."""
    kept_signal = int(np.count_nonzero(kept & signal))
    n_kept, n_signal = int(np.count_nonzero(kept)), int(np.count_nonzero(signal))
    if not kept_signal:
        return 0.0
    precision, recall = kept_signal / n_kept, kept_signal / n_signal
    return 2 * precision * recall / (precision + recall)


def neighbour_filter(data: np.ndarray, i, j, n, signal) -> dict[str, float]:
    """F1 of the neighbour-count filter, and the precision of keeping every event."""
    kept = neighbour_counts(data)[i, j, n] >= 1
    return {
        "baseline.neighbour.denoise_f1": signal_f1(kept, signal),
        "baseline.keep_all.precision": float(np.mean(signal)),
    }
