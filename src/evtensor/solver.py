"""Proximal alternating solver for the elastic-net regularized 3-factor network.

Fits a factor triple to a binary event tensor E by relaxing the completion
objective through a target tensor X (initialized to E) and alternating four
block updates per sweep, each a strongly convex subproblem anchored to the
previous iterate:

  1..3. For each mode m in (i, j, n), with H_m the partial contraction of the
        other two (freshest) factors and X_m the mode-m unfolding of X (both
        laid out as in tensor_ops), the matricized factor solves the SPD system

            G_m (H_m H_m^T + lambda2 Id) = X_m H_m^T + lambda2 G_m_old + lambda1 Q

        where Q is the rectangular quasi-identity (ones exactly where row
        index == column index). The lambda1 term is applied literally as
        stated -- no soft-thresholding.

  4.    X blends the reconstruction with its own previous value:
        X_new = (reconstruction + lambda2 * X_old) / (1 + lambda2).

The latent rank starts at max(1, f_max - 5) and grows by one (up to f_max)
whenever the relative change of X drops below `grow_tol`; the run converges
when it drops below `conv_tol`. An iteration that grew the rank skips the
convergence check (the same small relative change would otherwise terminate
the run at low rank), except when the rank is already capped.

Per sweep at rank f, no unfolding of X and no H_m is formed: H_m H_m^T comes
from per-factor Grams (tensor_ops.pair_gram, O((I+J+N) f^4 + f^6)) and X_m
H_m^T from X's own layout (tensor_ops.pair_rhs). A sweep makes three
I*J*N*f^2 products:

  - the mode-i right-hand side, one batched matmul of g_j against X;
  - V = g_i^T X (tensor_ops.gi_x_product), taken once after the mode-i update
    and shared by modes j and n, which finish from it in O(J*N*f^3) each
    (g_i does not change between those two updates);
  - the reconstruction R, written into one recycled full-size buffer.

That buffer is the previous sweep's X_old, so after the first sweep a solve
allocates no full-size array. R is turned in place into
D = X_new - X_old = (R - X_old) / (1 + lambda2), whose norm is the step
||X_new - X_old||, and adding X_old back makes it X_new; with ||X_old|| that is
five more full-size passes. The X step and the stop check thus share the reconstruction's buffer,
and the live X is never written. Since X_new - R = lambda2 (X_old - X_new),
the trace objective 0.5 ||X_new - R||^2 is 0.5 (lambda2 ||X_new - X_old||)^2.

The package imports no SciPy at all, so the linear algebra is numpy's only
and one OpenBLAS thread pool does it all: SciPy's linalg loads a second
OpenBLAS, and on a 2-core host the two pools contend enough to make a
reference-scale factor solve about 10x slower.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .events import EventTensor, open_text
from .tensor_ops import (
    FactorTriple,
    f3tn_contract,
    frob_norm,
    gi_x_product,
    matricize_factor,
    pair_gram,
    pair_rhs,
    unmatricize_factor,
)

logger = logging.getLogger(__name__)

GROW_NOISE_FACTOR = 0.01  # rank-expansion fill magnitude relative to init_scale


@dataclass(frozen=True)
class SolverConfig:
    f_max: int = 6
    lambda1: float = 0.1
    lambda2: float = 0.1
    s_max: int = 1000
    grow_tol: float = 1e-2
    conv_tol: float = 1e-3
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        # NaN passes every comparison below and inf the sign checks
        for name in ("lambda1", "lambda2", "grow_tol", "conv_tol", "init_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.f_max < 1:
            raise ValueError("f_max must be >= 1")
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be >= 0")
        if self.lambda2 <= 0:
            raise ValueError("lambda2 must be > 0")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.grow_tol <= 0 or self.conv_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.grow_tol <= self.conv_tol:
            raise ValueError("grow_tol must exceed conv_tol")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be > 0")


@dataclass
class TraceRecord:
    """One sweep of the solve loop. `f` is the rank in effect during the sweep;
    `grew` marks sweeps whose ending triggered a rank expansion."""

    s: int
    f: int
    objective: float
    rel_change: float
    max_residual: float = 0.0
    grew: bool = False


@dataclass
class SolverState:
    x: np.ndarray
    factors: FactorTriple
    s: int
    rng: np.random.Generator
    trace: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def f(self) -> int:
        return self.factors.rank


def _random_factors(rng, dims, f, scale) -> FactorTriple:
    ii, jj, nn = dims
    return FactorTriple(
        g_i=rng.uniform(0.0, scale, size=(ii, f, f)),
        g_j=rng.uniform(0.0, scale, size=(f, jj, f)),
        g_n=rng.uniform(0.0, scale, size=(f, f, nn)),
    )


def init_state(e, cfg: SolverConfig) -> SolverState:
    """X starts as a float64 copy of E; rank starts at max(1, f_max - 5);
    factors are filled i.i.d. uniform on [0, init_scale] from the seeded
    generator."""
    data = e.data if isinstance(e, EventTensor) else e
    x = np.array(data, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("expected a 3rd-order tensor")
    f0 = max(1, cfg.f_max - 5)
    rng = np.random.default_rng(cfg.seed)
    factors = _random_factors(rng, x.shape, f0, cfg.init_scale)
    return SolverState(x=x, factors=factors, s=0, rng=rng)


def update_factor(state: SolverState, mode: str, cfg: SolverConfig,
                  gi_x: np.ndarray | None = None) -> tuple[FactorTriple, float]:
    """Solve the mode-m subproblem; returns the updated triple and the solve
    residual ||G A - rhs||_F / (1 + ||rhs||_F). Modes j and n reuse `gi_x`,
    tensor_ops.gi_x_product of state.x and the current g_i, when given."""
    factors = state.factors
    f = factors.rank
    g_old = matricize_factor(factors.factor(mode), mode)

    a = pair_gram(factors, mode)
    a[np.diag_indices_from(a)] += cfg.lambda2
    rhs = pair_rhs(state.x, factors, mode, gi_x) + cfg.lambda2 * g_old
    if cfg.lambda1 != 0.0:
        # lambda1 Q, with Q the rectangular quasi-identity (ones where row == column)
        rhs[np.diag_indices(min(rhs.shape))] += cfg.lambda1
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(rhs)):
        raise NumericalError(state.s, f"non-finite values entering the mode-{mode} solve")

    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # lambda2 > 0 makes A positive definite in exact arithmetic; a one-shot
        # diagonal jitter guards roundoff
        jitter = 1e-12 * np.trace(a) / (f * f)
        a[np.diag_indices_from(a)] += jitter
        logger.warning("mode-%s factorization failed at s=%d, retrying with jitter %g",
                       mode, state.s, jitter)
        low = np.linalg.cholesky(a)
    # A = L L^T and A is symmetric, so G A = rhs is L L^T G^T = rhs^T
    g_new = np.linalg.solve(low.T, np.linalg.solve(low, rhs.T)).T

    residual = frob_norm(g_new @ a - rhs) / (1.0 + frob_norm(rhs))
    updated = replace(factors, **{f"g_{mode}": unmatricize_factor(g_new, mode, f)})
    return updated, residual


def update_x(state: SolverState, cfg: SolverConfig,
             out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """X_new = (R + lambda2 X_old) / (1 + lambda2) and the step
    ||X_new - X_old||. The reconstruction R is written into `out` (a fresh
    array when None), which becomes X_new - X_old, then X_new; state.x is not
    written, so `out` must not share its memory."""
    if out is not None and np.shares_memory(out, state.x):
        raise ValueError("update_x cannot write X_new into the memory of X_old")
    x_new = f3tn_contract(state.factors, out=out)
    x_new -= state.x
    x_new /= 1.0 + cfg.lambda2
    step = frob_norm(x_new)
    x_new += state.x
    return x_new, step


def grow_rank(state: SolverState, cfg: SolverConfig) -> SolverState:
    """Expand each factor by one slice along both latent axes (f <- min(f+1,
    f_max)); old entries are preserved, new ones filled with tiny seeded noise
    so the added directions are not stationary. No-op at the rank cap."""
    f = state.f
    if f >= cfg.f_max:
        return state
    scale = cfg.init_scale * GROW_NOISE_FACTOR
    ii, jj, nn = state.factors.dims
    g = f + 1
    g_i = state.rng.uniform(0.0, scale, size=(ii, g, g))
    g_j = state.rng.uniform(0.0, scale, size=(g, jj, g))
    g_n = state.rng.uniform(0.0, scale, size=(g, g, nn))
    g_i[:, :f, :f] = state.factors.g_i
    g_j[:f, :, :f] = state.factors.g_j
    g_n[:f, :f, :] = state.factors.g_n
    state.factors = FactorTriple(g_i=g_i, g_j=g_j, g_n=g_n)
    return state


def solve(e, cfg: SolverConfig | None = None) -> tuple[FactorTriple, SolverState]:
    """Run the full alternating schedule on an event tensor (or raw 3rd-order
    array). Returns the final factors and the state carrying the sweep trace;
    a run that exhausts s_max returns normally with `converged=False`."""
    cfg = cfg or SolverConfig()
    state = init_state(e, cfg)
    spare = None  # the previous sweep's X_old, the buffer of the next R
    while state.s < cfg.s_max:
        state.factors, res_i = update_factor(state, "i", cfg)
        # modes j and n both contract X with the fresh g_i: one product for both
        gi_x = gi_x_product(state.x, state.factors.g_i)
        state.factors, res_j = update_factor(state, "j", cfg, gi_x)
        state.factors, res_n = update_factor(state, "n", cfg, gi_x)
        del gi_x  # free before the X update's buffers
        max_residual = max(0.0, res_i, res_j, res_n)
        x_old_norm = frob_norm(state.x)
        x_new, delta = update_x(state, cfg, out=spare)
        rel_change = delta / x_old_norm if x_old_norm > 0 else delta
        spare, state.x = state.x, x_new

        grew = rel_change < cfg.grow_tol and state.f < cfg.f_max
        # X_new - R = lambda2 * (X_old - X_new), so no second contraction
        obj = 0.5 * (cfg.lambda2 * delta) ** 2
        state.trace.append(TraceRecord(s=state.s, f=state.f, objective=obj, rel_change=rel_change,
                                       max_residual=max_residual, grew=grew))
        if grew:
            grow_rank(state, cfg)
            logger.debug("s=%d rank grown to %d (rel_change=%.3e)", state.s, state.f, rel_change)
        elif rel_change < cfg.conv_tol:
            state.converged = True
            state.s += 1
            break
        state.s += 1
    if not state.converged:
        logger.info("stopped at s_max=%d without convergence (last rel_change=%.3e)",
                    cfg.s_max, state.trace[-1].rel_change if state.trace else float("nan"))
    return state.factors, state


# ---------------------------------------------------------------------------
# artifact I/O


def save_checkpoint(factors: FactorTriple, path_or_fh) -> None:
    """Text checkpoint: header ``I J N f``, then the three matricized factors
    (one row per line, 17 significant digits -- exact float64 round-trip)."""
    ii, jj, nn = factors.dims
    with open_text(path_or_fh, "w") as fh:
        fh.write(f"{ii} {jj} {nn} {factors.rank}\n")
        for mode in ("i", "j", "n"):
            np.savetxt(fh, matricize_factor(factors.factor(mode), mode), fmt="%.17g")


def load_checkpoint(path_or_fh) -> FactorTriple:
    """Inverse of :func:`save_checkpoint`. A missing or short row raises
    ValueError naming its line and the row count the header promises."""
    with open_text(path_or_fh) as fh:
        ii, jj, nn, f = (int(v) for v in fh.readline().split())
        rows = [fh.readline().split() for _ in range(ii + jj + nn)]
    for k, row in enumerate(rows):
        if len(row) != f * f:
            raise ValueError(f"checkpoint line {k + 2} holds {len(row)} of {f * f} values; "
                             f"the header promises {len(rows)} factor rows")
    mat = np.array(rows, dtype=np.float64)
    return FactorTriple(
        g_i=unmatricize_factor(mat[:ii], "i", f),
        g_j=unmatricize_factor(mat[ii:ii + jj], "j", f),
        g_n=unmatricize_factor(mat[ii + jj:], "n", f),
    )


def write_trace_csv(state: SolverState, path_or_fh, metadata: dict | None = None) -> None:
    """Trace export: ``s,f,objective,rel_change`` rows, preceded by optional
    ``# key: value`` comment headers."""
    with open_text(path_or_fh, "w") as fh:
        for key in sorted(metadata or {}):
            fh.write(f"# {key}: {metadata[key]}\n")
        fh.write("s,f,objective,rel_change\n")
        for rec in state.trace:
            fh.write("%d,%d,%.17g,%.17g\n" % (rec.s, rec.f, rec.objective, rec.rel_change))
