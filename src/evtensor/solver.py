"""Proximal alternating solver for the elastic-net regularized 3-factor network.

Fits a factor triple to a binary event tensor E, the EventTensor of
events.bin_to_tensor and the solver's only input, by relaxing the completion
objective through a target tensor X (initialized to E) and alternating four
block updates per sweep, each a strongly convex subproblem anchored to the
previous iterate:

  1..3. For each mode m in (i, j, n), with H_m the partial contraction of the
        other two (freshest) factors and X_m the mode-m unfolding of X (both
        laid out as in tensor_ops), the matricized factor solves the SPD system

            G_m (H_m H_m^T + lambda2 Id) = X_m H_m^T + lambda2 G_m_old + lambda1 Q

        where Q is the rectangular quasi-identity (ones exactly where row
        index == column index). The lambda1 term is applied literally as
        stated -- no soft-thresholding. A is symmetric, so G_m comes from one
        LU solve of A G_m^T = rhs^T: numpy has no triangular solve, so a
        Cholesky factor would cost two more general solves, not fewer.

  4.    X blends the reconstruction R_s of the sweep's factors F_s with its
        own previous value: X_{s+1} = alpha R_s + beta X_s, with
        alpha = 1 / (1 + lambda2) and beta = lambda2 / (1 + lambda2).

The latent rank starts at max(1, f_max - 5) and grows by one (up to f_max)
whenever the relative change of X drops below `grow_tol`; the run converges
when it drops below `conv_tol`. An iteration that grew the rank skips the
convergence check (the same small relative change would otherwise terminate
the run at low rank), except when the rank is already capped. The factors
start i.i.d. uniform on [0, `init_scale`]. These three are class constants of
SolverConfig (grow_tol = 1e-2, conv_tol = 1e-3, init_scale = 0.1), not
fields: the model is set by its rank and its two weights, and the stop
thresholds and the initial scale are a fixed protocol.

X is never formed. Unrolling step 4 from X_0 = E gives it exactly as

    X_s = beta^s E + sum_{k<s} alpha beta^(s-1-k) R(F_k),

so a RelaxedTarget holds E's nonzeros with weight beta^s and a stack of the
past factor triples with their weights, zero-padded to the current rank
(padding leaves R(F_k) unchanged). A term leaves once its weight falls below
2^-53 alpha, and E once beta^s < 2^-53: each is then below the rounding unit
of the newest term, so the answers stay within roundoff. At lambda2 = 0.1
(beta = 1/11) that is at most 16 terms, and E leaves after 16 sweeps. At
large lambda2 the memory is long: 26 terms at lambda2 = 0.3, 54 at 1, 128 at
3. There is no dense fallback: the CLI default and every benchmark workload
use lambda2 = 0.1.

A sweep is one loop over the modes. For each mode it forms, for the current
factors, X_m H_m^T (RelaxedTarget.product) and H_m H_m^T (tensor_ops.pair_gram,
from per-factor Grams) and hands both to update_factor. With K history terms
at rank f, X_m H_m^T is the sum of
  - E's part (tensor_ops.coo_rhs): the mode's whole pair table, O(f^3) per
    column of J*N, I*N or I*J, built a block of rows at a time, each block
    gathered at the nonzeros and segment-summed by row, O(nnz f^2), in the
    mode's sort plan (tensor_ops.CooPlan), the three made once per solve;
  - the history's part (tensor_ops.history_rhs): sum_k w_k G_m^k H_m^k H_m^T
    from batched cross-Grams, O(K (I+J+N) f^4 + K f^6),
so a sweep costs about K (I+J+N) f^4 + three pair tables + nnz f^2. It holds
no (I, J, N) array, no pair table and no (f^2, nnz) array: E is its sort
plans, and the largest transient is one block of table rows with its gather
and the matmul behind it, at most tensor_ops.BLOCK_BYTES (two rows at least).

The step and the stop check have closed forms, from the product P_n and the
Gram A_n the loop leaves behind: A_n depends on g_i and g_j only, so the
mode-n update leaves it valid. ||X_{s+1} - X_s|| = alpha ||R_s - X_s||, with
  - ||R||^2 = <G_n, G_n A_n>,
  - <R, X_s> = <G_n, P_n>,
  - ||X_{s+1}||^2 = alpha^2 ||R||^2 + 2 alpha beta <R, X_s> + beta^2 ||X_s||^2
    from ||X_0||^2 = ||E||^2, the count of E's 1-cells.
The difference subtracts terms of size ||X||^2, so the step resolves about
1e-8 of ||X|| (a dense pass resolved about 1e-16); growth and convergence
tolerances sit far above that. Since X_new - R = lambda2 (X_old - X_new), the
trace objective 0.5 ||X_new - R||^2 is 0.5 (lambda2 ||X_new - X_old||)^2.
Each sweep also records the fit ||R - E|| / ||E|| from ||R||^2 - 2 <R, E> +
||E||^2, <R, E> always as <G_n, E_n H_n^T>: from the mode-n product while E
is in X, and from one more mode-n tensor_ops.coo_rhs after.

The cost grows with the memory: on the reference scene this solve is faster
than the dense-X solve of the tests' oracles up to lambda2 = 1 and slower at
lambda2 = 3, and on the DAVIS-scale scene it is faster at each of them
(ROADMAP, "Not worth repeating", has the timings).

The package imports no SciPy at all, so the linear algebra is numpy's only
and one OpenBLAS thread pool does it all: SciPy's linalg loads a second
OpenBLAS, and on a 2-core host the two pools contend enough to make a
reference-scale factor solve about 10x slower.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import NumericalError, check_fields
from .events import EventTensor, _header_ints, open_text, write_rows
from .tensor_ops import (
    MODES,
    CooPlan,
    FactorStack,
    FactorTriple,
    _first_nonfinite,
    coo_rhs,
    frob_norm,
    history_rhs,
    matricize_factor,
    pair_gram,
    unmatricize_factor,
)

logger = logging.getLogger(__name__)

GROW_NOISE_FACTOR = 0.01  # rank-expansion fill magnitude relative to init_scale
TAIL_WEIGHT = 2.0 ** -53  # a term of X leaves once its weight falls below this share


@dataclass(frozen=True)
class SolverConfig:
    f_max: int = 6
    lambda1: float = 0.1
    lambda2: float = 0.1
    s_max: int = 1000
    seed: int = 0
    # fixed protocol, not fields: dataclasses skips ClassVar annotations
    grow_tol: ClassVar[float] = 1e-2
    conv_tol: ClassVar[float] = 1e-3
    init_scale: ClassVar[float] = 0.1

    def __post_init__(self):
        """Types by check_fields (a fractional cap lets the rank pass it, a NaN
        weight every comparison below), then ranges (a negative seed fails in numpy)."""
        check_fields(self, integers=("f_max", "s_max", "seed"), finite=("lambda1", "lambda2"))
        for name, low in (("f_max", 1), ("lambda1", 0), ("s_max", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.lambda2 <= 0:
            raise ValueError("lambda2 must be > 0")


@dataclass
class TraceRecord:
    """One sweep of the solve loop. `f` is the rank in effect during the sweep;
    `grew` marks sweeps whose ending triggered a rank expansion; `fit` is
    ||R - E|| / ||E|| for the sweep's factors (||R|| when E is zero)."""

    s: int
    f: int
    objective: float
    rel_change: float
    max_residual: float = 0.0
    grew: bool = False
    fit: float = float("nan")


def _pad(stack: FactorStack, f: int) -> FactorStack:
    """The stack at rank f, new latent slices zero, so each R(F_k) is unchanged."""
    if stack.rank == f:
        return stack
    keep, grow = (0, 0), (0, f - stack.rank)
    return FactorStack(np.pad(stack.g_i, (keep, keep, grow, grow)),
                       np.pad(stack.g_j, (keep, grow, keep, grow)),
                       np.pad(stack.g_n, (keep, grow, grow, keep)))


@dataclass
class RelaxedTarget:
    """X_s = e_weight E + sum_k weights[k] R(history[k]), exactly and without
    its cells: E as its sort plans by mode, the past factor triples stacked
    oldest first."""

    e: dict[str, CooPlan]
    sq_norm: float
    history: FactorStack
    weights: np.ndarray
    e_weight: float = 1.0

    def product(self, factors: FactorTriple, mode: str) -> tuple[np.ndarray, np.ndarray | None]:
        """X_m H_m^T and, while E is part of X, E_m H_m^T (else None)."""
        p = history_rhs(_pad(self.history, factors.rank), self.weights, factors, mode)
        if not self.e_weight:
            return p, None
        p_e = coo_rhs(self.e[mode], factors)
        p += self.e_weight * p_e
        return p, p_e

    def advance(self, factors: FactorTriple, alpha: float, beta: float,
                r_sq: float, r_x: float) -> None:
        """X <- alpha R(factors) + beta X, given ||R||^2 and <R, X>; drops the
        terms whose weight fell below TAIL_WEIGHT alpha (E: TAIL_WEIGHT)."""
        self.sq_norm = alpha * alpha * r_sq + 2.0 * alpha * beta * r_x + beta * beta * self.sq_norm
        self.e_weight *= beta
        if self.e_weight < TAIL_WEIGHT:
            self.e_weight = 0.0
        weights = self.weights * beta
        keep = weights >= TAIL_WEIGHT * alpha
        old = _pad(self.history, factors.rank)
        self.history = FactorStack(*(np.concatenate([getattr(old, g)[keep], getattr(factors, g)[None]])
                                     for g in ("g_i", "g_j", "g_n")))
        self.weights = np.append(weights[keep], alpha)


@dataclass
class SolverState:
    target: RelaxedTarget
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


def init_state(e: EventTensor, cfg: SolverConfig) -> SolverState:
    """The target starts as E, read as the EventTensor's cells (no float copy
    of E); anything else raises TypeError. Rank starts at max(1, f_max - 5);
    factors are filled i.i.d. uniform on [0, init_scale] from the seeded
    generator."""
    if not isinstance(e, EventTensor):
        raise TypeError("the solver takes an EventTensor(cells, dims, bin_edges), as "
                        f"bin_to_tensor makes it, not {type(e).__name__}")
    plans = {mode: CooPlan.of(e.dims, e.cells, mode) for mode in MODES}
    f0 = max(1, cfg.f_max - 5)
    rng = np.random.default_rng(cfg.seed)
    factors = _random_factors(rng, e.dims, f0, cfg.init_scale)
    empty = FactorStack(*(np.zeros((0, *g.shape)) for g in (factors.g_i, factors.g_j, factors.g_n)))
    target = RelaxedTarget(plans, float(len(e.cells)), empty, np.zeros(0))
    return SolverState(target=target, factors=factors, s=0, rng=rng)


def update_factor(state: SolverState, mode: str, cfg: SolverConfig, product: np.ndarray,
                  gram: np.ndarray) -> tuple[FactorTriple, float]:
    """Solve the mode-m subproblem given X_m H_m^T (`product`) and H_m H_m^T
    (`gram`) for the current factors, writing neither; returns the updated
    triple and the solve residual ||G A - rhs||_F / (1 + ||rhs||_F)."""
    factors = state.factors
    g_old = matricize_factor(factors.factor(mode), mode)
    # both diagonal edits add along a strided view of the flattened array:
    # np.diag_indices' index arrays took three times as long
    a = gram.copy()
    a.reshape(-1)[::len(a) + 1] += cfg.lambda2
    rhs = product + cfg.lambda2 * g_old
    if cfg.lambda1 != 0.0:
        # lambda1 Q, with Q the rectangular quasi-identity (ones where row == column)
        width = rhs.shape[1]
        rhs.reshape(-1)[:min(rhs.shape) * width:width + 1] += cfg.lambda1
    if _first_nonfinite(a, rhs) is not None:
        raise NumericalError(state.s, f"non-finite values entering the mode-{mode} solve")

    try:
        # A is symmetric, so G A = rhs is A G^T = rhs^T
        g_new = np.linalg.solve(a, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(state.s, f"mode-{mode} solve failed: {exc}") from exc

    residual = frob_norm(g_new @ a - rhs) / (1.0 + frob_norm(rhs))
    updated = replace(factors, **{f"g_{mode}": unmatricize_factor(g_new, mode, factors.rank)})
    return updated, residual


def grow_rank(state: SolverState, cfg: SolverConfig) -> SolverState:
    """Expand each factor by one slice along both latent axes (f <- min(f+1,
    f_max)); old entries are preserved, new ones filled with tiny seeded noise
    so the added directions are not stationary. No-op at the rank cap."""
    f, old = state.f, state.factors
    if f >= cfg.f_max:
        return state
    state.factors = _random_factors(state.rng, old.dims, f + 1, cfg.init_scale * GROW_NOISE_FACTOR)
    state.factors.g_i[:, :f, :f] = old.g_i
    state.factors.g_j[:f, :, :f] = old.g_j
    state.factors.g_n[:f, :f, :] = old.g_n
    return state


def solve(e: EventTensor, cfg: SolverConfig | None = None) -> tuple[FactorTriple, SolverState]:
    """Run the full alternating schedule on an EventTensor. Returns the
    final factors and the state carrying the sweep trace; a run that
    exhausts s_max returns normally with `converged=False`."""
    cfg = cfg or SolverConfig()
    state = init_state(e, cfg)
    target = state.target
    e_sq = target.sq_norm  # ||X_0||^2 = ||E||^2
    alpha, beta = 1.0 / (1.0 + cfg.lambda2), cfg.lambda2 / (1.0 + cfg.lambda2)
    while state.s < cfg.s_max:
        max_residual = 0.0
        for mode in MODES:
            product, p_e = target.product(state.factors, mode)
            gram = pair_gram(state.factors, mode)
            state.factors, residual = update_factor(state, mode, cfg, product, gram)
            max_residual = max(max_residual, residual)

        # mode n's product and Gram serve the closed forms: H_n, built from
        # g_i and g_j, does not change in the mode-n update
        g_n = matricize_factor(state.factors.g_n, "n")
        r_sq = float(np.vdot(g_n, g_n @ gram))
        r_x = float(np.vdot(g_n, product))
        if p_e is None:
            p_e = coo_rhs(target.e["n"], state.factors)
        r_e = float(np.vdot(g_n, p_e))
        x_norm = math.sqrt(max(target.sq_norm, 0.0))
        delta = alpha * math.sqrt(max(r_sq - 2.0 * r_x + target.sq_norm, 0.0))
        rel_change = delta / x_norm if x_norm > 0 else delta
        fit = math.sqrt(max(r_sq - 2.0 * r_e + e_sq, 0.0))
        if e_sq > 0:
            fit /= math.sqrt(e_sq)
        target.advance(state.factors, alpha, beta, r_sq, r_x)

        grew = rel_change < cfg.grow_tol and state.f < cfg.f_max
        # X_new - R = lambda2 * (X_old - X_new)
        obj = 0.5 * (cfg.lambda2 * delta) ** 2
        state.trace.append(TraceRecord(s=state.s, f=state.f, objective=obj, rel_change=rel_change,
                                       max_residual=max_residual, grew=grew, fit=fit))
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
    """Text checkpoint: header ``I J N f``, then one (I+J+N, f^2) table, the
    three matricized factors stacked (one row per line, ``%.17g`` values --
    exact float64 round-trip)."""
    table = np.concatenate([matricize_factor(factors.factor(mode), mode) for mode in MODES])
    write_rows(path_or_fh, "%d %d %d %d\n" % (*factors.dims, factors.rank), table.T, " ")


def load_checkpoint(path_or_fh) -> FactorTriple:
    """Inverse of :func:`save_checkpoint`. The first missing, short or
    non-numeric row raises ValueError naming its line (a short one also the
    promised row count); no row past it is read. A line after the
    promised rows raises too: the header's I, J and N split the rows among
    the factors, and a header that does not end the file splits them wrongly."""
    with open_text(path_or_fh) as fh:
        ii, jj, nn, f = _header_ints(fh, "I J N f")
        rows = []
        for k in range(ii + jj + nn):
            try:
                rows.append(np.array(fh.readline().split(), dtype=np.float64))
            except ValueError as exc:
                raise ValueError(f"checkpoint line {k + 2} holds a non-number ({exc})") from None
            if len(rows[-1]) != f * f:
                raise ValueError(f"checkpoint line {k + 2} holds {len(rows[-1])} of {f * f} "
                                 f"values; the header promises {ii + jj + nn} factor rows")
        if fh.readline():
            raise ValueError(f"checkpoint line {ii + jj + nn + 2} follows the "
                             f"{ii + jj + nn} factor rows the header promises")
    tables = np.split(np.array(rows), [ii, ii + jj])
    return FactorTriple(*(unmatricize_factor(t, mode, f) for t, mode in zip(tables, MODES)))


def write_trace_csv(state: SolverState, path_or_fh, metadata: dict | None = None) -> None:
    """Trace export: ``s,f,objective,rel_change`` rows (``%d,%d,%.17g,%.17g``),
    preceded by optional ``# key: value`` comment headers."""
    counts = np.array([(r.s, r.f) for r in state.trace], dtype=np.int64).reshape(-1, 2)
    values = np.array([(r.objective, r.rel_change) for r in state.trace]).reshape(-1, 2)
    comments = "".join(f"# {key}: {metadata[key]}\n" for key in sorted(metadata or {}))
    write_rows(path_or_fh, comments + "s,f,objective,rel_change\n", [*counts.T, *values.T])
