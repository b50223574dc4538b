"""3rd-order tensor arithmetic for the fully-connected 3-factor network.

A rank-f network holds three 3rd-order factors sharing latent dimension f:

    g_i : (I, f, f)   indexed (i, x, y)
    g_j : (f, J, f)   indexed (x, j, z)
    g_n : (f, f, N)   indexed (y, z, n)

and reconstructs the (I, J, N) tensor entrywise as

    e[i,j,n] = sum_{x,y,z} g_i[i,x,y] * g_j[x,j,z] * g_n[y,z,n].

Everything here is a pure function over float64 numpy arrays. The unfolding
and latent-pair flattening conventions are fixed here once; the solver and
feature extraction depend on them being mutually consistent:

    X_i, the mode-i unfolding, is I x (J*N) with column n*J + j   (j fastest)
    X_j is J x (I*N) with column n*I + i                          (i fastest)
    X_n is N x (I*J) with column j*I + i                          (i fastest)

    matricize_factor flattens the two latent axes of a factor with the
    first-listed index fastest: (x,y) -> y*f + x for mode i, (x,z) -> z*f + x
    for mode j, (y,z) -> z*f + y for mode n.

With H_m the f^2 x (product of the other two dims) partial contraction of the
two factors other than g_m, summed over their shared latent index, and R the
reconstruction, for every mode m:

    R_m == matricize_factor(g_m, m) @ H_m

The solver forms no unfolding and no (I, J, N) array. Its data product
X_m H_m^T is a weighted sum of two kinds of term, each exact:

  - an event tensor E given as its nonzeros (CooTensor). coo_rhs builds the
    mode's pair table, H_m with its columns in (i, j, n) order
    (pair_table, O(f^3) per column), gathers its columns at the nonzeros
    into an (f^2, nnz) array and sums each row's run of them with one
    np.add.reduceat along that contiguous axis; the runs come from a sort
    plan (coo_plan) made once per E. Gathering rows of an (nnz, f^2) layout
    instead took 3.3x as long at DAVIS scale (f = 6, 57.8k nonzeros, 90k
    columns: 6.7 against 2.0 ms on 2 vCPUs).
  - past reconstructions R(F_k), given as their factor triples (FactorStack).
    R(F_k)_m H_m^T = G_m^k (H_m^k H_m^T), and H_m^k H_m^T comes from
    cross-Grams of the factors (cross_pair_gram, pair_gram's construction for
    two triples) in O((I+J+N) f^4 + f^6) per term; history_rhs sums them.

pair_gram gives H_m H_m^T from per-factor Grams the same way, and
cell_values reads R at single cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

MODES = ("i", "j", "n")


@dataclass(frozen=True)
class FactorTriple:
    """The three latent factors of a rank-f network."""

    g_i: np.ndarray
    g_j: np.ndarray
    g_n: np.ndarray

    def __post_init__(self):
        validate_factors(self.g_i, self.g_j, self.g_n)

    @property
    def rank(self) -> int:
        return self.g_i.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.g_i.shape[0], self.g_j.shape[1], self.g_n.shape[2])

    def factor(self, mode: str) -> np.ndarray:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        return getattr(self, f"g_{mode}")


def validate_factors(g_i: np.ndarray, g_j: np.ndarray, g_n: np.ndarray) -> int:
    """Check shared rank and finiteness; returns the rank f."""
    if g_i.ndim != 3 or g_j.ndim != 3 or g_n.ndim != 3:
        raise ShapeError("factors must be 3rd-order arrays")
    f = g_i.shape[1]
    if f < 1:
        raise ShapeError("latent rank must be >= 1")
    if g_i.shape[2] != f or g_j.shape[0] != f or g_j.shape[2] != f \
            or g_n.shape[0] != f or g_n.shape[1] != f:
        raise ShapeError(
            f"rank mismatch: g_i {g_i.shape}, g_j {g_j.shape}, g_n {g_n.shape}"
        )
    for name, g in (("g_i", g_i), ("g_j", g_j), ("g_n", g_n)):
        if not np.all(np.isfinite(g)):
            raise ShapeError(f"{name} contains non-finite values")
    return f


def f3tn_contract(factors: FactorTriple, out: np.ndarray | None = None) -> np.ndarray:
    """Full reconstruction of the (I, J, N) tensor from the factor triple,
    written into `out` (a C-contiguous float64 (I, J, N) array) when given.

    Contracts g_j and g_n over z first (cost f^3*J*N), then folds in g_i
    (cost I*f^2*J*N) -- cheapest order for f much smaller than I, J, N.
    """
    g_i, g_j, g_n = factors.g_i, factors.g_j, factors.g_n
    f = factors.rank
    ii, jj, nn = factors.dims
    # (x,j,z) x (y,z,n) -> (x,j,y,n), then pair up (x,y) against g_i's (x,y)
    t = np.tensordot(g_j, g_n, axes=(2, 1))
    t = t.transpose(0, 2, 1, 3).reshape(f * f, jj * nn)
    if out is None:
        return (g_i.reshape(ii, f * f) @ t).reshape(ii, jj, nn)
    if out.shape != (ii, jj, nn) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous float64 array of shape {(ii, jj, nn)}")
    np.matmul(g_i.reshape(ii, f * f), t, out=out.reshape(ii, jj * nn))
    return out


def matricize_factor(g: np.ndarray, mode: str) -> np.ndarray:
    """Flatten a factor's two latent axes into columns (first-listed index fastest)."""
    if g.ndim != 3:
        raise ShapeError("factor must be a 3rd-order array")
    if mode == "i":
        ii, f, _ = g.shape
        return g.transpose(0, 2, 1).reshape(ii, f * f)
    if mode == "j":
        f, jj, _ = g.shape
        return g.transpose(1, 2, 0).reshape(jj, f * f)
    if mode == "n":
        f, _, nn = g.shape
        return g.transpose(2, 1, 0).reshape(nn, f * f)
    raise ValueError(f"unknown mode {mode!r}")


def unmatricize_factor(m: np.ndarray, mode: str, f: int) -> np.ndarray:
    """Inverse of :func:`matricize_factor`."""
    if m.ndim != 2 or m.shape[1] != f * f:
        raise ShapeError(f"expected a (*, {f * f}) matrix, got {m.shape}")
    d = m.shape[0]
    if mode == "i":
        return np.ascontiguousarray(m.reshape(d, f, f).transpose(0, 2, 1))
    if mode == "j":
        return np.ascontiguousarray(m.reshape(d, f, f).transpose(2, 0, 1))
    if mode == "n":
        return np.ascontiguousarray(m.reshape(d, f, f).transpose(2, 1, 0))
    raise ValueError(f"unknown mode {mode!r}")


# mode -> the pair of other factors, each as (name, data axis, latent axis
# shared with the other one); the first one's open latent axis is H_m's fastest row index
PAIRS = {"i": (("g_j", 1, 2), ("g_n", 2, 1)),
         "j": (("g_i", 0, 2), ("g_n", 2, 0)),
         "n": (("g_i", 0, 1), ("g_j", 1, 0))}


def _latent_gram(g: np.ndarray, data_axis: int, shared_axis: int,
                 other: np.ndarray | None = None) -> np.ndarray:
    """A factor's Gram over its data axis, as the (p, p') x (s, s') matrix with
    p its open latent axis and s the latent axis it shares. With `other`, the
    cross-Gram of g (rows) against other (columns). Leading axes of g, if
    any, are batch axes."""
    lead = g.ndim - 3
    axes = (data_axis, 3 - data_axis - shared_axis, shared_axis)
    m = g.transpose(*range(lead), *(lead + a for a in axes))
    f = m.shape[-1]
    m = m.reshape(*m.shape[:-2], f * f)
    o = m if other is None else other.transpose(axes).reshape(-1, f * f)
    gram = np.swapaxes(m, -1, -2) @ o
    shape = gram.shape[:-2]
    return gram.reshape(*shape, f, f, f, f).swapaxes(-3, -2).reshape(*shape, f * f, f * f)


def _pair_from_grams(a: np.ndarray, b: np.ndarray, f: int) -> np.ndarray:
    """Sum the two latent Grams over their shared axis pair: rows (q, p) and
    columns (q', p'), p fastest, with p, q the open axes of the pair's first
    and second factor."""
    out = a @ np.swapaxes(b, -1, -2)
    lead = out.ndim - 2
    out = out.reshape(*out.shape[:-2], f, f, f, f)  # (p, p', q, q')
    axes = (*range(lead), lead + 2, lead, lead + 3, lead + 1)
    return out.transpose(axes).reshape(*out.shape[:-4], f * f, f * f)


def pair_gram(factors: FactorTriple, mode: str) -> np.ndarray:
    """H_m H_m^T from the two other factors' own Grams, O((I+J+N) f^4 + f^6),
    without forming H_m: for mode i, (H_i H_i^T)[(x,y),(x',y')] =
    sum_{z,z'} Gram(g_j)[x,z,x',z'] Gram(g_n)[y,z,y',z']."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    a, b = (_latent_gram(getattr(factors, name), data, shared)
            for name, data, shared in PAIRS[mode])
    return _pair_from_grams(a, b, factors.rank)


@dataclass(frozen=True)
class FactorStack:
    """K factor triples of one rank f stacked along a leading axis:
    g_i (K, I, f, f), g_j (K, f, J, f), g_n (K, f, f, N)."""

    g_i: np.ndarray
    g_j: np.ndarray
    g_n: np.ndarray

    def __len__(self) -> int:
        return self.g_i.shape[0]

    @property
    def rank(self) -> int:
        return self.g_i.shape[2]


def cross_pair_gram(stack: FactorStack, factors: FactorTriple, mode: str) -> np.ndarray:
    """(K, f^2, f^2): H_m^k H_m^T for each stacked triple k against `factors`,
    pair_gram's construction over cross-Grams, O(K (I+J+N) f^4 + K f^6)."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    if stack.rank != factors.rank:
        raise ShapeError(f"stack rank {stack.rank} differs from the factors' {factors.rank}")
    a, b = (_latent_gram(getattr(stack, name), data, shared, getattr(factors, name))
            for name, data, shared in PAIRS[mode])
    return _pair_from_grams(a, b, factors.rank)


def history_rhs(stack: FactorStack, weights: np.ndarray, factors: FactorTriple,
                mode: str) -> np.ndarray:
    """(sum_k weights[k] R(F_k))_m H_m^T for the stacked triples F_k, with
    R(F_k)_m = G_m^k H_m^k: sum_k weights[k] G_m^k (H_m^k H_m^T), from the
    cross-Grams and no cell of any R(F_k)."""
    c = cross_pair_gram(stack, factors, mode)
    c *= np.asarray(weights, dtype=np.float64)[:, None, None]
    g = getattr(stack, f"g_{mode}")
    # matricize_factor's column order (first-listed latent index fastest), per term
    g = {"i": g.transpose(0, 1, 3, 2), "j": g.transpose(0, 2, 3, 1),
         "n": g.transpose(0, 3, 2, 1)}[mode]
    g = g.reshape(*g.shape[:2], factors.rank ** 2)
    return np.tensordot(g, c, axes=([0, 2], [0, 1]))


@dataclass(frozen=True)
class CooTensor:
    """The nonzero cells of an (I, J, N) tensor: coordinates and float64
    values, in C order when built by from_dense."""

    dims: tuple[int, int, int]
    i: np.ndarray
    j: np.ndarray
    n: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dense(cls, data) -> CooTensor:
        data = np.asarray(data)
        if data.ndim != 3:
            raise ShapeError(f"expected a 3rd-order tensor, got ndim={data.ndim}")
        coords = np.nonzero(data)
        return cls(dims=tuple(int(d) for d in data.shape), i=coords[0], j=coords[1],
                   n=coords[2], values=data[coords].astype(np.float64))

    @property
    def sq_norm(self) -> float:
        return float(np.dot(self.values, self.values))


@dataclass(frozen=True)
class CooPlan:
    """One mode's segment-sum plan over a CooTensor's nonzeros, sorted by that
    mode's index: each nonzero's column in the mode's pair table, its value
    (None when every value is 1), and where each non-empty row's run starts."""

    mode: str
    cols: np.ndarray
    values: np.ndarray | None
    starts: np.ndarray
    rows: np.ndarray
    n_rows: int


def coo_plan(coo: CooTensor, mode: str) -> CooPlan:
    """Sort the nonzeros by their mode-m index, stably, so each row's run keeps
    C order and reads its pair-table columns in increasing order."""
    _, jj, nn = coo.dims
    if mode == "i":
        key, cols = coo.i, coo.j * nn + coo.n
    elif mode == "j":
        key, cols = coo.j, coo.i * nn + coo.n
    elif mode == "n":
        key, cols = coo.n, coo.i * jj + coo.j
    else:
        raise ValueError(f"unknown mode {mode!r}")
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    values = None if np.all(coo.values == 1.0) else coo.values[order]
    return CooPlan(mode=mode, cols=cols[order], values=values, starts=starts,
                   rows=key[starts], n_rows=coo.dims[MODES.index(mode)])


def pair_table(factors: FactorTriple, mode: str) -> np.ndarray:
    """H_m itself with its columns reordered, (f^2, product of the two other
    dims): rows in matricize_factor(g_m)'s column order, columns j*N + n for
    mode i, i*N + n for mode j and i*J + j for mode n. One batched matmul,
    O(f^3) per column, written in this layout directly."""
    g_i, g_j, g_n = factors.g_i, factors.g_j, factors.g_n
    f = factors.rank
    ii, jj, nn = factors.dims
    if mode == "i":
        # per y: (x, j; z) @ (z; n) -> (y, x, j, n)
        t = np.matmul(g_j.reshape(f * jj, f), g_n)
    elif mode == "j":
        # per z: (x, i; y) @ (y; n) -> (z, x, i, n)
        t = np.matmul(g_i.transpose(1, 0, 2).reshape(f * ii, f), g_n.transpose(1, 0, 2))
    elif mode == "n":
        # per z: (y, i; x) @ (x; j) -> (z, y, i, j)
        t = np.matmul(g_i.transpose(2, 0, 1).reshape(f * ii, f), g_j.transpose(2, 0, 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return t.reshape(f * f, -1)


def coo_rhs(coo: CooTensor, factors: FactorTriple, mode: str,
            plan: CooPlan | None = None) -> np.ndarray:
    """E_m H_m^T from E's nonzeros alone, O(f^3 * (other dims) + nnz * f^2):
    the mode's pair table, its columns gathered at the nonzeros (scaled by
    their values) and summed per row with one np.add.reduceat along the
    gathered axis. `plan` is coo_plan(coo, mode), built here when not given."""
    if coo.dims != factors.dims:
        raise ShapeError(f"E has shape {coo.dims}, the factors {factors.dims}")
    if plan is None:
        plan = coo_plan(coo, mode)
    elif plan.mode != mode:
        raise ValueError(f"a mode-{plan.mode} plan cannot give the mode-{mode} product")
    table = pair_table(factors, mode)
    out = np.zeros((table.shape[0], plan.n_rows))
    if len(plan.starts):
        gathered = np.take(table, plan.cols, axis=1)
        if plan.values is not None:
            gathered *= plan.values
        # reduceat over the non-empty runs only: an empty one would read its neighbour
        out[:, plan.rows] = np.add.reduceat(gathered, plan.starts, axis=1)
    return out.T


def cell_values(factors: FactorTriple, i, j, n) -> np.ndarray:
    """The reconstruction at the cells (i[k], j[k], n[k]), one f^3 sum per
    cell and no full tensor: sum over (x, y) of
    g_i[i, x, y] * (g_j[:, j, :] @ g_n[:, :, n].T)[x, y]."""
    a = factors.g_i[i]                          # (M, x, y)
    b = factors.g_j[:, j, :].transpose(1, 0, 2)  # (M, x, z)
    c = factors.g_n[:, :, n].transpose(2, 0, 1)  # (M, y, z)
    return np.einsum("mxy,mxz,myz->m", a, b, c, optimize=True)


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of one BLAS dot of the entries with themselves."""
    v = np.ascontiguousarray(t, dtype=np.float64).ravel()
    return float(np.sqrt(np.dot(v, v)))
