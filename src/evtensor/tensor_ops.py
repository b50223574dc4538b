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

    Two per-mode tables state the rest, so no function branches on the mode:
    _LAYOUT, that flattening as one transpose to (data, slow latent, fast
    latent), and PAIRS, the other two factors with their data and shared axes.

With H_m the f^2 x (product of the other two dims) partial contraction of the
two factors other than g_m, summed over their shared latent index, and R the
reconstruction, for every mode m:

    R_m == matricize_factor(g_m, m) @ H_m

The solver forms no unfolding and no (I, J, N) array. Its data product
X_m H_m^T is a weighted sum of two kinds of term, each exact:

  - an event tensor E given as its nonzeros (CooTensor). coo_rhs builds the
    mode's pair table, H_m with its columns in (i, j, n) order (pair_table,
    one batched matmul, O(f^3) per column), gathers its columns at the
    nonzeros into an (f^2, nnz) array and sums each row's run of them with
    one np.add.reduceat along that contiguous axis; the runs come from the
    sort plans CooTensor.from_dense makes once per E. Gathering rows of an
    (nnz, f^2) layout instead took 3.3x as long at DAVIS scale (f = 6, 57.8k
    nonzeros, 90k columns: 6.7 against 2.0 ms on 2 vCPUs).
  - past reconstructions R(F_k), given as their factor triples (FactorStack).
    R(F_k)_m H_m^T = G_m^k (H_m^k H_m^T), and H_m^k H_m^T comes from
    cross-Grams of the factors in O((I+J+N) f^4 + f^6) per term;
    history_rhs sums them.

pair_gram gives H_m H_m^T from per-factor Grams the same way, and the
cross-Grams when given a second triple.

R is read through the pair tables only, as R_m = G_m @ pair_table(m):
f3tn_contract in mode i, whose columns j*N + n are R's C order, and
cell_values in mode j, row j of G_j against column i*N + n. Mode j is on
purpose: the two sum in different orders, so checking per-cell scores against
f3tn_contract compares two contraction orders, not one with itself.
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
        g_i, g_j, g_n = self.g_i, self.g_j, self.g_n
        if g_i.ndim != 3 or g_j.ndim != 3 or g_n.ndim != 3:
            raise ShapeError("factors must be 3rd-order arrays")
        f = g_i.shape[1]
        if f < 1:
            raise ShapeError("latent rank must be >= 1")
        if (g_i.shape[2], *g_j.shape[::2], *g_n.shape[:2]) != (f,) * 5:
            raise ShapeError(f"rank mismatch: g_i {g_i.shape}, g_j {g_j.shape}, g_n {g_n.shape}")
        for name, g in (("g_i", g_i), ("g_j", g_j), ("g_n", g_n)):
            if not np.all(np.isfinite(g)):
                raise ShapeError(f"{name} contains non-finite values")

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


# mode -> the transpose of its factor to (data, slow latent, fast latent): a
# matricized factor's column is slow * f + fast, the first-listed index fastest
_LAYOUT = {"i": (0, 2, 1), "j": (1, 2, 0), "n": (2, 1, 0)}
_INVERSE = {mode: tuple(axes.index(k) for k in range(3)) for mode, axes in _LAYOUT.items()}
_BATCHED = {mode: (0, *(1 + a for a in axes)) for mode, axes in _LAYOUT.items()}


def matricize_factor(g: np.ndarray, mode: str) -> np.ndarray:
    """Flatten a factor's two latent axes into columns (first-listed index fastest)."""
    if g.ndim != 3:
        raise ShapeError("factor must be a 3rd-order array")
    if mode not in _LAYOUT:
        raise ValueError(f"unknown mode {mode!r}")
    m = g.transpose(_LAYOUT[mode])
    return m.reshape(m.shape[0], m.shape[1] * m.shape[2])


def unmatricize_factor(m: np.ndarray, mode: str, f: int) -> np.ndarray:
    """Inverse of :func:`matricize_factor`."""
    if m.ndim != 2 or m.shape[1] != f * f:
        raise ShapeError(f"expected a (*, {f * f}) matrix, got {m.shape}")
    if mode not in _INVERSE:
        raise ValueError(f"unknown mode {mode!r}")
    return np.ascontiguousarray(m.reshape(len(m), f, f).transpose(_INVERSE[mode]))


# mode -> the pair of other factors in data-axis order, each as (name, data
# axis, latent axis shared with the other one); the first one's open latent
# axis is H_m's fastest row index
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


def pair_gram(factors: FactorTriple | FactorStack, mode: str,
              other: FactorTriple | None = None) -> np.ndarray:
    """H_m H_m^T from the two other factors' own Grams, O((I+J+N) f^4 + f^6),
    without forming H_m: for mode i, (H_i H_i^T)[(x,y),(x',y')] =
    sum_{z,z'} Gram(g_j)[x,z,x',z'] Gram(g_n)[y,z,y',z']. With `other`, the
    cross-Gram H_m H_m(other)^T from each factor's Gram against other's;
    `factors` may then be a FactorStack of K triples, giving (K, f^2, f^2)."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    if other is not None and other.rank != factors.rank:
        raise ShapeError(f"rank {factors.rank} differs from the other factors' {other.rank}")
    a, b = (_latent_gram(getattr(factors, name), data, shared,
                         None if other is None else getattr(other, name))
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


def history_rhs(stack: FactorStack, weights: np.ndarray, factors: FactorTriple,
                mode: str) -> np.ndarray:
    """(sum_k weights[k] R(F_k))_m H_m^T for the stacked triples F_k, with
    R(F_k)_m = G_m^k H_m^k: sum_k weights[k] G_m^k (H_m^k H_m^T), from the
    cross-Grams and no cell of any R(F_k)."""
    c = pair_gram(stack, mode, factors)
    c *= np.asarray(weights, dtype=np.float64)[:, None, None]
    # matricize_factor's layout, per term
    g = getattr(stack, f"g_{mode}").transpose(_BATCHED[mode])
    g = g.reshape(*g.shape[:2], factors.rank ** 2)
    return np.tensordot(g, c, axes=([0, 2], [0, 1]))


@dataclass(frozen=True)
class CooPlan:
    """One axis's segment-sum plan over a CooTensor's nonzeros, sorted stably
    by that axis's index so each row's run keeps C order: each nonzero's
    column in the mode's pair table (the other two indices in C order), its
    value (None when every value is 1), and where each non-empty row's run
    starts."""

    cols: np.ndarray
    values: np.ndarray | None
    starts: np.ndarray
    rows: np.ndarray
    n_rows: int


@dataclass(frozen=True)
class CooTensor:
    """The nonzero cells of an (I, J, N) tensor: coordinates and float64
    values in C order, and a sort plan per mode."""

    dims: tuple[int, int, int]
    i: np.ndarray
    j: np.ndarray
    n: np.ndarray
    values: np.ndarray
    plans: dict[str, CooPlan]

    @classmethod
    def from_dense(cls, data) -> CooTensor:
        data = np.asarray(data)
        if data.ndim != 3:
            raise ShapeError(f"expected a 3rd-order tensor, got ndim={data.ndim}")
        dims = tuple(int(d) for d in data.shape)
        # (i, j, n) from the C-order flat index of the nonzeros, a scan at half
        # np.nonzero's cost. The coordinates are one block allocated before
        # the flat index: allocated after it, they raised davis peak RSS by 1 MB
        coords = np.empty((3, np.count_nonzero(data)), dtype=np.intp)
        np.divmod(np.flatnonzero(data), dims[1] * dims[2], out=(coords[0], coords[1]))
        np.divmod(coords[1], dims[2], out=(coords[1], coords[2]))
        values = data[tuple(coords)].astype(np.float64)
        ones = bool(np.all(values == 1.0))
        plans = {}
        for axis, mode in enumerate(MODES):
            slow, fast = (a for a in range(3) if a != axis)
            order = np.argsort(coords[axis], kind="stable")
            key = coords[axis][order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            plans[mode] = CooPlan(cols=(coords[slow] * dims[fast] + coords[fast])[order],
                                  values=None if ones else values[order], starts=starts,
                                  rows=key[starts], n_rows=dims[axis])
        return cls(dims, *coords, values, plans)

    @property
    def sq_norm(self) -> float:
        return float(np.dot(self.values, self.values))


def pair_table(factors: FactorTriple, mode: str) -> np.ndarray:
    """H_m itself with its columns reordered, (f^2, product of the two other
    dims): rows in matricize_factor(g_m)'s column order, columns the other two
    indices in C order (j*N + n for mode i, i*N + n for mode j, i*J + j for
    mode n). One batched matmul over the pair's shared latent axis, O(f^3)
    per column, written in this layout directly: per open latent index of
    the second factor, (open, data; shared) of the first @ (shared; data)."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    (name_a, data_a, shared_a), (name_b, data_b, shared_b) = PAIRS[mode]
    f = factors.rank
    a = getattr(factors, name_a).transpose(3 - data_a - shared_a, data_a, shared_a)
    b = getattr(factors, name_b).transpose(3 - data_b - shared_b, shared_b, data_b)
    return np.matmul(a.reshape(-1, f), b).reshape(f * f, -1)


def coo_rhs(coo: CooTensor, factors: FactorTriple, mode: str) -> np.ndarray:
    """E_m H_m^T from E's nonzeros alone, O(f^3 * (other dims) + nnz * f^2):
    the mode's pair table, its columns gathered at the nonzeros (scaled by
    their values) and summed per row with one np.add.reduceat along the
    gathered axis, in the runs of E's mode-m sort plan."""
    if coo.dims != factors.dims:
        raise ShapeError(f"E has shape {coo.dims}, the factors {factors.dims}")
    table = pair_table(factors, mode)
    plan = coo.plans[mode]
    out = np.zeros((table.shape[0], plan.n_rows))
    if len(plan.starts):
        gathered = np.take(table, plan.cols, axis=1)
        if plan.values is not None:
            gathered *= plan.values
        # reduceat over the non-empty runs only: an empty one would read its neighbour
        out[:, plan.rows] = np.add.reduceat(gathered, plan.starts, axis=1)
    return out.T


def f3tn_contract(factors: FactorTriple) -> np.ndarray:
    """Full reconstruction of the (I, J, N) tensor from the factor triple:
    R_i = G_i @ H_i, with H_i as mode i's pair table, whose columns j*N + n
    are R's C order (O(f^3 J N) for the table, then O(I f^2 J N))."""
    return (matricize_factor(factors.g_i, "i") @ pair_table(factors, "i")).reshape(factors.dims)


def cell_values(factors: FactorTriple, i, j, n) -> np.ndarray:
    """The reconstruction at the cells (i[k], j[k], n[k]), O(f^2) per cell
    after mode j's pair table: row j of G_j against column i*N + n of the
    table, and no full tensor."""
    cols = np.ravel_multi_index((i, n), (factors.dims[0], factors.dims[2]))
    table = np.take(pair_table(factors, "j"), cols, axis=1)
    return np.einsum("mk,km->m", matricize_factor(factors.g_j, "j")[j], table)


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of one BLAS dot of the entries with themselves."""
    v = np.ascontiguousarray(t, dtype=np.float64).ravel()
    return float(np.sqrt(np.dot(v, v)))
