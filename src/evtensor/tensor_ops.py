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

    Two per-mode tables state the rest: _LAYOUT, that flattening as one
    transpose to (data, slow latent, fast latent), and PAIRS, the other two
    factors with their data and shared axes. No function branches on the
    mode but CooPlan.of, whose arm per mode made the DAVIS plans faster than
    one stride formula (ROADMAP, "Not worth repeating"). The entry points,
    FactorTriple.factor and CooPlan.of, refuse an unknown mode by name; the
    other functions trust that theirs come from MODES, and an unknown one
    fails at its first table lookup.

With H_m the f^2 x (product of the other two dims) partial contraction of the
two factors other than g_m, summed over their shared latent index, and R the
reconstruction, for every mode m:

    R_m == matricize_factor(g_m, m) @ H_m

The solver forms no unfolding and no (I, J, N) array. Its data product
X_m H_m^T is a weighted sum of two kinds of term, each exact:

  - the binary event tensor E as the sort plans of its 1-cells alone, one
    CooPlan per mode, each made by CooPlan.of. coo_rhs never
    holds the mode's pair table, H_m with its columns in (i, j, n) order
    (pair_table, O(f^3) per column): it builds it a block of rows at a time
    (_table_blocks), one latent index q of the second factor and a few open
    indices p of the first per matmul, gathers each block at the cells'
    columns and sums each row's run of them with np.add.reduceat.
    The block and its gather hold at most BLOCK_BYTES (two rows at least),
    where the table at E's columns took 7.4 MB at DAVIS scale (f = 6, 57.8k
    nonzeros, mode n) and one per-slice matmul beside it 4.3 MB. Every
    table entry sums the same f products in the same order as in one
    batched matmul, and each row's reduction is the same as over the whole
    gather, so the sums are bit-identical. The gather reads the block at
    its full width, as first compacting it to the columns E touches cost
    more than it saved. Blocks run over table rows and not over nonzeros: a
    block of nonzeros reads columns spread over the whole table, so every
    block streams all of it again. Gathering rows of an (nnz, f^2) layout
    instead was slower too (ROADMAP, "Not worth repeating", has the timings).
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
cell_values streams mode j's table as coo_rhs does, a block of rows at a
time (_table_blocks), and adds each row's product at the cells' columns to
their scores: it holds a few cell-sized vectors beside one or two blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

MODES = ("i", "j", "n")

# the most bytes a per-nonzero or per-event block may hold
BLOCK_BYTES = 2 << 20


def row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Slices cutting range(n) into consecutive blocks of BLOCK_BYTES //
    row_bytes rows, at least two, the last one taking what is left."""
    step = max(2, BLOCK_BYTES // row_bytes)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _first_nonfinite(*arrays: np.ndarray) -> int | None:
    """The position of the first array with a NaN or an infinite entry, or
    None. One sum over all the entries is finite exactly when every entry is,
    unless it overflows; only a sum that is not finite has each array scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(sum(float(a.sum()) for a in arrays)):
            return None
    return next((k for k, a in enumerate(arrays) if not np.isfinite(a).all()), None)


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
        bad = _first_nonfinite(g_i, g_j, g_n)
        if bad is not None:
            raise ShapeError(f"{('g_i', 'g_j', 'g_n')[bad]} contains non-finite values")

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
    m = g.transpose(_LAYOUT[mode])
    return m.reshape(m.shape[0], m.shape[1] * m.shape[2])


def unmatricize_factor(m: np.ndarray, mode: str, f: int) -> np.ndarray:
    """Inverse of :func:`matricize_factor`."""
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
    # matricize_factor's layout per term, the terms side by side: one (data,
    # K f^2) copy, where np.tensordot made it from a (K, data, f^2) copy, a
    # second one. That churn cost a fresh ref run thousands of page faults
    g = getattr(stack, f"g_{mode}").transpose(_BATCHED[mode]).swapaxes(0, 1)
    d, k = g.shape[:2]
    f2 = factors.rank ** 2
    return g.reshape(d, k * f2) @ c.reshape(k * f2, f2)


@dataclass(frozen=True)
class CooPlan:
    """One mode's segment-sum plan over the 1-cells of a binary tensor of
    shape `dims`, sorted stably by that mode's index so each row's run keeps
    C order: each cell's column of the mode's pair table (the other two
    indices in C order), and where each non-empty row's run starts."""

    dims: tuple[int, int, int]
    mode: str
    cols: np.ndarray
    starts: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, dims, flat, mode: str) -> CooPlan:
        """The mode's plan from the ascending, distinct C-order flat indices
        of the 1-cells. Of each cell's coordinates only the mode's index and
        column are computed, and they live only while it is made. This is
        the one place a sort plan is made: the solver's three and the tensor
        dump's frames (mode n) come from here."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        dims = tuple(int(d) for d in dims)
        jj, nn = dims[1:]
        # floor division by a scalar is vectorized, np.divmod is not (2.3x at DAVIS scale)
        if mode == "i":
            key = flat // (jj * nn)
            cols = flat - key * (jj * nn)
        elif mode == "n":
            key, cols = flat % nn, flat // nn
        else:
            ij = flat // nn
            i = ij // jj
            key = ij - i * jj
            cols = flat - (ij - i) * nn
        # a stable sort on the narrowest dtype: numpy radix-sorts 8- and
        # 16-bit keys, and a stable order does not depend on the dtype
        order = np.argsort(key.astype(np.min_scalar_type(dims[MODES.index(mode)])), kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        # the columns are gathered last: gathered beside the key, the heap's
        # layout left davis's peak RSS 1.3 MB higher
        return cls(dims, mode, cols[order], starts, key[starts])


def _table_blocks(factors: FactorTriple, mode: str, row_bytes: int = 0):
    """The mode's pair table (see pair_table) a block of rows at a time, as
    (rows, block) pairs, block the table's rows `rows`. A block is one
    latent index q of the second factor and a row_blocks block of the first
    factor's open index p: the rows q*f + p are (p, data; shared) of the
    first @ (shared; data) of the second at q. Every entry sums the same f
    products in the same order as in one batched matmul, so each block is
    bit-identical to those rows of it. The blocks are cut so that the
    product and `row_bytes` per row, the caller's own transient, stay under
    BLOCK_BYTES (two rows at least). No local here keeps a yielded block."""
    (name_a, data_a, shared_a), (name_b, data_b, shared_b) = PAIRS[mode]
    f = factors.rank
    a = getattr(factors, name_a).transpose(3 - data_a - shared_a, data_a, shared_a)
    b = getattr(factors, name_b).transpose(3 - data_b - shared_b, shared_b, data_b)
    n_a, n_b = a.shape[1], b.shape[2]
    a = a.reshape(-1, f)
    blocks = row_blocks(f, 8 * n_a * n_b + row_bytes)
    for q in range(f):
        for p in blocks:
            yield (slice(q * f + p.start, q * f + p.stop),
                   (a[p.start * n_a:p.stop * n_a] @ b[q]).reshape(p.stop - p.start, -1))


def pair_table(factors: FactorTriple, mode: str) -> np.ndarray:
    """H_m itself with its columns reordered, (f^2, product of the two other
    dims): rows in matricize_factor(g_m)'s column order, columns the other two
    indices in C order (j*N + n for mode i, i*N + n for mode j, i*J + j for
    mode n). O(f^3) per column, written in this layout directly from the
    blocks of _table_blocks, so no transient is larger than BLOCK_BYTES or
    two of its rows."""
    out = np.empty((factors.rank ** 2, np.prod(factors.dims) // factors.dims[MODES.index(mode)]))
    for rows, block in _table_blocks(factors, mode):
        out[rows] = block
        del block
    return out


def coo_rhs(plan: CooPlan, factors: FactorTriple) -> np.ndarray:
    """E_m H_m^T in the plan's mode from E's 1-cells alone, O(f^3 * (table
    columns) + nnz * f^2), with no pair table: each block of table rows from
    _table_blocks is gathered at the cells' columns and summed per row with
    np.add.reduceat along the gathered axis, in the plan's runs. The block
    and its gather stay under BLOCK_BYTES (two rows at least)."""
    if plan.dims != factors.dims:
        raise ShapeError(f"E has shape {plan.dims}, the factors {factors.dims}")
    out = np.zeros((factors.rank ** 2, plan.dims[MODES.index(plan.mode)]))
    if len(plan.starts):
        for rows, block in _table_blocks(factors, plan.mode, 8 * len(plan.cols)):
            gathered = np.take(block, plan.cols, axis=1)
            # reduceat over the non-empty runs only: an empty one would read its neighbour
            out[rows, plan.rows] = np.add.reduceat(gathered, plan.starts, axis=1)
            del gathered, block  # before the next block's matmul
    return out.T


def f3tn_contract(factors: FactorTriple) -> np.ndarray:
    """Full reconstruction of the (I, J, N) tensor from the factor triple:
    R_i = G_i @ H_i, with H_i as mode i's pair table, whose columns j*N + n
    are R's C order (O(f^3 J N) for the table, then O(I f^2 J N))."""
    return (matricize_factor(factors.g_i, "i") @ pair_table(factors, "i")).reshape(factors.dims)


def cell_values(factors: FactorTriple, i, j, n) -> np.ndarray:
    """The reconstruction at the cells (i[k], j[k], n[k]), O(f^2) per cell
    after mode j's pair table, streamed a block of rows at a time: each row r
    adds G_j[j, r] * table[r, i*N + n], so every cell sums its f^2 products
    in one order, that of one einsum over many cells, alone or among others."""
    cols = np.ravel_multi_index((i, n), (factors.dims[0], factors.dims[2]))
    g_j = matricize_factor(factors.g_j, "j")
    out = np.zeros(len(cols))
    for rows, block in _table_blocks(factors, "j"):
        for r, row in enumerate(block, rows.start):
            term = np.take(g_j[:, r], j)
            term *= np.take(row, cols)
            out += term
        del block, row  # before the next block's matmul
    return out


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of one BLAS dot of the entries with themselves."""
    v = np.ascontiguousarray(t, dtype=np.float64).ravel()
    return float(np.sqrt(np.dot(v, v)))
