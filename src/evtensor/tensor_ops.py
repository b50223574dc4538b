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

  - an event tensor E as the sort plans of its nonzeros alone (CooTensor,
    made once per E by CooTensor.from_cells). coo_rhs never holds the mode's
    pair table, H_m with its columns in (i, j, n) order (pair_table, O(f^3)
    per column): it builds it a block of rows at a time (_table_blocks), one
    latent index q of the second factor and a few open indices p of the
    first per matmul, gathers each block at the nonzeros' columns and sums
    each row's run of them with np.add.reduceat along that contiguous axis.
    The block and its gather hold at most BLOCK_BYTES (two rows at least),
    where the table at E's columns took 7.4 MB at DAVIS scale (f = 6, 57.8k
    nonzeros, mode n) and one per-slice matmul beside it 4.3 MB. Every
    table entry sums the same f products in the same order as in one
    batched matmul, and each row's reduction is the same as over the whole
    gather, so the sums are bit-identical. The gather reads the block at
    its full width: first compacting it to the columns E touches took 4.2
    against 3.5 ms per mode-i or mode-j call. Blocks run over table rows
    and not over nonzeros: a block of nonzeros reads columns spread over
    the whole table, so every block streams all of it again. At DAVIS scale
    blocks of nonzeros took 1.4-2.6x as long per mode (mode n 15.0 against
    33.3 ms on 2 vCPUs). Gathering rows of an (nnz, f^2) layout instead
    took 3.3x as long (6.7 against 2.0 ms).
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
cell_values builds mode j's table only at the cells' distinct (i, n)
columns, a block of them at a time, and scores their cells a block at a
time, so no product over events or nonzeros holds more than BLOCK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

MODES = ("i", "j", "n")

# the most bytes a per-nonzero or per-event block may hold
BLOCK_BYTES = 2 << 20


def row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Slices cutting range(n) into consecutive blocks of BLOCK_BYTES //
    row_bytes rows, at least two, the last one taking what is left. A lone
    last row joins the block before it: np.einsum sums the products of a
    single cell in another order than those of several (cell_values)."""
    step = max(2, BLOCK_BYTES // row_bytes)
    starts = list(range(0, max(n - 1, 1), step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


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
    # matricize_factor's layout per term, the terms side by side: one (data,
    # K f^2) copy, where np.tensordot made it from a (K, data, f^2) copy, a
    # second one. That churn cost a fresh ref run thousands of page faults
    g = getattr(stack, f"g_{mode}").transpose(_BATCHED[mode]).swapaxes(0, 1)
    d, k = g.shape[:2]
    f2 = factors.rank ** 2
    return g.reshape(d, k * f2) @ c.reshape(k * f2, f2)


@dataclass(frozen=True)
class CooPlan:
    """One axis's segment-sum plan over a CooTensor's nonzeros, sorted stably
    by that axis's index so each row's run keeps C order: each nonzero's
    column of the mode's pair table (the other two indices in C order), its
    value (None when every value is 1), and where each non-empty row's run
    starts."""

    cols: np.ndarray
    values: np.ndarray | None
    starts: np.ndarray
    rows: np.ndarray
    n_rows: int


@dataclass(frozen=True)
class CooTensor:
    """The nonzero cells of an (I, J, N) tensor as its sort plans alone, one
    per mode, and their sum of squares. A valued tensor keeps its values only
    in the plans, where coo_rhs reads them; no coordinates are kept."""

    dims: tuple[int, int, int]
    plans: dict[str, CooPlan]
    sq_norm: float

    @classmethod
    def from_cells(cls, dims, flat, values=None) -> CooTensor:
        """E from the ascending, distinct C-order flat indices of its nonzeros
        and their values (every value 1 when None): one sort plan per mode and
        sq_norm, the count of nonzeros when every value is 1 and else the dot
        of the values in C order. The coordinates live only while the plans
        are made. This is the one place the plans are made."""
        dims = tuple(int(d) for d in dims)
        coords = np.empty((3, len(flat)), dtype=np.intp)
        np.divmod(flat, dims[1] * dims[2], out=(coords[0], coords[1]))
        np.divmod(coords[1], dims[2], out=(coords[1], coords[2]))
        values = None if values is None else np.asarray(values, dtype=np.float64)
        ones = values is None or bool(np.all(values == 1.0))
        sq_norm = float(len(flat)) if ones else float(np.dot(values, values))
        plans = {}
        for axis, mode in enumerate(MODES):
            slow, fast = (a for a in range(3) if a != axis)
            # a stable sort on the narrowest dtype: numpy radix-sorts 8- and
            # 16-bit keys, and a stable order does not depend on the dtype
            narrow = coords[axis].astype(np.min_scalar_type(dims[axis]))
            order = np.argsort(narrow, kind="stable")
            key = coords[axis][order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            cols = (coords[slow] * dims[fast] + coords[fast])[order]
            plans[mode] = CooPlan(cols=cols, values=None if ones else values[order],
                                  starts=starts, rows=key[starts], n_rows=dims[axis])
        return cls(dims, plans, sq_norm)

    @classmethod
    def from_dense(cls, data) -> CooTensor:
        data = np.asarray(data)
        if data.ndim != 3:
            raise ShapeError(f"expected a 3rd-order tensor, got ndim={data.ndim}")
        flat = np.flatnonzero(data)
        return cls.from_cells(data.shape, flat, data[np.unravel_index(flat, data.shape)])


def _table_blocks(factors: FactorTriple, mode: str, row_bytes: int = 0, first=slice(None)):
    """The mode's pair table (see pair_table) a block of rows at a time, as
    (rows, block) pairs, block the table's rows `rows`. A block is one
    latent index q of the second factor and a row_blocks block of the first
    factor's open index p: the rows q*f + p are (p, data; shared) of the
    first @ (shared; data) of the second at q, over the first factor's data
    indices in `first` only, so column 0 is at data index first.start.
    Every entry sums the same f products in the same order as in one
    batched matmul, so each block is bit-identical to those rows of it. The
    blocks are cut so that the product and `row_bytes` per row, the
    caller's own transient, stay under BLOCK_BYTES (two rows at least)."""
    (name_a, data_a, shared_a), (name_b, data_b, shared_b) = PAIRS[mode]
    f = factors.rank
    a = getattr(factors, name_a).transpose(3 - data_a - shared_a, data_a, shared_a)[:, first]
    b = getattr(factors, name_b).transpose(3 - data_b - shared_b, shared_b, data_b)
    n_a, n_b = a.shape[1], b.shape[2]
    a = a.reshape(-1, f)
    blocks = row_blocks(f, 8 * n_a * n_b + row_bytes)
    for q in range(f):
        for p in blocks:
            block = a[p.start * n_a:p.stop * n_a] @ b[q]
            yield slice(q * f + p.start, q * f + p.stop), block.reshape(p.stop - p.start, -1)


def pair_table(factors: FactorTriple, mode: str, used: np.ndarray | None = None) -> np.ndarray:
    """H_m itself with its columns reordered, (f^2, product of the two other
    dims): rows in matricize_factor(g_m)'s column order, columns the other two
    indices in C order (j*N + n for mode i, i*N + n for mode j, i*J + j for
    mode n). With `used`, ascending distinct column indices, only those
    columns, in that order, from the first factor's data indices that they
    span. O(f^3) per column, written in this layout directly from the
    blocks of _table_blocks, so no transient is larger than BLOCK_BYTES or
    two of its rows over every column."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    f = factors.rank
    n_a, n_b = (d for m, d in zip(MODES, factors.dims) if m != mode)
    lo, hi = (used[0] // n_b, used[-1] // n_b + 1) if used is not None and len(used) else (0, n_a)
    out = np.empty((f * f, n_a * n_b if used is None else len(used)))
    for rows, block in _table_blocks(factors, mode, first=slice(lo, hi)):
        if used is None:
            out[rows] = block
        else:
            # used is in range, so "clip" clips nothing and writes straight
            # into out; "raise" would gather into a buffer and copy it again
            np.take(block, used - lo * n_b, axis=1, out=out[rows], mode="clip")
    return out


def coo_rhs(coo: CooTensor, factors: FactorTriple, mode: str) -> np.ndarray:
    """E_m H_m^T from E's nonzeros alone, O(f^3 * (table columns) + nnz * f^2),
    with no pair table: each block of table rows from _table_blocks is
    gathered at the nonzeros' columns (scaled by their values) and summed
    per row with np.add.reduceat along the gathered axis, in the runs of E's
    mode-m sort plan. The block and its gather stay under BLOCK_BYTES (two
    rows at least)."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    if coo.dims != factors.dims:
        raise ShapeError(f"E has shape {coo.dims}, the factors {factors.dims}")
    plan = coo.plans[mode]
    out = np.zeros((factors.rank ** 2, plan.n_rows))
    if len(plan.starts):
        for rows, block in _table_blocks(factors, mode, 8 * len(plan.cols)):
            gathered = np.take(block, plan.cols, axis=1)
            if plan.values is not None:
                gathered *= plan.values
            # reduceat over the non-empty runs only: an empty one would read its neighbour
            out[rows, plan.rows] = np.add.reduceat(gathered, plan.starts, axis=1)
            del gathered  # before the next block's matmul
    return out.T


def f3tn_contract(factors: FactorTriple) -> np.ndarray:
    """Full reconstruction of the (I, J, N) tensor from the factor triple:
    R_i = G_i @ H_i, with H_i as mode i's pair table, whose columns j*N + n
    are R's C order (O(f^3 J N) for the table, then O(I f^2 J N))."""
    return (matricize_factor(factors.g_i, "i") @ pair_table(factors, "i")).reshape(factors.dims)


def cell_values(factors: FactorTriple, i, j, n) -> np.ndarray:
    """The reconstruction at the cells (i[k], j[k], n[k]), O(f^2) per cell
    after mode j's pair table at the cells' distinct columns: row j of G_j
    against column i*N + n of the table, and no full tensor. The table is
    made a block of columns at a time, whose cells go a block at a time; the
    table block and the cells' two gathered operands hold BLOCK_BYTES / 2 each."""
    cols = np.ravel_multi_index((i, n), (factors.dims[0], factors.dims[2]))
    j = np.asarray(j)
    if len(cols) == 1:
        # np.einsum sums a lone cell's products in another order than those
        # of several cells, so a lone cell is scored as a pair with itself
        return cell_values(factors, np.repeat(i, 2), np.repeat(j, 2), np.repeat(n, 2))[:1]
    # the distinct columns marked over the table's width, and each cell's
    # position among them from the marks' running count: np.unique's values
    # and inverse without its sort
    touched = np.zeros(factors.dims[0] * factors.dims[2], dtype=bool)
    touched[cols] = True
    used = np.flatnonzero(touched)
    cols = np.cumsum(touched)[cols] - 1
    g_j = matricize_factor(factors.g_j, "j")
    out = np.empty(len(cols))
    # row_blocks keeps two columns, and so two cells, in every block
    for block in row_blocks(len(used), 16 * g_j.shape[1]):
        table = pair_table(factors, "j", used[block])
        mine = np.flatnonzero((cols >= block.start) & (cols < block.stop))
        for cells in row_blocks(len(mine), 32 * g_j.shape[1]):
            k = mine[cells]
            out[k] = np.einsum("mk,km->m", g_j[j[k]], np.take(table, cols[k] - block.start, 1))
    return out


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of one BLAS dot of the entries with themselves."""
    v = np.ascontiguousarray(t, dtype=np.float64).ravel()
    return float(np.sqrt(np.dot(v, v)))
