"""Dense 3rd-order tensor arithmetic for the fully-connected 3-factor network.

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

The solver never forms X_m or H_m: pair_gram gives H_m H_m^T from per-factor
Grams and pair_rhs gives X_m H_m^T from X's own (I, J, N) layout. Mode i is
one batched matmul of g_j against X's (J, N) slices, then g_n over (z, n).
Modes j and n both start from gi_x_product, V = matricize_factor(g_i, "i")^T
X_(I, J*N), and finish with g_n over (y, n) or g_j over (x, j) in O(J*N*f^3),
so a solver sweep computes V once for the two of them.
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


def _latent_gram(g: np.ndarray, data_axis: int, shared_axis: int) -> np.ndarray:
    """A factor's Gram over its data axis, as the (p, p') x (s, s') matrix with
    p its open latent axis and s the latent axis it shares."""
    m = g.transpose(data_axis, 3 - data_axis - shared_axis, shared_axis)
    d, f, _ = m.shape
    m = m.reshape(d, f * f)
    return (m.T @ m).reshape(f, f, f, f).transpose(0, 2, 1, 3).reshape(f * f, f * f)


def pair_gram(factors: FactorTriple, mode: str) -> np.ndarray:
    """H_m H_m^T from the two other factors' own Grams, O((I+J+N) f^4 + f^6),
    without forming H_m: for mode i, (H_i H_i^T)[(x,y),(x',y')] =
    sum_{z,z'} Gram(g_j)[x,z,x',z'] Gram(g_n)[y,z,y',z']."""
    if mode not in PAIRS:
        raise ValueError(f"unknown mode {mode!r}")
    f = factors.rank
    a, b = (_latent_gram(getattr(factors, name), data, shared)
            for name, data, shared in PAIRS[mode])
    out = (a @ b.T).reshape(f, f, f, f)  # (p, p', q, q'); rows (p, q) p fastest
    return out.transpose(2, 0, 3, 1).reshape(f * f, f * f)


def gi_x_product(x: np.ndarray, g_i: np.ndarray) -> np.ndarray:
    """The (f^2, J*N) product V = matricize_factor(g_i, "i")^T X_(I, J*N), one
    I*J*N*f^2 matmul: V[y*f + x, j*N + n] = sum_i g_i[i,x,y] x[i,j,n]. The
    mode-j and mode-n right-hand sides both start from it."""
    ii, jj, nn = x.shape
    return matricize_factor(g_i, "i").T @ x.reshape(ii, jj * nn)


def pair_rhs(x: np.ndarray, factors: FactorTriple, mode: str,
             gi_x: np.ndarray | None = None) -> np.ndarray:
    """X_m H_m^T, read from X's (I, J, N) layout with no unfolding or H_m.

    Mode i is one batched matmul of g_j against X's (J, N) slices, then g_n
    over (z, n). Modes j and n contract `gi_x`, the gi_x_product of X and
    factors.g_i, with g_n over (y, n) or with g_j over (x, j), each
    O(J*N*f^3); it is computed here when not given. A caller that passes it
    must have taken it from the current g_i."""
    f = factors.rank
    ii, jj, nn = factors.dims
    if x.shape != (ii, jj, nn):
        raise ShapeError(f"X has shape {x.shape}, the factors {(ii, jj, nn)}")
    if mode == "i":
        # w[i, x*f + z, n] = sum_j g_j[x,j,z] x[i,j,n]
        w = factors.g_j.transpose(0, 2, 1).reshape(f * f, jj) @ x
        # sum over (z, n) against g_n -> (i, x, y): column y*f + x
        p = w.reshape(ii, f, f * nn) @ factors.g_n.reshape(f, f * nn).T
        return p.transpose(0, 2, 1).reshape(ii, f * f)
    if mode not in ("j", "n"):
        raise ValueError(f"unknown mode {mode!r}")
    if gi_x is None:
        gi_x = gi_x_product(x, factors.g_i)
    v = gi_x.reshape(f, f * jj, nn)  # (y, (x, j), n)
    if mode == "j":
        # per y, sum over n against g_n[y]; then over y -> (x, j, z): column z*f + x
        p = (v @ factors.g_n.transpose(0, 2, 1)).sum(axis=0)
        return p.reshape(f, jj, f).transpose(1, 2, 0).reshape(jj, f * f)
    # sum over (x, j) against g_j -> (y, z, n): column z*f + y
    p = factors.g_j.reshape(f * jj, f).T @ v
    return p.transpose(2, 1, 0).reshape(nn, f * f)


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of one BLAS dot of the entries with themselves."""
    v = np.ascontiguousarray(t, dtype=np.float64).ravel()
    return float(np.sqrt(np.dot(v, v)))
