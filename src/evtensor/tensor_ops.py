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

    unfold(T, 'i') is I x (J*N) with column n*J + j   (j fastest)
    unfold(T, 'j') is J x (I*N) with column n*I + i   (i fastest)
    unfold(T, 'n') is N x (I*J) with column j*I + i   (i fastest)

    matricize_factor flattens the two latent axes of a factor with the
    first-listed index fastest: (x,y) -> y*f + x for mode i, (x,z) -> z*f + x
    for mode j, (y,z) -> z*f + y for mode n.

With those layouts, for every mode m:

    unfold(contract(factors), m) == matricize_factor(g_m, m) @ pair_contraction
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
        if mode == "i":
            return self.g_i
        if mode == "j":
            return self.g_j
        if mode == "n":
            return self.g_n
        raise ValueError(f"unknown mode {mode!r}")


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


def f3tn_contract(factors: FactorTriple) -> np.ndarray:
    """Full reconstruction of the (I, J, N) tensor from the factor triple.

    Contracts g_j and g_n over z first (cost f^3*J*N), then folds in g_i
    (cost I*f^2*J*N) -- cheapest order for f much smaller than I, J, N.
    """
    g_i, g_j, g_n = factors.g_i, factors.g_j, factors.g_n
    f = factors.rank
    ii, jj, nn = factors.dims
    # (x,j,z) x (y,z,n) -> (x,j,y,n), then pair up (x,y) against g_i's (x,y)
    t = np.tensordot(g_j, g_n, axes=(2, 1))
    t = t.transpose(0, 2, 1, 3).reshape(f * f, jj * nn)
    out = g_i.reshape(ii, f * f) @ t
    return out.reshape(ii, jj, nn)


def unfold(tensor: np.ndarray, mode: str) -> np.ndarray:
    """Matricize a 3rd-order tensor along one mode (layouts in module docstring)."""
    if tensor.ndim != 3:
        raise ShapeError(f"expected a 3rd-order tensor, got ndim={tensor.ndim}")
    ii, jj, nn = tensor.shape
    if mode == "i":
        return tensor.transpose(0, 2, 1).reshape(ii, nn * jj)
    if mode == "j":
        return tensor.transpose(1, 2, 0).reshape(jj, nn * ii)
    if mode == "n":
        return tensor.transpose(2, 1, 0).reshape(nn, jj * ii)
    raise ValueError(f"unknown mode {mode!r}")


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


def partial_contract_pair(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """Contract the two factors complementary to `mode` over their shared latent index.

    `mode` names the omitted factor; the remaining pair is passed in canonical
    order (mode 'i': a=g_j, b=g_n; mode 'j': a=g_i, b=g_n; mode 'n': a=g_i,
    b=g_j). Returns the f^2 x (product of the two open data dims) matrix H_m
    satisfying unfold(reconstruction, m) == matricize_factor(g_m, m) @ H_m.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError("partial contraction expects two 3rd-order factors")
    if mode == "i":
        # a=(x,j,z), b=(y,z,n); rows (x,y) x-fastest, cols (j,n) j-fastest
        f, jj, fz = a.shape
        fy, fz2, nn = b.shape
        if not (f == fz == fy == fz2):
            raise ShapeError(f"latent dims disagree: g_j {a.shape}, g_n {b.shape}")
        h = np.einsum("xjz,yzn->yxnj", a, b)
        return h.reshape(f * f, nn * jj)
    if mode == "j":
        # a=(i,x,y), b=(y,z,n); rows (x,z) x-fastest, cols (i,n) i-fastest
        ii, f, fy = a.shape
        fy2, fz, nn = b.shape
        if not (f == fy == fy2 == fz):
            raise ShapeError(f"latent dims disagree: g_i {a.shape}, g_n {b.shape}")
        h = np.einsum("ixy,yzn->zxni", a, b)
        return h.reshape(f * f, nn * ii)
    if mode == "n":
        # a=(i,x,y), b=(x,j,z); rows (y,z) y-fastest, cols (i,j) i-fastest
        ii, f, fy = a.shape
        fx, jj, fz = b.shape
        if not (f == fy == fx == fz):
            raise ShapeError(f"latent dims disagree: g_i {a.shape}, g_j {b.shape}")
        h = np.einsum("ixy,xjz->zyji", a, b)
        return h.reshape(f * f, jj * ii)
    raise ValueError(f"unknown mode {mode!r}")


def pair_contraction(factors: FactorTriple, mode: str) -> np.ndarray:
    """The mode-m partial contraction of a triple's other two factors."""
    if mode == "i":
        return partial_contract_pair(factors.g_j, factors.g_n, "i")
    if mode == "j":
        return partial_contract_pair(factors.g_i, factors.g_n, "j")
    if mode == "n":
        return partial_contract_pair(factors.g_i, factors.g_j, "n")
    raise ValueError(f"unknown mode {mode!r}")


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm: sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(t, dtype=np.float64))))


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between two same-shaped arrays."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frob_norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
