import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtensor import tensor_ops
from evtensor.errors import ShapeError
from evtensor.events import bin_to_tensor
from evtensor.synth import generate, load_scene_spec
from evtensor.tensor_ops import (
    MODES,
    CooPlan,
    FactorStack,
    FactorTriple,
    cell_values,
    coo_rhs,
    f3tn_contract,
    frob_norm,
    history_rhs,
    matricize_factor,
    pair_gram,
    pair_table,
    unmatricize_factor,
)

from oracles import (
    SCENES,
    cell_values_unblocked,
    contract_bruteforce,
    coo_cells,
    coo_plans,
    coo_rhs_unblocked,
    event_tensor,
    fold,
    frob_dist,
    odd_tensors,
    pair_contraction,
    pair_table_batched,
    partial_contract_pair,
    random_factors,
    unfold,
    unfold_bruteforce,
)


def _plan(data, mode) -> CooPlan:
    """E's mode-m sort plan from a dense 0/1 array, through its EventTensor."""
    tensor = event_tensor(data)
    return CooPlan.of(tensor.dims, tensor.cells, mode)


def _sparse(rng, dims, density=0.3):
    return (rng.random(dims) < density).astype(float)


def test_contract_rank1_is_outer_product():
    a = np.array([1.0, 2.0, -3.0])
    b = np.array([0.5, 4.0])
    c = np.array([2.0, -1.0, 0.0, 7.0])
    factors = FactorTriple(
        g_i=a.reshape(3, 1, 1), g_j=b.reshape(1, 2, 1), g_n=c.reshape(1, 1, 4)
    )
    expected = np.einsum("i,j,n->ijn", a, b, c)
    np.testing.assert_allclose(f3tn_contract(factors), expected, rtol=1e-14)


def test_contract_zero_factor_annihilates():
    rng = np.random.default_rng(1)
    factors = random_factors(rng, (3, 4, 2), 2)
    zeroed = FactorTriple(g_i=factors.g_i, g_j=np.zeros_like(factors.g_j), g_n=factors.g_n)
    assert not f3tn_contract(zeroed).any()


def test_contract_matches_bruteforce():
    rng = np.random.default_rng(42)
    factors = random_factors(rng, (3, 3, 3), 2)
    expected = contract_bruteforce(factors.g_i, factors.g_j, factors.g_n)
    got = f3tn_contract(factors)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_contract_matches_bruteforce_random_shapes(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(1, 5, size=3))
    f = int(rng.integers(1, 4))
    factors = random_factors(rng, dims, f)
    expected = contract_bruteforce(factors.g_i, factors.g_j, factors.g_n)
    np.testing.assert_allclose(f3tn_contract(factors), expected, rtol=1e-12, atol=1e-14)


def test_factor_rank_mismatch_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        FactorTriple(
            g_i=rng.normal(size=(3, 2, 2)),
            g_j=rng.normal(size=(3, 4, 3)),
            g_n=rng.normal(size=(2, 2, 5)),
        )


@pytest.mark.parametrize("shapes, message", [
    (((3, 2), (2, 4, 2), (2, 2, 5)), "factors must be 3rd-order arrays"),
    (((3, 2, 2), (2, 4, 2), (2, 2, 5, 1)), "factors must be 3rd-order arrays"),
    (((3, 0, 0), (0, 4, 0), (0, 0, 5)), "latent rank must be >= 1"),
], ids=["2d-g_i", "4d-g_n", "rank-0"])
def test_factors_not_3rd_order_or_of_rank_0_are_refused(shapes, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        FactorTriple(*(np.ones(shape) for shape in shapes))


def test_a_factor_of_an_unknown_mode_is_refused_by_name():
    factors = random_factors(np.random.default_rng(0), (3, 4, 5), 2)
    with pytest.raises(ValueError, match="^unknown mode 'k'$"):
        factors.factor("k")


def test_nonfinite_factor_rejected():
    g = np.zeros((2, 1, 1))
    bad = g.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ShapeError):
        FactorTriple(g_i=bad, g_j=np.zeros((1, 2, 1)), g_n=np.zeros((1, 1, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["g_i", "g_j", "g_n"])
def test_each_non_finite_value_in_each_factor_is_refused_by_name(name, value):
    g = dict(g_i=np.ones((3, 2, 2)), g_j=np.ones((2, 4, 2)), g_n=np.ones((2, 2, 5)))
    g[name][-1, 1, 0] = value
    with pytest.raises(ShapeError, match=f"^{name} contains non-finite values$"):
        FactorTriple(**g)


def test_finite_factors_whose_sum_overflows_are_accepted():
    # one sum over the three factors overflows to inf here (or, from -1e308
    # entries too, to nan); every entry is finite, and no warning is raised
    g = dict(g_i=np.full((3, 2, 2), 1e308), g_j=np.full((2, 4, 2), 1e308),
             g_n=np.full((2, 2, 5), -1e308))
    g["g_j"][0, 0, 0] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = FactorTriple(**g)
    assert factors.rank == 2


def test_unfold_layouts_match_hand_enumeration():
    # 2x2x2 with values 1..8: rows of the mode-i unfolding enumerate (j, n)
    # pairs j-fastest
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    for mode in "ijn":
        np.testing.assert_array_equal(unfold(t, mode), unfold_bruteforce(t, mode))
    np.testing.assert_array_equal(
        unfold(t, "i"),
        np.array([[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]]),
    )


def test_unfold_zero_tensor():
    assert not unfold(np.zeros((2, 3, 4)), "j").any()


@pytest.mark.parametrize("mode", "ijn")
def test_fold_unfold_roundtrip(mode):
    rng = np.random.default_rng(7)
    t = rng.normal(size=(3, 4, 5))
    np.testing.assert_array_equal(fold(unfold(t, mode), t.shape, mode), t)


@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    mode=st.sampled_from("ijn"),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_fold_unfold_roundtrip_property(dims, mode, seed):
    t = np.random.default_rng(seed).normal(size=dims)
    np.testing.assert_array_equal(fold(unfold(t, mode), dims, mode), t)


def test_fold_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        fold(np.zeros((2, 5)), (2, 3, 4), "i")


def test_pair_contraction_scalar_latent():
    # f=1, mode i: a 1 x (J*N) row of products g_j[0,j,0] * g_n[0,0,n]
    g_j = np.array([[[2.0], [3.0]]]).reshape(1, 2, 1)
    g_n = np.array([5.0, 7.0, 11.0]).reshape(1, 1, 3)
    h = partial_contract_pair(g_j, g_n, "i")
    assert h.shape == (1, 6)
    jj = 2
    for j in range(2):
        for n in range(3):
            assert h[0, n * jj + j] == g_j[0, j, 0] * g_n[0, 0, n]


def test_pair_contraction_zero_factor():
    rng = np.random.default_rng(3)
    g_j = np.zeros((2, 3, 2))
    g_n = rng.normal(size=(2, 2, 4))
    assert not partial_contract_pair(np.zeros((5, 2, 2)), g_j, "n").any()
    assert not partial_contract_pair(g_j, g_n, "i").any()


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("seed", range(5))
def test_unfolded_reconstruction_consistency(mode, seed):
    # the contract the solver relies on:
    # unfold(recon, m) == matricize_factor(g_m, m) @ H_m
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(2, 5, size=3))
    f = int(rng.integers(1, 4))
    factors = random_factors(rng, dims, f)
    recon = f3tn_contract(factors)
    h = pair_contraction(factors, mode)
    lhs = unfold(recon, mode)
    rhs = matricize_factor(factors.factor(mode), mode) @ h
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_pair_contraction_shape_mismatch():
    with pytest.raises(ShapeError):
        partial_contract_pair(np.zeros((2, 3, 2)), np.zeros((3, 3, 4)), "i")


@pytest.mark.parametrize("mode", "ijn")
def test_matricize_roundtrip(mode):
    rng = np.random.default_rng(11)
    f = 3
    shape = {"i": (4, f, f), "j": (f, 5, f), "n": (f, f, 6)}[mode]
    g = rng.normal(size=shape)
    np.testing.assert_array_equal(unmatricize_factor(matricize_factor(g, mode), mode, f), g)


def test_frob_norm_basics():
    assert frob_norm(np.zeros((2, 2, 2))) == 0.0
    single = np.zeros((1, 1, 1))
    single[0, 0, 0] = 3.0
    assert frob_norm(single) == 3.0
    t = np.random.default_rng(5).normal(size=(3, 3, 3))
    assert frob_dist(t, t) == 0.0


def test_frob_dist_dim_mismatch():
    with pytest.raises(ShapeError):
        frob_dist(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_norm_invariant_under_balanced_rescaling():
    rng = np.random.default_rng(9)
    factors = random_factors(rng, (3, 4, 5), 2)
    alpha = 3.7
    rescaled = FactorTriple(
        g_i=factors.g_i * alpha, g_j=factors.g_j / alpha, g_n=factors.g_n
    )
    assert frob_norm(f3tn_contract(rescaled)) == pytest.approx(
        frob_norm(f3tn_contract(factors)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pair_gram and the sparse right-hand side against the explicit H_m and X_m of
# the oracles; coo_rhs takes X in coordinate form


def _assert_close(got, expected):
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 2, 3, 6])
def test_pair_gram_equals_explicit_gram(mode, f):
    factors = random_factors(np.random.default_rng(f), (7, 5, 4), f)
    h = pair_contraction(factors, mode)
    _assert_close(pair_gram(factors, mode), h @ h.T)


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 2, 3, 6])
def test_pair_rhs_equals_unfolded_product(mode, f):
    rng = np.random.default_rng(10 + f)
    factors = random_factors(rng, (7, 5, 4), f)
    x = _sparse(rng, (7, 5, 4), density=0.5)
    _assert_close(coo_rhs(_plan(x, mode), factors),
                  unfold(x, mode) @ pair_contraction(factors, mode).T)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    f=st.integers(1, 4),
    mode=st.sampled_from("ijn"),
    seed=st.integers(0, 2**16),
)
def test_pair_gram_and_rhs_property(dims, f, mode, seed):
    rng = np.random.default_rng(seed)
    factors = random_factors(rng, dims, f)
    x = _sparse(rng, dims, density=0.5)
    h = pair_contraction(factors, mode)
    _assert_close(pair_gram(factors, mode), h @ h.T)
    _assert_close(coo_rhs(_plan(x, mode), factors), unfold(x, mode) @ h.T)


def test_pair_rhs_shape_mismatch():
    factors = random_factors(np.random.default_rng(0), (3, 4, 5), 2)
    with pytest.raises(ShapeError):
        coo_rhs(_plan(np.zeros((3, 4, 6)), "i"), factors)


UNEVEN_DIMS = [(3, 8, 5), (9, 2, 6), (4, 6, 11)]


@pytest.mark.parametrize("dims", UNEVEN_DIMS)
@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 2, 3, 6])
def test_pair_rhs_equals_unfolded_product_on_uneven_shapes(dims, mode, f):
    rng = np.random.default_rng(20 + f)
    factors = random_factors(rng, dims, f)
    x = _sparse(rng, dims, density=0.5)
    _assert_close(coo_rhs(_plan(x, mode), factors),
                  unfold(x, mode) @ pair_contraction(factors, mode).T)


@pytest.mark.parametrize("dims", [(7, 5, 4)] + UNEVEN_DIMS)
@pytest.mark.parametrize("mode", "jn")
@pytest.mark.parametrize("f", [1, 3, 6])
def test_pair_rhs_with_the_shared_product_is_bit_identical(dims, mode, f):
    rng = np.random.default_rng(30 + f)
    factors = random_factors(rng, dims, f)
    x = _sparse(rng, dims, density=0.5)
    # the sort plan a solve makes once per mode and every sweep shares:
    # reading it leaves it as it was
    shared = _plan(x, mode)
    assert shared.cols.shape == (x.sum(),) and shared.dims == dims and shared.mode == mode
    first = coo_rhs(shared, factors)
    np.testing.assert_array_equal(coo_rhs(shared, factors), first)
    np.testing.assert_array_equal(coo_rhs(_plan(x, mode), factors), first)


def test_pair_rhs_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'k'"):
        _plan(np.zeros((3, 4, 5)), "k")


# ---------------------------------------------------------------------------
# sparse E: coordinates, sort plans, pair tables and the per-cell sum


@pytest.mark.parametrize("kind", ["ones", "bool"])
def test_coo_sq_norm_is_the_dot_of_the_values(kind):
    # E holds only 1s, so its squared norm is its cell count, each plan's length
    mask = np.random.default_rng(4).random((30, 20, 10)) < 0.1
    data = mask.astype(np.uint8) if kind == "ones" else mask
    values = data[np.nonzero(data)].astype(np.float64)
    for mode in MODES:
        assert len(_plan(data, mode).cols) == float(np.dot(values, values)) == mask.sum()


def _assert_plans_equal(dims, flat, expected):
    for mode, (cols, starts, rows) in expected.items():
        plan = CooPlan.of(dims, flat, mode)
        for got, want in ((plan.cols, cols), (plan.starts, starts), (plan.rows, rows)):
            assert got.dtype == want.dtype, mode
            np.testing.assert_array_equal(got, want)


_ODD = list(odd_tensors())


@pytest.mark.parametrize("data", [d for _, d in _ODD], ids=[name for name, _ in _ODD])
def test_coo_plans_of_any_dtype_and_values_equal_the_sorted_ones(data):
    # the cells at the array's nonzeros, of every shape and layout
    flat = np.flatnonzero(data)
    np.testing.assert_array_equal(coo_cells(CooPlan.of(data.shape, flat, "i")), np.nonzero(data))
    _assert_plans_equal(data.shape, flat, coo_plans(data))


@pytest.mark.parametrize("seed", range(12))
def test_coo_plans_with_empty_rows_and_frames_equal_the_sorted_ones(seed):
    # seeds 3-11 give one axis 300 rows, past the 8-bit sort keys
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(4, 12, 3)]
    if seed >= 3:
        dims[seed % 3] = 300
    x = _holey(rng, dims).astype([np.uint8, np.float64][seed % 2])
    _assert_plans_equal(dims, event_tensor(x).cells, coo_plans(x))


def test_each_plan_equals_the_three_coordinate_construction_on_the_davis_scene():
    # each plan computes only its mode's index and column from the flat
    # indices; the oracle takes all three coordinates of every cell
    spec = load_scene_spec(SCENES / "davis.cfg")
    tensor = bin_to_tensor(generate(spec), spec.n_frames)
    _assert_plans_equal(tensor.dims, tensor.cells, coo_plans(tensor.data))


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 3, 6])
def test_coo_rhs_with_empty_rows_columns_and_frames(dense, mode, f):
    # zeroed slices on every axis leave empty runs between non-empty ones and
    # at both ends, the cases np.add.reduceat gets wrong when handed them;
    # a dense E fills the other runs nearly to their length
    rng = np.random.default_rng(40 + f)
    dims = (9, 7, 8)
    x = _sparse(rng, dims, density=0.9 if dense else 0.3)
    x[[0, 3, 4, 8]] = 0.0
    x[:, [0, 2, 6]] = 0.0
    x[:, :, [1, 5, 7]] = 0.0
    factors = random_factors(rng, dims, f)
    expected = unfold(x, mode) @ pair_contraction(factors, mode).T
    _assert_close(coo_rhs(_plan(x, mode), factors), expected)


@pytest.mark.parametrize("mode", "ijn")
def test_coo_rhs_of_the_zero_tensor_is_zero(mode):
    dims = (4, 3, 5)
    factors = random_factors(np.random.default_rng(1), dims, 2)
    got = coo_rhs(_plan(np.zeros(dims), mode), factors)
    assert got.shape == (dims["ijn".index(mode)], 4) and not got.any()


@pytest.mark.parametrize("mode", "ijn")
def test_coo_plan_runs_cover_each_row_once(mode):
    x = _sparse(np.random.default_rng(4), (6, 5, 7), density=0.2)
    x[:, :, 3] = 0.0
    x[2] = 0.0
    plan = _plan(x, mode)
    axis = "ijn".index(mode)
    counts = (x != 0).sum(axis=tuple(a for a in range(3) if a != axis))
    np.testing.assert_array_equal(plan.rows, np.flatnonzero(counts))
    np.testing.assert_array_equal(np.diff(np.append(plan.starts, len(plan.cols))), counts[counts > 0])
    # each nonzero's table column, the other two indices in C order
    slow, fast = (a for a in range(3) if a != axis)
    coords = np.nonzero(x)
    order = np.argsort(coords[axis], kind="stable")
    np.testing.assert_array_equal(plan.cols, (coords[slow] * x.shape[fast] + coords[fast])[order])


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 2, 4])
def test_pair_table_is_h_with_reordered_columns(mode, f):
    dims = (5, 4, 3)
    factors = random_factors(np.random.default_rng(f), dims, f)
    ii, jj, nn = dims
    h = pair_contraction(factors, mode)  # columns as in the unfolding
    table = pair_table(factors, mode)
    if mode == "i":  # unfolding column n*J + j, table column j*N + n
        h = h.reshape(f * f, nn, jj).transpose(0, 2, 1)
    elif mode == "j":  # n*I + i against i*N + n
        h = h.reshape(f * f, nn, ii).transpose(0, 2, 1)
    else:  # j*I + i against i*J + j
        h = h.reshape(f * f, jj, ii).transpose(0, 2, 1)
    _assert_close(table, h.reshape(f * f, -1))


def _stack(triples):
    return FactorStack(*(np.stack([getattr(t, g) for t in triples]) for g in ("g_i", "g_j", "g_n")))


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 2, 3])
def test_cross_pair_gram_equals_explicit_cross_products(mode, f):
    rng = np.random.default_rng(50 + f)
    dims = (6, 5, 4)
    past = [random_factors(rng, dims, f) for _ in range(3)]
    factors = random_factors(rng, dims, f)
    got = pair_gram(_stack(past), mode, factors)
    h = pair_contraction(factors, mode)
    assert got.shape == (3, f * f, f * f)
    for k, triple in enumerate(past):
        _assert_close(got[k], pair_contraction(triple, mode) @ h.T)
    # one term against itself is pair_gram
    _assert_close(pair_gram(_stack([factors]), mode, factors)[0], pair_gram(factors, mode))


def test_cross_pair_gram_needs_one_rank():
    rng = np.random.default_rng(5)
    with pytest.raises(ShapeError):
        pair_gram(_stack([random_factors(rng, (3, 3, 3), 2)]), "i",
                  random_factors(rng, (3, 3, 3), 3))


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", [1, 3])
def test_history_rhs_equals_the_weighted_dense_product(mode, f):
    rng = np.random.default_rng(60 + f)
    dims = (7, 4, 6)
    past = [random_factors(rng, dims, f) for _ in range(4)]
    weights = np.array([0.001, 0.01, 0.1, 0.9])
    factors = random_factors(rng, dims, f)
    x = sum(w * f3tn_contract(t) for w, t in zip(weights, past))
    _assert_close(history_rhs(_stack(past), weights, factors, mode),
                  unfold(x, mode) @ pair_contraction(factors, mode).T)


@pytest.mark.parametrize("f", [1, 2, 4])
def test_cell_values_equal_the_reconstruction_at_each_cell(f):
    rng = np.random.default_rng(f)
    factors = random_factors(rng, (5, 6, 7), f)
    i, j, n = rng.integers(0, 5, 30), rng.integers(0, 6, 30), rng.integers(0, 7, 30)
    expected = contract_bruteforce(factors.g_i, factors.g_j, factors.g_n)
    # the 30 cells, then the first 8 asked for four times each in a shuffled order, then none
    pick = rng.permutation(np.repeat(np.arange(8), 4))
    for cells in ((i, j, n), (i[pick], j[pick], n[pick]), (i[:0], j[:0], n[:0])):
        np.testing.assert_allclose(cell_values(factors, *cells), expected[cells],
                                   rtol=1e-12, atol=1e-14)


def test_cell_values_reject_a_frame_past_the_last():
    # i * N + n with n == N would name the next row's first frame
    factors = random_factors(np.random.default_rng(0), (5, 6, 7), 2)
    with pytest.raises(ValueError):
        cell_values(factors, np.array([1]), np.array([0]), np.array([7]))


# ---------------------------------------------------------------------------
# the blocked products against the unblocked ones they replaced, bit for bit


@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", range(1, 7))
@pytest.mark.parametrize("seed", range(5))
def test_pair_table_by_slices_is_bit_identical_to_the_batched_matmul(mode, f, seed):
    # one matmul per open latent index of the second factor makes the BLAS
    # calls the batched matmul makes, so the tables agree bit for bit at any
    # BLAS thread count; CI runs this at one thread and at the default
    rng = np.random.default_rng(seed)
    dims = [(7, 5, 4), (3, 8, 5), (40, 60, 30)][seed % 3]
    factors = random_factors(rng, dims, f)
    full = pair_table_batched(factors, mode)
    np.testing.assert_array_equal(pair_table(factors, mode), full)


@pytest.mark.parametrize("block_bytes", [1, 1500, 2 << 20])
@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", range(1, 7))
def test_pair_table_in_row_blocks_is_bit_identical_to_the_batched_matmul(
        monkeypatch, block_bytes, mode, f):
    # 1 byte: two open indices p (the one at f = 1) per matmul; 1500: two or
    # three; 2 MiB: a whole latent slice
    monkeypatch.setattr(tensor_ops, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(100 + f)
    factors = random_factors(rng, (9, 7, 8), f)
    full = pair_table_batched(factors, mode)
    np.testing.assert_array_equal(pair_table(factors, mode), full)


def _holey(rng, dims, density=0.3):
    # zeroed slices on every axis: empty runs between non-empty ones and at both ends
    x = _sparse(rng, dims, density)
    x[[0, 3, dims[0] - 1]] = 0.0
    x[:, [0, 2, dims[1] - 1]] = 0.0
    x[:, :, [1, dims[2] - 1]] = 0.0
    return x


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 100])
@pytest.mark.parametrize("block_bytes", [1, 24, 2 << 20])
def test_row_blocks_cover_the_rows_in_order_two_or_more_at_a_time(monkeypatch, n, block_bytes):
    monkeypatch.setattr(tensor_ops, "BLOCK_BYTES", block_bytes)
    blocks = tensor_ops.row_blocks(n, 8)
    step = max(2, block_bytes // 8)
    assert [k for b in blocks for k in range(n)[b]] == list(range(n))
    sizes = [len(range(n)[b]) for b in blocks]
    assert len(sizes) == -(-n // step) and all(size == step for size in sizes[:-1])


@pytest.mark.parametrize("block_bytes", [1, 5000, 2 << 20])
@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("mode", "ijn")
@pytest.mark.parametrize("f", range(1, 7))
def test_blocked_coo_rhs_is_bit_identical_to_one_gather(monkeypatch, block_bytes, dense, mode, f):
    # against the whole pair table and one gather. 1 byte: two table rows
    # per block; 5000: a few rows, some blocks cut inside a latent slice;
    # 2 MiB: one latent slice per block. A dense E gathers nearly every
    # column the empty slices leave
    monkeypatch.setattr(tensor_ops, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(70 + f)
    dims = (9, 7, 8)
    x = _holey(rng, dims, 0.9 if dense else 0.3)
    plan = _plan(x, mode)
    assert len(np.unique(plan.cols)) < x.size // dims["ijn".index(mode)]
    factors = random_factors(rng, dims, f)
    np.testing.assert_array_equal(coo_rhs(plan, factors), coo_rhs_unblocked(plan, factors))


@pytest.mark.parametrize("block_bytes", [1, 5000, 2 << 20])
@pytest.mark.parametrize("f", range(1, 7))
def test_blocked_cell_values_are_bit_identical_to_one_einsum(monkeypatch, block_bytes, f):
    # against the whole mode-j table and one einsum. 1 byte: two or three
    # table rows per block (one at f = 1); 5000 and 2 MiB: one latent slice
    # per block, a table row being 576 bytes here. A single cell scores as
    # it does among others, not as one einsum over it alone
    monkeypatch.setattr(tensor_ops, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(80 + f)
    dims = (9, 7, 8)
    factors = random_factors(rng, dims, f)
    i, j, n = np.nonzero(_holey(rng, dims))
    pick = rng.permutation(np.repeat(np.arange(10), 3))
    for cells in ((i, j, n), (i[pick], j[pick], n[pick]), (i[:0], j[:0], n[:0])):
        np.testing.assert_array_equal(cell_values(factors, *cells),
                                      cell_values_unblocked(factors, *cells))
    np.testing.assert_array_equal(cell_values(factors, i[:1], j[:1], n[:1]),
                                  cell_values_unblocked(factors, i, j, n)[:1])


@pytest.mark.parametrize("f", range(1, 7))
def test_a_cell_scored_alone_equals_its_score_in_a_batch(f):
    # np.einsum over one cell takes another summation order than over several;
    # at f = 2..6 most of these cells differed in the last bit when asked
    # alone. Added a table row at a time, each cell sums in one order
    rng = np.random.default_rng(90 + f)
    dims = (6, 5, 10)
    factors = random_factors(rng, dims, f)
    i, j, n = rng.integers(0, 6, 300), rng.integers(0, 5, 300), rng.integers(0, 10, 300)
    batch = cell_values(factors, i, j, n)
    alone = [cell_values(factors, i[k:k + 1], j[k:k + 1], n[k:k + 1])[0] for k in range(300)]
    np.testing.assert_array_equal(alone, batch)


def test_coo_rhs_peak_memory_is_two_blocks():
    # a DAVIS-sized E (260 x 346 x 100, 0.64% dense) at f = 6. The pair
    # tables at E's columns are 7.4 MB in mode n and one per-slice matmul 4.3
    # MB; no table is held, each block of its rows, with its gather and the
    # matmul behind it, stays under BLOCK_BYTES at two rows and more
    dims, f = (260, 346, 100), 6
    rng = np.random.default_rng(0)
    flat = np.flatnonzero(rng.random(dims) < 0.0064)
    factors = random_factors(rng, dims, f)
    for mode in "ijn":
        plan = CooPlan.of(dims, flat, mode)
        tracemalloc.start()
        try:
            coo_rhs(plan, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * tensor_ops.BLOCK_BYTES + (1 << 20), mode


@pytest.mark.parametrize("dense", [True, False])
def test_coo_tensor_retains_only_its_plans(dense):
    # a DAVIS-sized E (260 x 346 x 100, 0.64% dense, 57.8k cells; dense: 3%,
    # 270k cells). Its coordinates, 1.4 MB at 0.64%, live only while the
    # plans are made
    dims = (260, 346, 100)
    rng = np.random.default_rng(0)
    flat = np.flatnonzero(rng.random(dims) < (0.03 if dense else 0.0064))
    tracemalloc.start()
    try:
        plans = [CooPlan.of(dims, flat, mode) for mode in MODES]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for plan in plans for a in (plan.cols, plan.starts, plan.rows))
    assert retained < held + (64 << 10)
    assert all(len(plan.cols) == len(flat) for plan in plans)
