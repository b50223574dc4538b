import dataclasses
import io
import math
import tracemalloc
import types

import numpy as np
import pytest

import evtensor.solver as solver_module
import evtensor.tensor_ops as tensor_ops_module
import oracles
from evtensor.errors import NumericalError
from evtensor.events import EventStream, bin_to_tensor
from evtensor.solver import (
    SolverConfig,
    grow_rank,
    init_state,
    load_checkpoint,
    save_checkpoint,
    solve,
    update_factor,
    write_trace_csv,
)
from evtensor.synth import ObjectSpec, SceneSpec, generate, load_scene_spec
from evtensor.tensor_ops import (
    FactorTriple,
    f3tn_contract,
    frob_norm,
    matricize_factor,
    pair_gram,
)

from oracles import (
    DenseState,
    blend_x,
    dense_target,
    event_tensor,
    frob_dist,
    init_dense_state,
    objective,
    objective_bruteforce,
    pair_contraction,
    pair_rhs,
    quasi_identity,
    random_factors,
    scalar_rank1_factor_update,
    solve_dense,
    unfold,
    update_x,
)


def binary(seed, dims, density=0.5):
    """A random 0/1 E as an EventTensor."""
    return event_tensor(np.random.default_rng(seed).random(dims) < density)


def update(state, mode, cfg):
    """update_factor fed the product and Gram a solve's loop forms for the
    current factors."""
    product, _ = state.target.product(state.factors, mode)
    return update_factor(state, mode, cfg, product, pair_gram(state.factors, mode))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(f_max=0)
    with pytest.raises(ValueError):
        SolverConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(lambda2=0.0)


@pytest.mark.parametrize("name, value", [("grow_tol", 1e-2), ("conv_tol", 1e-3),
                                         ("init_scale", 0.1)])
def test_stop_thresholds_and_init_scale_are_class_constants(name, value):
    # a fixed protocol: read through any config, set by no caller
    assert getattr(SolverConfig(), name) == value
    assert name not in {f.name for f in dataclasses.fields(SolverConfig)}
    with pytest.raises(TypeError):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["lambda1", "lambda2"])
def test_config_rejects_non_finite_values(name, value):
    # NaN slips past every comparison check, inf past the sign checks
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, True])
@pytest.mark.parametrize("name", ["f_max", "s_max", "seed"])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [-1, np.int64(-3)], ids=["int", "numpy"])
def test_config_rejects_a_negative_seed(value):
    # once accepted, then refused inside solve by numpy's default_rng with a
    # bare "expected non-negative integer" that named no field
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(seed=value)


def test_fractional_rank_cap_is_refused_and_numpy_integers_pass():
    # growth runs while f < f_max, so f_max = 2.5 used to end at rank 3
    with pytest.raises(ValueError, match="f_max"):
        SolverConfig(f_max=2.5, s_max=200)
    cfg = SolverConfig(f_max=np.int64(3), s_max=np.int32(40), seed=np.uint8(2))
    _, state = solve(binary(6, (6, 6, 6), 0.3), cfg)
    assert max(r.f for r in state.trace) <= 3


# ---------------------------------------------------------------------------
# init_state


def test_initial_rank_formula():
    e = np.zeros((4, 4, 4))
    e[0, 0, 0] = 1.0
    e = event_tensor(e)
    assert init_state(e, SolverConfig(f_max=6)).f == 1
    assert init_state(e, SolverConfig(f_max=10)).f == 5
    assert init_state(e, SolverConfig(f_max=1)).f == 1


@pytest.mark.parametrize("e", [np.ones((3, 4, 5)), np.ones((3, 4, 5), dtype=np.uint8),
                               np.ones((4, 4)), binary(0, (3, 4, 5)).data],
                         ids=["float64", "uint8", "matrix", "dense-data"])
@pytest.mark.parametrize("entry", [solve, init_state])
def test_the_solver_takes_only_an_event_tensor(monkeypatch, entry, e):
    # refused before any sort plan or factor is made
    monkeypatch.setattr(solver_module, "CooPlan", None)
    monkeypatch.setattr(solver_module, "_random_factors", None)
    with pytest.raises(TypeError, match=r"takes an EventTensor\(cells, dims, bin_edges\), "
                                        r"as bin_to_tensor makes it, not ndarray"):
        entry(e, SolverConfig(s_max=1))


def test_init_is_seeded_deterministic():
    e = binary(0, (3, 3, 3))
    a = init_state(e, SolverConfig(seed=42))
    b = init_state(e, SolverConfig(seed=42))
    np.testing.assert_array_equal(a.factors.g_i, b.factors.g_i)
    np.testing.assert_array_equal(a.factors.g_n, b.factors.g_n)
    c = init_state(e, SolverConfig(seed=43))
    assert not np.array_equal(a.factors.g_i, c.factors.g_i)


def test_init_x_is_e_as_float():
    e = binary(1, (3, 4, 5), 0.3)
    before = e.cells.copy()
    state = init_state(e, SolverConfig())
    assert state.target.e_weight == 1.0 and len(state.target.history) == 0
    np.testing.assert_array_equal(dense_target(state.target), e.data.astype(np.float64))
    assert state.target.sq_norm == float(len(e.cells))
    assert (state.factors.g_i >= 0).all() and (state.factors.g_i <= 0.1).all()
    # the plans are E's own: writing into them leaves the tensor's cells as they were
    for plan in state.target.e.values():
        for a in (plan.cols, plan.starts, plan.rows):
            a[...] = 7
    np.testing.assert_array_equal(e.cells, before)


# ---------------------------------------------------------------------------
# update_factor


def zero_h_state(mode, lambda2, lambda1=0.0, f=2):
    """State whose mode-m pair contraction is exactly zero."""
    cfg = SolverConfig(lambda1=lambda1, lambda2=lambda2, seed=3)
    state = init_state(binary(0, (4, 5, 6)), cfg)
    g = dict(
        g_i=np.random.default_rng(1).uniform(0.1, 1.0, size=(4, f, f)),
        g_j=np.random.default_rng(2).uniform(0.1, 1.0, size=(f, 5, f)),
        g_n=np.random.default_rng(3).uniform(0.1, 1.0, size=(f, f, 6)),
    )
    # zero one of the *other* factors so H_mode vanishes
    other = {"i": "g_j", "j": "g_n", "n": "g_i"}[mode]
    g[other] = np.zeros_like(g[other])
    state.factors = FactorTriple(**g)
    return state, cfg


@pytest.mark.parametrize("mode", "ijn")
def test_proximal_fixed_point_exact(mode):
    # lambda2 = 0.25 has an exactly-representable Cholesky factor, so the
    # identity (lambda2 * g) / lambda2 holds bit-for-bit
    state, cfg = zero_h_state(mode, lambda2=0.25)
    assert not pair_contraction(state.factors, mode).any()
    before = state.factors.factor(mode).copy()
    updated, residual = update(state, mode, cfg)
    np.testing.assert_array_equal(updated.factor(mode), before)
    assert residual < 1e-12


@pytest.mark.parametrize("mode", "ijn")
def test_zero_h_with_l1_adds_quasi_identity_offset(mode):
    lambda1, lambda2 = 0.3, 0.25
    state, cfg = zero_h_state(mode, lambda2=lambda2, lambda1=lambda1)
    before = matricize_factor(state.factors.factor(mode), mode)
    updated, _ = update(state, mode, cfg)
    after = matricize_factor(updated.factor(mode), mode)
    expected = before + (lambda1 / lambda2) * quasi_identity(*before.shape)
    np.testing.assert_allclose(after, expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("mode", "ijn")
def test_rank1_update_matches_scalar_oracle(mode):
    cfg = SolverConfig(f_max=1, lambda1=0.2, lambda2=0.3, seed=5)
    e = binary(8, (2, 2, 2))
    state = init_state(e, cfg)
    h = pair_contraction(state.factors, mode)
    x_mat = unfold(e.data.astype(np.float64), mode)  # X starts as E
    g_old = matricize_factor(state.factors.factor(mode), mode)[:, 0]
    expected = scalar_rank1_factor_update(x_mat, h[0], g_old, cfg.lambda1, cfg.lambda2)
    updated, _ = update(state, mode, cfg)
    got = matricize_factor(updated.factor(mode), mode)[:, 0]
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_sweep_is_gauss_seidel_in_mode_order():
    # one solve iteration == manual i -> j -> n factor updates (each seeing the
    # freshest factors) followed by the X blend
    cfg = SolverConfig(f_max=6, lambda1=0.1, lambda2=0.3, s_max=1, seed=4)
    e = binary(2, (4, 4, 4))
    manual = init_state(e, cfg)
    for mode in "ijn":
        manual.factors, _ = update(manual, mode, cfg)
    alpha, beta = 1.0 / (1.0 + cfg.lambda2), cfg.lambda2 / (1.0 + cfg.lambda2)
    recon = f3tn_contract(manual.factors)
    factors, state = solve(e, cfg)
    np.testing.assert_array_equal(factors.g_i, manual.factors.g_i)
    np.testing.assert_array_equal(factors.g_j, manual.factors.g_j)
    np.testing.assert_array_equal(factors.g_n, manual.factors.g_n)
    # the target holds the blend as beta E + alpha R
    e = e.data.astype(np.float64)
    np.testing.assert_array_equal(dense_target(state.target), beta * e + alpha * recon)
    np.testing.assert_allclose(dense_target(state.target), blend_x(recon, e, cfg.lambda2),
                               rtol=1e-14)


def test_update_factor_nonfinite_raises_with_iteration():
    cfg = SolverConfig(seed=0)
    state = init_state(binary(0, (3, 3, 3)), cfg)
    state.s = 17
    product, _ = state.target.product(state.factors, "i")
    product[0, 0] = np.inf
    with pytest.raises(NumericalError, match="non-finite values entering the mode-i solve") as err:
        update_factor(state, "i", cfg, product, pair_gram(state.factors, "i"))
    assert err.value.iteration == 17


def update_inputs(state, mode):
    """The product and Gram a solve's loop hands update_factor."""
    return state.target.product(state.factors, mode)[0], pair_gram(state.factors, mode)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["product", "gram"])
def test_update_factor_refuses_each_non_finite_value_in_either_input(value, where):
    cfg = SolverConfig(seed=0)
    state = init_state(binary(0, (3, 3, 3)), cfg)
    inputs = dict(zip(("product", "gram"), update_inputs(state, "j")))
    inputs[where][-1, 0] = value
    with pytest.raises(NumericalError, match="non-finite values entering the mode-j solve"):
        update_factor(state, "j", cfg, **inputs)


@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("lambda1", [0.0, 0.3])
@pytest.mark.parametrize("mode", "ijn")
def test_update_factor_diagonal_edits_are_bit_identical_to_diag_indices(mode, lambda1, f):
    # dims (3, 9, 5): at f = 2 the right-hand side is 3 x 4 in mode i (fewer
    # rows than f^2), 9 x 4 and 5 x 4 in modes j and n (more); at f = 3 it is
    # 3 x 9, 9 x 9 (square) and 5 x 9
    cfg = SolverConfig(f_max=f, lambda1=lambda1, lambda2=0.2, seed=6)
    state = init_state(binary(6, (3, 9, 5), 0.4), cfg)
    state.factors = random_factors(np.random.default_rng(7), (3, 9, 5), f, lo=0.0)
    product, gram = update_inputs(state, mode)
    updated, residual = update_factor(state, mode, cfg, product, gram)
    g_new, want = oracles.update_factor_diag_indices(state.factors, mode, cfg, product, gram)
    np.testing.assert_array_equal(matricize_factor(updated.factor(mode), mode), g_new)
    assert residual == want


def test_update_factor_singular_system_raises_with_iteration_and_mode():
    # a Gram of -lambda2 Id leaves A = 0, which no solve can factor
    cfg = SolverConfig(f_max=2, seed=0)
    state = init_state(binary(0, (3, 3, 3)), cfg)
    state.s = 5
    product, _ = state.target.product(state.factors, "j")
    with pytest.raises(NumericalError, match="mode-j") as err:
        update_factor(state, "j", cfg, product, -cfg.lambda2 * np.eye(state.f ** 2))
    assert err.value.iteration == 5


def test_residual_bound_on_random_problem():
    cfg = SolverConfig(f_max=4, lambda1=0.1, lambda2=0.1, seed=9)
    state = init_state(binary(9, (8, 8, 8)), cfg)
    for mode in "ijn":
        state.factors, residual = update(state, mode, cfg)
        assert residual <= 1e-8


@pytest.mark.parametrize("mode", "jn")
@pytest.mark.parametrize("lambda1", [0.0, 0.3])
def test_update_factor_with_the_shared_product_is_bit_identical(mode, lambda1):
    cfg = SolverConfig(f_max=6, lambda1=lambda1, lambda2=0.2, seed=12)
    state = init_state(binary(12, (9, 7, 5), 0.3), cfg)
    state.factors = random_factors(np.random.default_rng(13), (9, 7, 5), 4, lo=0.0)
    # solve hands mode n's product and Gram on to the closed forms after the
    # update, so update_factor must leave both as they were
    shared, _ = state.target.product(state.factors, mode)
    gram = pair_gram(state.factors, mode)
    kept = shared.copy(), gram.copy()
    first, res_first = update_factor(state, mode, cfg, shared, gram)
    np.testing.assert_array_equal(shared, kept[0])
    np.testing.assert_array_equal(gram, kept[1])
    again, res_again = update_factor(state, mode, cfg, shared, gram)
    np.testing.assert_array_equal(again.factor(mode), first.factor(mode))
    assert res_again == res_first


# ---------------------------------------------------------------------------
# the dense X update of the solve_dense oracle


def test_blend_degenerate_lambda2_zero():
    recon = np.random.default_rng(0).uniform(size=(3, 3, 3))
    x_old = np.random.default_rng(1).uniform(size=(3, 3, 3))
    np.testing.assert_array_equal(blend_x(recon, x_old, 0.0), recon)


def test_blend_fixed_point():
    x = np.random.default_rng(2).uniform(size=(3, 3, 3))
    np.testing.assert_allclose(blend_x(x, x, 0.7), x, rtol=1e-15)


def test_blend_is_midpoint_at_lambda2_one():
    recon = np.random.default_rng(3).uniform(size=(2, 2, 2))
    x_old = np.random.default_rng(4).uniform(size=(2, 2, 2))
    np.testing.assert_allclose(blend_x(recon, x_old, 1.0), (recon + x_old) / 2, rtol=1e-15)


def test_update_x_is_entrywise_convex_combination():
    cfg = SolverConfig(lambda2=0.4, seed=6)
    state = init_dense_state(binary(6, (4, 4, 4)), cfg)
    recon = f3tn_contract(state.factors)
    x_new, _ = update_x(state, cfg)
    lo = np.minimum(recon, state.x)
    hi = np.maximum(recon, state.x)
    assert (x_new >= lo - 1e-12).all() and (x_new <= hi + 1e-12).all()


def _sweep_states(cfg, sweeps=6, seed=11):
    """(state, x_new, step) at the X update of each of the first sweeps of a
    solve, with the factors updated and X advanced by hand."""
    state = init_dense_state(binary(seed, (7, 6, 5), 0.3), cfg)
    for _ in range(sweeps):
        for mode in "ijn":
            state.factors, _ = update_factor(state, mode, cfg,
                                             pair_rhs(state.x, state.factors, mode),
                                             pair_gram(state.factors, mode))
        x_old = state.x.copy()
        x_new, step = update_x(state, cfg)
        yield state, x_old, x_new, step
        state.x = x_new


@pytest.mark.parametrize("lambda2", [0.1, 0.4, 3.0])
def test_update_x_matches_the_blend_oracle(lambda2):
    cfg = SolverConfig(f_max=3, lambda2=lambda2, seed=2)
    for state, x_old, x_new, _ in _sweep_states(cfg):
        expected = blend_x(f3tn_contract(state.factors), x_old, lambda2)
        np.testing.assert_allclose(x_new, expected, rtol=1e-14)


def test_update_x_step_is_the_distance_moved():
    cfg = SolverConfig(f_max=3, lambda2=0.2, seed=5)
    for _, x_old, x_new, step in _sweep_states(cfg):
        assert step == pytest.approx(frob_dist(x_new, x_old), rel=1e-12)


def test_update_x_leaves_x_old_untouched():
    cfg = SolverConfig(f_max=3, lambda2=0.2, seed=5)
    for state, x_old, x_new, _ in _sweep_states(cfg):
        assert not np.shares_memory(x_new, state.x)
        np.testing.assert_array_equal(state.x, x_old)


def test_update_x_refuses_to_write_over_x_old():
    cfg = SolverConfig(f_max=2, seed=1)
    state = init_dense_state(binary(1, (4, 3, 5)), cfg)
    before = state.x.copy()
    for out in (state.x, state.x[...], state.x.reshape(-1).reshape(4, 3, 5)):
        with pytest.raises(ValueError):
            update_x(state, cfg, out=out)
    np.testing.assert_array_equal(state.x, before)


def test_update_x_into_out_is_bit_identical():
    cfg = SolverConfig(f_max=3, lambda2=0.3, seed=2)
    state = init_dense_state(binary(2, (5, 4, 6)), cfg)
    out = np.full(state.x.shape, np.nan)
    x_new, step = update_x(state, cfg, out=out)
    expected, expected_step = update_x(state, cfg)
    assert x_new is out
    np.testing.assert_array_equal(x_new, expected)
    assert step == expected_step


def test_solve_recycles_x_old_without_aliasing(monkeypatch):
    # from the second sweep on, the X update writes into the previous X_old;
    # it must never be handed the live X, and X_new must still be the blend
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    monkeypatch.setattr(SolverConfig, "grow_tol", 1e-11)
    cfg = SolverConfig(f_max=3, lambda2=0.2, s_max=6, seed=4)
    e = binary(4, (7, 6, 5), 0.3)
    outs = []

    def checking_update_x(state, cfg, out=None):
        assert out is None or not np.shares_memory(out, state.x)
        expected = blend_x(f3tn_contract(state.factors), state.x, cfg.lambda2)
        x_old = state.x.copy()
        x_new, step = update_x(state, cfg, out=out)
        assert out is None or x_new is out
        np.testing.assert_array_equal(state.x, x_old)
        np.testing.assert_allclose(x_new, expected, rtol=1e-14)
        outs.append(out)
        return x_new, step

    monkeypatch.setattr(oracles, "update_x", checking_update_x)
    _, state = solve_dense(e, cfg)
    assert state.s == 6
    assert outs[0] is None and all(out is not None for out in outs[1:])


# ---------------------------------------------------------------------------
# grow_rank


def test_grow_rank_noop_at_cap():
    cfg = SolverConfig(f_max=1, seed=0)
    state = init_state(binary(0, (3, 3, 3)), cfg)
    before = state.factors
    grow_rank(state, cfg)
    assert state.factors is before


def test_grow_rank_preserves_old_entries_and_reconstruction():
    cfg = SolverConfig(f_max=3, seed=11)
    state = init_state(binary(11, (5, 4, 6)), cfg)
    old = state.factors
    recon_before = f3tn_contract(old)
    grow_rank(state, cfg)
    new = state.factors
    assert new.rank == old.rank + 1
    np.testing.assert_array_equal(new.g_i[:, :1, :1], old.g_i)
    np.testing.assert_array_equal(new.g_j[:1, :, :1], old.g_j)
    np.testing.assert_array_equal(new.g_n[:1, :1, :], old.g_n)
    # with new entries zeroed the old reconstruction is recovered exactly
    zi, zj, zn = new.g_i.copy(), new.g_j.copy(), new.g_n.copy()
    zi[:, 1:, :] = 0.0
    zi[:, :, 1:] = 0.0
    zj[1:, :, :] = 0.0
    zj[:, :, 1:] = 0.0
    zn[1:, :, :] = 0.0
    zn[:, 1:, :] = 0.0
    zeroed = FactorTriple(g_i=zi, g_j=zj, g_n=zn)
    np.testing.assert_allclose(f3tn_contract(zeroed), recon_before, rtol=1e-14)
    # and with the tiny noise in place the perturbation stays O(noise)
    drift = frob_dist(f3tn_contract(new), recon_before)
    assert drift < 1e-2 * frob_norm(recon_before) + 1e-2


def test_grow_rank_deterministic():
    cfg = SolverConfig(f_max=4, seed=21)
    e = binary(21, (3, 3, 3))
    s1 = init_state(e, cfg)
    s2 = init_state(e, cfg)
    grow_rank(s1, cfg)
    grow_rank(s2, cfg)
    np.testing.assert_array_equal(s1.factors.g_j, s2.factors.g_j)


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_fit():
    cfg = SolverConfig(seed=2)
    rng = np.random.default_rng(2)
    factors = random_factors(rng, (3, 3, 3), 1, lo=0.0, hi=1.0)
    state = DenseState(x=f3tn_contract(factors), factors=factors)
    assert objective(state) == 0.0


def test_objective_zero_factors_is_half_norm_squared():
    x = np.random.default_rng(4).uniform(size=(3, 3, 3))
    factors = FactorTriple(g_i=np.zeros((3, 1, 1)), g_j=np.zeros((1, 3, 1)),
                           g_n=np.zeros((1, 1, 3)))
    state = DenseState(x=x, factors=factors)
    assert objective(state) == pytest.approx(0.5 * frob_norm(x) ** 2, rel=1e-14)


def test_objective_matches_bruteforce():
    rng = np.random.default_rng(7)
    factors = random_factors(rng, (3, 2, 4), 2)
    x = rng.uniform(size=(3, 2, 4))
    state = DenseState(x=x, factors=factors)
    expected = objective_bruteforce(x, factors.g_i, factors.g_j, factors.g_n)
    assert objective(state) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# solve


def test_rank1_recovery():
    # a 0/1 outer product of three 0/1 vectors
    rng = np.random.default_rng(100)
    d = 16
    truth = FactorTriple(
        g_i=(rng.random((d, 1, 1)) < 0.6) * 1.0,
        g_j=(rng.random((1, d, 1)) < 0.6) * 1.0,
        g_n=(rng.random((1, 1, d)) < 0.6) * 1.0,
    )
    e = f3tn_contract(truth)
    cfg = SolverConfig(f_max=1, lambda1=0.0, lambda2=1e-3, s_max=200, seed=0)
    factors, state = solve(event_tensor(e), cfg)
    err = frob_dist(e, f3tn_contract(factors)) / frob_norm(e)
    assert err < 1e-2
    assert state.s <= 200


def test_all_zero_input_terminates_finite():
    e = event_tensor(np.zeros((8, 8, 8)))
    cfg = SolverConfig(f_max=3, lambda1=0.2, lambda2=0.1, seed=0)
    factors, state = solve(e, cfg)
    assert state.converged
    for g in (factors.g_i, factors.g_j, factors.g_n):
        assert np.isfinite(g).all()
    assert np.isfinite(dense_target(state.target)).all()
    assert all(np.isfinite(r.rel_change) for r in state.trace)


def test_pam_descent_between_non_growth_sweeps(monkeypatch):
    e = binary(13, (10, 10, 10))
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    cfg = SolverConfig(f_max=4, lambda1=0.0, lambda2=0.1, s_max=80, seed=13)
    _, state = solve(e, cfg)
    objs = [r.objective for r in state.trace]
    grew = [r.grew for r in state.trace]
    for k in range(len(objs) - 1):
        if not grew[k]:
            assert objs[k + 1] <= objs[k] + 1e-9


def test_solve_deterministic_bitwise():
    e = binary(3, (6, 6, 6), 0.2)
    cfg = SolverConfig(f_max=3, lambda1=0.1, lambda2=0.1, s_max=50, seed=7)
    f1, s1 = solve(e, cfg)
    f2, s2 = solve(e, cfg)
    np.testing.assert_array_equal(f1.g_i, f2.g_i)
    np.testing.assert_array_equal(f1.g_j, f2.g_j)
    np.testing.assert_array_equal(f1.g_n, f2.g_n)
    assert [r.objective for r in s1.trace] == [r.objective for r in s2.trace]


def test_rank_monotone_and_capped():
    e = binary(5, (10, 10, 10), 0.1)
    cfg = SolverConfig(f_max=3, lambda1=0.1, lambda2=0.1, s_max=300, seed=1)
    _, state = solve(e, cfg)
    fs = [r.f for r in state.trace]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    assert max(fs) <= 3


def test_trace_audit_growth_and_termination():
    e = binary(3, (12, 12, 12), 0.05)
    cfg = SolverConfig(f_max=3, lambda1=0.1, lambda2=0.1, s_max=1000, seed=2)
    _, state = solve(e, cfg)
    trace = state.trace
    assert len(trace) == state.s
    for k, rec in enumerate(trace):
        expected_grow = rec.rel_change < cfg.grow_tol and rec.f < cfg.f_max
        assert rec.grew == expected_grow
        if k + 1 < len(trace):
            assert trace[k + 1].f == (rec.f + 1 if rec.grew else rec.f)
    assert state.converged
    last = trace[-1]
    assert last.rel_change < cfg.conv_tol and not last.grew
    # no early termination: every non-final sweep either grew or was above
    # conv_tol (growth skips the convergence check by design)
    for rec in trace[:-1]:
        assert rec.grew or rec.rel_change >= cfg.conv_tol


def test_solve_accepts_event_tensor():
    stream = EventStream(i=[0, 1, 2, 3], j=[0, 1, 2, 0], t=[0, 25, 50, 100],
                         geometry=(4, 4))
    tensor = bin_to_tensor(stream, 4)
    cfg = SolverConfig(f_max=2, s_max=30, seed=0)
    factors, state = solve(tensor, cfg)
    assert factors.dims == (4, 4, 4)
    assert state.s <= 30


def test_nonconvergent_run_returns_flagged():
    e = binary(1, (6, 6, 6))
    cfg = SolverConfig(f_max=2, s_max=3, lambda2=5.0, seed=0)  # heavy damping stalls
    _, state = solve(e, cfg)
    assert state.s == 3
    assert not state.converged


def test_max_residual_tracked_in_trace():
    e = binary(0, (8, 8, 8))
    cfg = SolverConfig(f_max=3, s_max=25, seed=0)
    _, state = solve(e, cfg)
    assert all(r.max_residual <= 1e-8 for r in state.trace)


def _solve_recording_blends(monkeypatch, e, cfg):
    """Run the solve_dense oracle while keeping each sweep's X_new and factors
    at the X update; returns the state and the explicit 0.5 ||X_new - R||^2 of
    every sweep."""
    seen = []

    def recording_update_x(state, cfg, out=None):
        x_new, step = update_x(state, cfg, out=out)
        # solve recycles X_new as a later sweep's buffer, so keep a copy
        seen.append((x_new.copy(), state.factors))
        return x_new, step

    monkeypatch.setattr(oracles, "update_x", recording_update_x)
    _, state = solve_dense(e, cfg)
    assert len(seen) == len(state.trace)
    explicit = [objective(DenseState(x=x_new, factors=fac)) for x_new, fac in seen]
    return state, explicit


def test_unclamped_trace_objective_is_the_explicit_half_squared_distance(monkeypatch):
    e = binary(21, (7, 6, 5), 0.3)
    cfg = SolverConfig(f_max=4, lambda1=0.1, lambda2=0.2, s_max=60, seed=3)
    state, explicit = _solve_recording_blends(monkeypatch, e, cfg)
    assert any(r.grew for r in state.trace)
    for rec, expected in zip(state.trace, explicit):
        assert rec.objective == pytest.approx(expected, rel=1e-10)
    # the library's closed form (no dense X) gives the same objectives
    _, sparse = solve(e, cfg)
    assert len(sparse.trace) == len(explicit)
    for rec, expected in zip(sparse.trace, explicit):
        assert rec.objective == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# artifact I/O


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(19)
    factors = random_factors(rng, (4, 5, 6), 3)
    path = str(tmp_path / "factors.ckpt")
    save_checkpoint(factors, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.g_i, factors.g_i)
    np.testing.assert_array_equal(loaded.g_j, factors.g_j)
    np.testing.assert_array_equal(loaded.g_n, factors.g_n)
    with open(path) as fh:
        assert fh.readline().strip() == "4 5 6 3"


def _spy_row_blocks(monkeypatch):
    """Every row_blocks call the row writer makes, as (row_bytes, blocks)."""
    import evtensor.events as events_module

    calls = []

    def spy(n, row_bytes):
        blocks = tensor_ops_module.row_blocks(n, row_bytes)
        calls.append((row_bytes, blocks))
        return blocks

    monkeypatch.setattr(events_module, "row_blocks", spy)
    return calls


def _block_rows(row_bytes):
    return tensor_ops_module.row_blocks(1 << 24, row_bytes)[0].stop


def test_checkpoint_is_savetxt_at_block_boundaries(monkeypatch):
    # the three matricized factors are one (I+J+N)-row table, written a
    # block at a time; block ends fall on and next to the g_i/g_j join (at
    # row I) and the g_j/g_n join (at row I+J). The text is np.savetxt's,
    # exact zeros, negative zeros and values outside the exact window
    # (written by Python's %) included
    calls = _spy_row_blocks(monkeypatch)
    rng = np.random.default_rng(23)
    save_checkpoint(random_factors(rng, (2, 2, 2), 2), io.StringIO())
    block = _block_rows(calls[-1][0])
    for dims in ((block - 1, 3, 2), (block, 3, 2), (block + 1, 3, 2),
                 (2, block - 3, 2), (2, block - 2, 2), (2, block - 1, 2),
                 (block + 1, block - 1, 3), (block - 1, 2, block + 1)):
        factors = random_factors(rng, dims, 2)
        for g in (factors.g_i, factors.g_j, factors.g_n):
            flat = g.reshape(-1)
            flat[::5] = 0.0
            flat[1::7] = -0.0
            flat[2::11] *= 1e-9
            flat[3::13] *= 1e20
        fast, slow = io.StringIO(), io.StringIO()
        before = len(calls)
        save_checkpoint(factors, fast)
        oracles.save_checkpoint_savetxt(factors, slow)
        assert fast.getvalue() == slow.getvalue(), dims
        assert len(calls) == before + 1, dims
        blocks = calls[-1][1]
        assert blocks[-1].stop == sum(dims) and len(blocks) == -(-sum(dims) // block), dims


def test_trace_csv_is_the_percent_rows_at_block_boundaries(monkeypatch):
    calls = _spy_row_blocks(monkeypatch)
    # the writer reads only the state's trace
    write_trace_csv(types.SimpleNamespace(trace=[]), io.StringIO())
    block = _block_rows(calls[-1][0])
    rng = np.random.default_rng(29)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        objective = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)
        rel_change = np.abs(rng.normal(size=n))
        rel_change[::3] = np.inf
        rel_change[1::5] = np.nan
        state = types.SimpleNamespace(trace=[
            solver_module.TraceRecord(s=k, f=1 + k % 7, objective=float(o), rel_change=float(r))
            for k, (o, r) in enumerate(zip(objective, rel_change))])
        fast, slow = io.StringIO(), io.StringIO()
        write_trace_csv(state, fast, metadata={"model": "ENTN", "seed": 3})
        oracles.write_trace_csv(state, slow, metadata={"model": "ENTN", "seed": 3})
        assert fast.getvalue() == slow.getvalue(), n
        assert len(calls[-1][1]) == -(-n // block), n


def test_trace_csv_format():
    e = binary(0, (5, 5, 5))
    cfg = SolverConfig(f_max=2, s_max=10, seed=0)
    _, state = solve(e, cfg)
    buf = io.StringIO()
    write_trace_csv(state, buf, metadata={"model": "ENTN"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# model: ENTN"
    assert lines[1] == "s,f,objective,rel_change"
    assert len(lines) == 2 + len(state.trace)
    first = lines[2].split(",")
    assert int(first[0]) == 0 and int(first[1]) == state.trace[0].f


# ---------------------------------------------------------------------------
# the exact sparse-plus-history target against the dense-X solve


def _assert_same_run(e, cfg):
    """solve and the solve_dense oracle take the same path to the same factors."""
    factors, state = solve(e, cfg)
    dense_factors, dense = solve_dense(e, cfg)
    assert (state.s, state.converged) == (dense.s, dense.converged)
    assert [(r.s, r.f, r.grew) for r in state.trace] == [(r.s, r.f, r.grew) for r in dense.trace]
    for name in ("g_i", "g_j", "g_n"):
        # relative to each factor's largest entry: near-zero entries differ in
        # their own leading digits by the same absolute roundoff
        expected = getattr(dense_factors, name)
        np.testing.assert_allclose(getattr(factors, name), expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())
    return state, dense


def _holey(seed, dims=(12, 10, 9), density=0.2):
    """A 0/1 E with empty rows, columns and frames."""
    e = np.random.default_rng(seed).random(dims) < density
    e[[0, 5]] = 0
    e[:, [3, 9]] = 0
    e[:, :, [0, 4, 8]] = 0
    return event_tensor(e)


def test_solve_matches_dense_on_the_reference_scene():
    spec = load_scene_spec(oracles.REF_SCENE)
    tensor = bin_to_tensor(generate(spec), spec.n_frames)
    state, _ = _assert_same_run(tensor, SolverConfig(s_max=200))
    assert state.s == 200 and any(r.grew for r in state.trace)


def test_solve_matches_dense_on_a_small_davis_like_scene():
    # the DAVIS workload's two crossing objects and 20% noise on a 65x87 sensor
    spec = SceneSpec(geometry=(65, 87), n_frames=25, duration_us=250_000, seed=3,
                     noise_per_frame=7.2, objects=(
                         ObjectSpec(kind="linear", start=(5.0, 5.0), velocity=(2.1, 3.0),
                                    footprint=2, prob=0.8),
                         ObjectSpec(kind="circular", start=(32.0, 43.0), radius=20.0,
                                    freq=0.04, footprint=2, prob=0.8)))
    tensor = bin_to_tensor(generate(spec), spec.n_frames)
    _assert_same_run(tensor, SolverConfig(s_max=40))


@pytest.mark.parametrize("lambda2", [0.1, 0.25, 1.0, 3.0])
def test_solve_matches_dense_on_raw_values_with_empty_slices(monkeypatch, lambda2):
    # 150 sweeps outlast E and the history terms at lambda2 <= 1
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    monkeypatch.setattr(SolverConfig, "grow_tol", 2e-2)
    cfg = SolverConfig(f_max=4, lambda2=lambda2, s_max=150, seed=1)
    state, dense = _assert_same_run(_holey(8), cfg)
    assert any(r.grew for r in state.trace)
    x = dense_target(state.target)
    np.testing.assert_allclose(x, dense.x, rtol=1e-10, atol=1e-10 * np.abs(dense.x).max())


def test_solve_matches_dense_on_the_zero_tensor():
    cfg = SolverConfig(f_max=3, lambda1=0.2, lambda2=0.1, seed=0)
    state, dense = _assert_same_run(event_tensor(np.zeros((8, 8, 8))), cfg)
    assert state.converged and dense.converged


@pytest.mark.parametrize("lambda2, terms", [(0.1, 16), (0.3, 26), (1.0, 54), (3.0, 128)])
def test_history_keeps_each_term_above_the_rounding_unit(monkeypatch, lambda2, terms):
    # a term stays while alpha beta^age >= 2^-53 alpha, E while beta^s >= 2^-53
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    monkeypatch.setattr(SolverConfig, "grow_tol", 1e-11)
    cfg = SolverConfig(f_max=2, lambda2=lambda2, s_max=terms + 2, seed=0)
    e = _holey(9)
    for s_max, expected, e_in in ((terms - 1, terms - 1, True), (terms, terms, False),
                                  (terms + 2, terms, False)):
        _, state = solve(e, dataclasses.replace(cfg, s_max=s_max))
        assert state.s == s_max
        assert len(state.target.weights) == expected == len(state.target.history)
        assert (state.target.e_weight > 0) == e_in


def _record_sweep_factors(monkeypatch) -> list[FactorTriple]:
    """Keep the factors at the end of each sweep of later solves, before any
    rank growth: the output of each mode-n update."""
    fitted = []

    def recording_update_factor(state, mode, cfg, product, gram):
        out = update_factor(state, mode, cfg, product, gram)
        if mode == "n":
            fitted.append(out[0])
        return out

    monkeypatch.setattr(solver_module, "update_factor", recording_update_factor)
    return fitted


def test_a_sweep_builds_three_self_pair_grams(monkeypatch):
    # one H_m H_m^T per mode; the closed forms reuse mode n's
    calls = []

    def counting_pair_gram(factors, mode, *args, **kwargs):
        if not args and not kwargs:
            calls.append(mode)
        return pair_gram(factors, mode, *args, **kwargs)

    monkeypatch.setattr(solver_module, "pair_gram", counting_pair_gram)
    monkeypatch.setattr(tensor_ops_module, "pair_gram", counting_pair_gram)
    # 20 sweeps span two rank growths and E's exit from X
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    monkeypatch.setattr(SolverConfig, "grow_tol", 3e-2)
    cfg = SolverConfig(f_max=3, s_max=20, seed=3)
    _, state = solve(binary(10, (9, 8, 7), 0.2), cfg)
    assert state.s == 20 and state.f == 3 and state.target.e_weight == 0.0
    assert calls == list("ijn") * state.s


@pytest.mark.parametrize("holey", [False, True])
def test_trace_fit_is_the_dense_relative_error_at_every_sweep(monkeypatch, holey):
    # 40 sweeps: <R, E> comes from the mode-n product for the first 16 and
    # from one more mode-n coo_rhs after E leaves X
    fitted = _record_sweep_factors(monkeypatch)
    e = _holey(10) if holey else binary(10, (9, 8, 7), 0.2)
    monkeypatch.setattr(SolverConfig, "conv_tol", 1e-12)
    cfg = SolverConfig(f_max=3, s_max=40, seed=3)
    _, state = solve(e, cfg)
    assert state.s == 40 and state.target.e_weight == 0.0
    assert len(fitted) == len(state.trace)
    dense = e.data.astype(np.float64)
    for rec, factors in zip(state.trace, fitted):
        expected = frob_dist(f3tn_contract(factors), dense) / frob_norm(dense)
        assert rec.fit == pytest.approx(expected, rel=1e-9)


def test_trace_fit_of_the_zero_tensor_is_the_reconstruction_norm(monkeypatch):
    fitted = _record_sweep_factors(monkeypatch)
    _, state = solve(event_tensor(np.zeros((4, 5, 3))), SolverConfig(f_max=2, seed=1))
    for rec, factors in zip(state.trace, fitted):
        assert rec.fit == pytest.approx(frob_norm(f3tn_contract(factors)), rel=1e-9)


def test_solve_allocates_less_than_one_dense_float_tensor():
    # E as its nonzeros and the history as factor triples: no (I, J, N) float array
    dims = (120, 160, 100)
    e = binary(0, dims, 0.006)
    cfg = SolverConfig(f_max=10, s_max=6, seed=0)  # starts at rank 5
    tracemalloc.start()
    try:
        _, state = solve(e, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.s == 6 and state.f >= 5
    assert peak < 8 * math.prod(dims)
