from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from oracles import balanced_grid_minimum
from tesopt.lp import _KktFactory, _refined_solve, _ruiz_equilibration, solve_lp
from tesopt.optimizers import (
    L1L1Newton,
    MethodParams,
    OptimizerError,
    StimulusProblem,
    _finalize,
    build_l1l1_lp,
    equalize_dose,
    l1l1_objective,
    l1l2_objective,
    project_feasible,
    solve_l1l1,
    solve_l1l1_linear,
    solve_l1l2_linear,
    solve_tls,
    solve_tls_linear,
    tls_diagnostics,
    tls_raw_solution,
)


def test_lp_block_counts(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=9)
    lp = build_l1l1_lp(p, 0.1, 0.01)
    assert lp.c.size == 4 + 3 + 9 + 4
    assert lp.G.shape == (3 * 3 + 3 * 9 + 3 * 4 + 1, 20)
    assert lp.E.shape == (1, 20)
    # objective carries the weighted pattern penalty on the last block
    assert np.allclose(lp.c, np.concatenate(
        [np.zeros(4), np.ones(12), 0.1 * p.zeta * np.ones(4)]))


def test_lp_epigraph_tight_at_optimum(rng):
    p = random_problem(rng)
    alpha, eps = 3e-3, 2e-2
    lp = build_l1l1_lp(p, alpha, eps)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    L, M = 3, p.n_nuisance
    y = sol.v[:L]
    t1 = sol.v[L:L + 3]
    t2 = sol.v[L + 3:L + 3 + M]
    assert np.allclose(t1, np.abs(p.L1 @ y - p.x1), atol=1e-7)
    assert np.allclose(t2, np.maximum(np.abs(p.L2 @ y), eps * p.nu), atol=1e-7)


def test_l1l1_zero_target_degenerate(rng):
    p = random_problem(rng)
    p = StimulusProblem(L1=p.L1, L2=p.L2, x1=np.zeros(3), mu=p.mu,
                        zeta=p.zeta, nu=1.0, sigma_scale=p.sigma_scale)
    pat = solve_l1l1_linear(p, 0.0, 0.0)
    assert pat.status == "degenerate"
    assert not pat.y.any()


def zero_alpha(p):
    """alpha* = (max g - min g) / (2 zeta), g = L1' sign(x1): y = 0 is an
    exact L1L1 optimum for every alpha >= alpha*."""
    g = p.L1.T @ np.sign(p.x1)
    return 0.5 * (g.max() - g.min()) / p.zeta


def test_l1l1_matches_grid_oracle(rng):
    for _ in range(4):
        p = random_problem(rng)
        alpha = 10 ** rng.uniform(-4, -1)
        eps = 10 ** rng.uniform(-3, -0.5)
        pat = solve_l1l1_linear(p, alpha, eps)
        assert pat.status == ("degenerate" if alpha >= zero_alpha(p) else "optimal")
        ref = balanced_grid_minimum(p, "l1", alpha, eps)
        assert abs(pat.raw_objective - ref) <= 1e-3 * abs(ref)
        pat.validate(p.mu, p.gamma)


def test_l1l1_zero_certificate_sound(rng):
    # above alpha* the generic LP never beats y = 0 beyond its tolerance
    for k in range(12):
        p = random_problem(rng, n_electrodes=3 + 5 * (k % 3), n_nuisance=8)
        alpha = zero_alpha(p) * 10 ** rng.uniform(0.0, 1.0)
        eps = 10 ** rng.uniform(-3, -0.5)
        lp = build_l1l1_lp(p, alpha, eps)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        at_zero = l1l1_objective(p, np.zeros(p.n_electrodes), alpha, eps)
        assert lp.c @ sol.v >= at_zero - 1e-10 * (1 + at_zero)
        pat = solve_l1l1_linear(p, alpha, eps)
        assert pat.status == "degenerate"
        assert pat.raw_objective == at_zero


def test_l1l1_newton_solvers_agree(rng):
    # structured electrode-space steps against the sparse KKT oracle, both
    # refined, for uniform weights and for the weights W = z/s met along
    # the sparse solver's own iterates, whose spread exceeds 1e16
    for n_electrodes, n_nuisance in ((3, 6), (32, 300)):
        p = random_problem(rng, n_electrodes=n_electrodes, n_nuisance=n_nuisance)
        lp = build_l1l1_lp(p, 0.3 * zero_alpha(p), 1e-2)
        met = []

        class Recording(_KktFactory):
            def factor(self, W):
                met.append(W.copy())
                super().factor(W)

        assert solve_lp(lp, kkt=Recording).status == "optimal"
        Gs, Es, dr_g, dr_e, dc = _ruiz_equilibration(lp.G, lp.E)
        GsT, EsT = Gs.T.tocsr(), Es.T.tocsr()
        uniform = [np.full(Gs.shape[0], 10 ** u) for u in rng.uniform(-8, 8, 8)]
        assert max(W.max() / W.min() for W in met) > 1e16
        for W in uniform + met:
            r1 = rng.normal(size=Gs.shape[1])
            r2 = rng.normal(size=1)
            steps = []
            for kkt in (_KktFactory(Gs, Es), L1L1Newton(p, Gs, Es, dr_g, dr_e, dc)):
                kkt.factor(W)
                dv, dy = _refined_solve(kkt, Gs, GsT, Es, EsT, W, r1, r2)
                steps.append(np.concatenate([dv, dy]))
            ref, got = steps
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_l1l1_paths_agree_below_threshold(rng):
    for k in range(10):
        p = random_problem(rng, n_electrodes=(3, 12, 32)[k % 3],
                           n_nuisance=(6, 40, 300)[k % 3])
        alpha = zero_alpha(p) * (1.0 - 10 ** rng.uniform(-3, -0.05))
        eps = 10 ** rng.uniform(-3, -0.5)
        lp = build_l1l1_lp(p, alpha, eps)
        sparse = solve_lp(lp)
        structured = solve_lp(lp, kkt=partial(L1L1Newton, p))
        assert sparse.status == structured.status == "optimal"
        a, b = lp.c @ sparse.v, lp.c @ structured.v
        assert abs(a - b) <= 1e-9 * abs(a)
        assert solve_l1l1_linear(p, alpha, eps).status == "optimal"


def test_l1l2_matches_grid_oracle(rng):
    for _ in range(4):
        p = random_problem(rng)
        alpha = 10 ** rng.uniform(-4, -1)
        eps = 10 ** rng.uniform(-3, -0.5)
        pat = solve_l1l2_linear(p, alpha, eps)
        assert pat.status == "optimal"
        ref = balanced_grid_minimum(p, "l2", alpha, eps)
        assert abs(pat.raw_objective - ref) <= 1e-3 * abs(ref)
        pat.validate(p.mu, p.gamma)


def zero_alpha_l2(p):
    """alpha* = (max g - min g) / (2 zeta), g = L1' x1 / ||x1||: y = 0 is an
    exact L1L2 optimum for every alpha >= alpha* when the dead zone is > 0."""
    g = p.L1.T @ p.x1 / np.linalg.norm(p.x1)
    return 0.5 * (g.max() - g.min()) / p.zeta


def test_l1l2_zero_certificate_sound(rng):
    # above alpha* the grid oracle never beats y = 0 beyond its resolution
    for _ in range(4):
        p = random_problem(rng)
        alpha = zero_alpha_l2(p) * 10 ** rng.uniform(0.0, 1.0)
        eps = 10 ** rng.uniform(-3, -0.5)
        at_zero = l1l2_objective(p, np.zeros(3), alpha, eps)
        assert balanced_grid_minimum(p, "l2", alpha, eps) >= at_zero * (1 - 1e-3)
        pat = solve_l1l2_linear(p, alpha, eps)
        assert pat.status == "degenerate"
        assert pat.raw_objective == at_zero


def l1l2_full_loop(p, alpha, eps, max_iter):
    """PDHG on the stacked [L1; L2], every iteration through all M nuisance
    rows and without the y = 0 certificate: the reference for the loop on
    the QR factor of L2."""
    K = np.vstack([p.L1, p.L2])
    tau = 0.99 * p.mu / p.sigma_scale
    sigma = 0.99 / (p.mu * p.sigma_scale)
    dead = eps * p.nu * np.sqrt(p.n_nuisance)
    y = np.zeros(p.n_electrodes)
    ybar = y.copy()
    q = np.zeros(3 + p.n_nuisance)
    status = "max_iter"
    for it in range(1, max_iter + 1):
        w = q + sigma * (K @ ybar)
        w1 = w[:3] - sigma * p.x1
        w2 = w[3:]
        qn = np.empty_like(q)
        qn[:3] = w1 / max(1.0, np.linalg.norm(w1))
        n2 = np.linalg.norm(w2)
        qn[3:] = w2 * (min(max(n2 - sigma * dead, 0.0), 1.0) / n2) if n2 > 0 else w2
        y_new = project_feasible(y - tau * (K.T @ qn), p.mu, tau * alpha * p.zeta)
        if it == 1 or it % 25 == 0:
            dq, dy = q - qn, y - y_new
            p_res = np.linalg.norm(dy / tau - K.T @ dq)
            d_res = np.linalg.norm(dq / sigma - K @ dy)
            if p_res <= 1e-6 * (1 + p.sigma_scale) \
                    and d_res <= 1e-6 * (1 + p.sigma_scale * p.mu):
                q, y, status = qn, y_new, "optimal"
                break
        ybar = 2.0 * y_new - y
        q, y = qn, y_new
    return _finalize(p, y, status, l1l2_objective(p, y, alpha, eps))


def test_l1l2_compressed_matches_full(rng):
    # M >> L and M < L; alpha up to just below alpha*, dead zones around
    # the size of ||L2 y|| so that both the certificate and sqrt(M) matter
    for k in range(8):
        n_electrodes, n_nuisance = ((32, 300), (12, 6))[k % 2]
        p = random_problem(rng, n_electrodes=n_electrodes, n_nuisance=n_nuisance)
        alpha = zero_alpha_l2(p) * (1.0 - 10 ** rng.uniform(-1.2, -0.1))
        eps = 10 ** rng.uniform(-4, -2)
        ref = l1l2_full_loop(p, alpha, eps, max_iter=200)
        got = solve_l1l2_linear(p, alpha, eps, max_iter=200)
        assert got.status == ref.status
        assert np.abs(got.y - ref.y).max() <= 1e-10 * p.mu
        assert abs(got.raw_objective - ref.raw_objective) <= 1e-10 * ref.raw_objective


def test_nuisance_factor_keeps_norms(rng):
    # tall (three QR blocks, the last one partial), wide, and balanced
    # rank-deficient (rank 4 < L - 1) nuisance blocks
    balanced = rng.normal(size=(1500, 4)) @ rng.normal(size=(4, 10))
    balanced -= balanced.mean(axis=1, keepdims=True)
    for L2 in (rng.normal(size=(2500, 32)), rng.normal(size=(6, 12)), balanced):
        p = StimulusProblem.from_parts(rng.normal(size=(3, L2.shape[1])), L2,
                                       np.ones(3), 4e-3)
        R = p.nuisance_factor()
        assert R.shape == (min(L2.shape), L2.shape[1])
        assert p.nuisance_factor() is R
        for _ in range(10):
            y = rng.normal(size=L2.shape[1])
            y -= y.mean()
            ref = np.linalg.norm(L2 @ y)
            assert abs(np.linalg.norm(R @ y) - ref) <= 1e-13 * ref


def test_l1l2_zero_target(rng):
    p = random_problem(rng)
    p = StimulusProblem(L1=p.L1, L2=p.L2, x1=np.zeros(3), mu=p.mu,
                        zeta=p.zeta, nu=1.0, sigma_scale=p.sigma_scale)
    pat = solve_l1l2_linear(p, 0.0, 0.0)
    assert pat.status == "degenerate"


def test_l1l2_huge_penalty_degenerate(rng):
    p = random_problem(rng)
    pat = solve_l1l2_linear(p, 1e6, 1e-3)
    assert pat.status == "degenerate"


def test_dose_equalization_examples():
    y = equalize_dose(np.array([1e-3, -1e-3]), 4e-3)
    assert np.allclose(y, [2e-3, -2e-3])
    y = equalize_dose(np.array([3e-3, -1e-3, -2e-3]), 4e-3)
    assert np.allclose(y, [2e-3, -2e-3 / 3, -4e-3 / 3])
    assert np.isclose(np.abs(y).max(), 2e-3)


def test_dose_equalization_errors():
    with pytest.raises(OptimizerError):
        equalize_dose(np.zeros(3), 4e-3)
    with pytest.raises(OptimizerError):
        equalize_dose(np.array([1.0, 1.0]), 4e-3)  # unbalanced


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12))
def test_balanced_scaling_hits_caps(vals):
    y = np.asarray(vals)
    y = y - y.mean()
    if np.abs(y).sum() < 1e-9:
        return
    mu = 4e-3
    out = equalize_dose(y, mu)
    assert abs(np.abs(out).sum() - mu) <= 1e-12 * mu
    assert np.abs(out).max() <= mu / 2 * (1 + 1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=32),
       st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_project_feasible_exact_prox(vals, lam_frac, seed):
    # prox of lam*||.||_1 over {1'x = 0, ||x||_1 <= mu}, inputs on the dose scale
    mu = 4e-3
    w = np.asarray(vals) * mu
    lam = lam_frac * mu
    x = project_feasible(w, mu, lam)
    assert abs(x.sum()) <= 1e-12 * mu
    assert np.abs(x).sum() <= mu * (1 + 1e-12)

    # f is 1-strongly convex, so the minimizer over the feasible set has
    # f(z) - f(x) >= |z - x|^2 / 2 for every feasible z
    def f(v):
        return 0.5 * np.sum((v - w) ** 2) + lam * np.abs(v).sum()

    roundoff = 1e-12 * (mu**2 + w @ w)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        z = rng.normal(size=w.size)
        z -= z.mean()
        z *= mu * rng.uniform() / np.abs(z).sum()
        assert f(z) - f(x) >= 0.5 * np.sum((z - x) ** 2) - roundoff

    spread = w.max() - w.min()
    if spread <= 2 * lam:
        assert not x.any()
    elif spread - 2 * lam > 1e-9 * mu:
        assert x.any()

    free = project_feasible(w, np.inf, lam)
    if np.abs(free).sum() > mu * (1 + 1e-9):
        assert abs(x[x > 0].sum() - mu / 2) <= 1e-12 * mu
        assert abs(-x[x < 0].sum() - mu / 2) <= 1e-12 * mu
    elif np.abs(free).sum() < mu * (1 - 1e-9):
        assert np.array_equal(x, free)


def test_tls_delta_zero_matches_ridge(rng):
    p = random_problem(rng, n_electrodes=5, n_nuisance=12)
    diag = tls_diagnostics(p, 0.05)
    pat = solve_tls_linear(p, 0.05, 0.0)
    yt = diag.y_tilde - diag.y_tilde.mean()
    yt = yt * (p.mu / np.abs(yt).sum())
    assert np.allclose(pat.y, yt, atol=1e-12)


def test_tls_scalar_analog():
    p = StimulusProblem(L1=np.array([[1.0], [0.0], [0.0]]), L2=np.array([[1.0]]),
                        x1=np.array([0.3, 0.0, 0.0]), mu=4e-3,
                        zeta=2.0, nu=0.3, sigma_scale=np.sqrt(2.0),
                        electrode_ids=(1,))
    alpha, delta = 0.1, 0.5
    y = tls_raw_solution(p, alpha, delta)
    expect = 0.3 / (1 + delta**2 * alpha**2 + alpha**2 * 2.0)
    assert abs(y[0] - expect) < 1e-14


def test_tls_normal_equation_residual(rng):
    for _ in range(5):
        p = random_problem(rng, n_electrodes=6, n_nuisance=15)
        alpha = 10 ** rng.uniform(-3, -1)
        delta = 10 ** rng.uniform(-2, 1)
        y = tls_raw_solution(p, alpha, delta)
        A = (p.gram_target() + (delta * alpha) ** 2 * p.gram_nuisance()
             + (alpha * p.sigma_scale) ** 2 * np.eye(6))
        b = p.target_drive()
        assert np.linalg.norm(A @ y - b) <= 1e-10 * np.linalg.norm(b)


def test_tls_requires_positive_alpha(rng):
    p = random_problem(rng)
    with pytest.raises(OptimizerError):
        tls_raw_solution(p, 0.0, 1.0)


def test_tls_diagnostics_residual(rng):
    # y_tilde must solve its defining ridge system to 1e-10 relative
    for alpha in (1e-4, 1e-2, 0.5):
        p = random_problem(rng, n_electrodes=7, n_nuisance=11)
        diag = tls_diagnostics(p, alpha)
        A = p.gram_target() + (alpha * p.sigma_scale) ** 2 * np.eye(7)
        b = p.target_drive()
        resid = np.linalg.norm(A @ diag.y_tilde - b)
        assert resid <= 1e-10 * max(np.linalg.norm(b),
                                    np.linalg.norm(A, 2) * np.linalg.norm(diag.y_tilde))


def test_tls_diagnostics_consistency(rng):
    from tesopt.metrics import focused_density

    p = random_problem(rng, n_electrodes=5, n_nuisance=10)
    diag = tls_diagnostics(p, 0.07)
    assert np.isclose(diag.gamma_tilde, focused_density(p, diag.y_tilde))
    zero = StimulusProblem(L1=p.L1, L2=p.L2, x1=np.zeros(3), mu=p.mu,
                           zeta=p.zeta, nu=1.0, sigma_scale=p.sigma_scale)
    assert not tls_diagnostics(zero, 0.07).y_tilde.any()
    # W-norm utility agrees with the explicit inverse
    vec = np.random.default_rng(0).normal(size=5)
    W = diag.ridge_inverse()
    assert np.isclose(diag.w_norm_sq(vec), vec @ W @ vec)


def test_sign_symmetry(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=8)
    flipped = StimulusProblem(L1=p.L1, L2=p.L2, x1=-p.x1, mu=p.mu,
                              zeta=p.zeta, nu=p.nu, sigma_scale=p.sigma_scale)
    y1 = solve_tls_linear(p, 0.02, 0.3).y
    y2 = solve_tls_linear(flipped, 0.02, 0.3).y
    assert np.abs(y1 + y2).max() <= 1e-6 * np.abs(y1).max()
    a, e = 1e-3, 1e-2
    y1 = solve_l1l1_linear(p, a, e).y
    y2 = solve_l1l1_linear(flipped, a, e).y
    assert np.abs(y1 + y2).max() <= 1e-6 * p.mu
    y1 = solve_l1l2_linear(p, a, e).y
    y2 = solve_l1l2_linear(flipped, a, e).y
    assert np.abs(y1 + y2).max() <= 1e-5 * p.mu


def test_expansion_small_delta(rng):
    # measured focused-density deficit matches the quadratic expansion
    from tesopt.metrics import focused_density

    p = random_problem(rng, n_electrodes=6, n_nuisance=20, scale=3.0)
    alpha = 0.05
    diag = tls_diagnostics(p, alpha)
    Wm = diag.ridge_inverse()
    norm = np.linalg.norm(Wm @ p.gram_nuisance(), 2)
    delta = np.sqrt(0.05 / (alpha**2 * norm))
    y_d = tls_raw_solution(p, alpha, delta)
    deficit = 1.0 - focused_density(p, y_d) / diag.gamma_tilde
    predicted = (delta * alpha) ** 2 * np.linalg.norm(p.L2 @ diag.y_tilde) ** 2 \
        / (p.x1 @ (p.L1 @ diag.y_tilde))
    assert abs(deficit - predicted) <= 0.10 * abs(predicted)


def test_method_params_wrappers(rng):
    p = random_problem(rng)
    params = MethodParams(alpha_db=-60.0, weight_db=-40.0)
    a = solve_l1l1(p, params)
    b = solve_l1l1_linear(p, 10 ** (-60 / 20), 10 ** (-40 / 20))
    assert np.array_equal(a.y, b.y)
    a = solve_tls(p, params)
    b = solve_tls_linear(p, 10 ** (-60 / 20), 10 ** (-40 / 20))
    assert np.array_equal(a.y, b.y)


def test_method_params_validation():
    with pytest.raises(OptimizerError):
        MethodParams(alpha_db=float("nan"), weight_db=0.0)


def test_restrict_maps_columns(rng):
    p = random_problem(rng, n_electrodes=5, n_nuisance=8)
    sub = p.restrict((2, 4, 5))
    assert sub.electrode_ids == (2, 4, 5)
    assert sub.L1.shape == (3, 3)
    assert np.array_equal(sub.L1, p.L1[:, [1, 3, 4]])
    # a restricted pattern acts like the full pattern that is zero elsewhere
    y_sub = np.array([1.0, -0.5, -0.5])
    full = np.array([0.0, 1.0, 0.0, -0.5, -0.5])
    assert np.allclose(sub.L1 @ y_sub, p.L1 @ full)
    assert np.allclose(sub.L2 @ y_sub, p.L2 @ full)

