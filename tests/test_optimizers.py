from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from tesopt import fem, lp as lp_module, optimizers
from tesopt.cli import build_model
from tesopt.config import RunConfig
from oracles import (assembled_l1l1_lp, balanced_grid_minimum, l1l1_cell, l1l2_cell,
                     ridge_reference, tls_cell)
from tesopt.lp import SparseConstraints, _refined_solve, ruiz_scalings, solve_lp, solve_lp_lanes
from tesopt.optimizers import (
    L1L1Constraints,
    MethodParams,
    OptimizerError,
    StimulusProblem,
    _finalize,
    build_l1l1_lp,
    db_to_linear,
    equalize_dose,
    l1l1_objective,
    l1l2_objective,
    project_feasible,
    solve_l1l1,
    solve_l1l2,
    solve_tls,
    tls_raw_solution,
)
from tesopt.search import LatticePool, LatticeSpec, default_lattice_spec, evaluate_lattice, \
    solve_single_cell


def test_lp_block_counts(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=9)
    lp = build_l1l1_lp(p, 0.1, 0.01)
    assert lp.c.size == 4 + 3 + 9 + 4
    assert (lp.ops.m, lp.ops.n, lp.ops.p) == (3 * 3 + 3 * 9 + 3 * 4 + 1, 20, 1)
    assert lp.h.shape == (lp.ops.m,) and lp.f.shape == (1,)
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
    pat = l1l1_cell(p, 0.0, 0.0)
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
        pat = l1l1_cell(p, alpha, eps)
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
        lp, _, _ = assembled_l1l1_lp(p, alpha, eps)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        at_zero = l1l1_objective(p, np.zeros(p.n_electrodes), alpha, eps)
        assert lp.c @ sol.v >= at_zero - 1e-10 * (1 + at_zero)
        pat = l1l1_cell(p, alpha, eps)
        assert pat.status == "degenerate"
        assert pat.raw_objective == at_zero


def test_l1l1_operator_matches_assembled(rng):
    # the blockwise products and Ruiz scalings against the assembled G and E,
    # also with rows and columns spread over decades so that every block's
    # scalings move away from 1
    problems = [random_problem(rng, n_electrodes=n, n_nuisance=m)
                for n, m in ((3, 6), (8, 40), (32, 300))]
    q = problems[1]
    spread = np.exp(rng.uniform(-8, 8, (q.n_nuisance + 3, 1))) \
        * np.exp(rng.uniform(-8, 8, q.n_electrodes))
    problems.append(StimulusProblem.from_parts(q.L1 * spread[:3], q.L2 * spread[3:],
                                               q.x1, q.mu))
    for p in problems:
        _, G, E = assembled_l1l1_lp(p, 1e-3, 1e-2)
        ref, ops = SparseConstraints(G, E), L1L1Constraints(p)
        for got, want in zip((ops.dr_g, ops.dr_e, ops.dc), (ref.dr_g, ref.dr_e, ref.dc)):
            assert np.array_equal(got, want)
        for lanes in (1, 3):
            v, z = rng.normal(size=(lanes, ops.n)), rng.normal(size=(lanes, ops.m))
            y = rng.normal(size=(lanes, 1))
            for got, want in ((ops.G(v), ref.G(v)), (ops.GT(z), ref.GT(z)),
                              (ops.E(v), ref.E(v)), (ops.ET(y), ref.ET(y))):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_l1l1_newton_solvers_agree(rng):
    # structured electrode-space steps and residuals against the sparse KKT
    # oracle, both refined, for uniform weights and for the weights W = z/s
    # met along the sparse solver's own iterates, whose spread exceeds 1e16
    for n_electrodes, n_nuisance in ((3, 6), (32, 300)):
        p = random_problem(rng, n_electrodes=n_electrodes, n_nuisance=n_nuisance)
        lp, G, E = assembled_l1l1_lp(p, 0.3 * zero_alpha(p), 1e-2)
        met = []

        class Recording(SparseConstraints):
            def factor(self, W):
                met.extend(W.copy())
                return super().factor(W)

        assert solve_lp(replace(lp, ops=Recording(G, E))).status == "optimal"
        uniform = [np.full(lp.ops.m, 10 ** u) for u in rng.uniform(-8, 8, 8)]
        assert max(W.max() / W.min() for W in met) > 1e16
        for W in uniform + met:
            r1 = rng.normal(size=lp.ops.n)
            r2 = rng.normal(size=1)
            steps = []
            for ops in (SparseConstraints(G, E), L1L1Constraints(p)):
                assert ops.factor(W[None]).all()
                dv, dy = _refined_solve(ops, W[None], r1[None], r2[None])
                steps.append(np.concatenate([dv[0], dy[0]]))
            ref, got = steps
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_l1l1_lattice_equilibrates_once(rng, monkeypatch):
    # a serial lattice builds its constraint operator and equilibrates it
    # once per problem; every cell's pattern is bitwise the one a fresh
    # problem gives
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    ruiz, lps = [], []

    def counting_ruiz(*args, **kwargs):
        ruiz.append(1)
        return ruiz_scalings(*args, **kwargs)

    def counting_solve(lanes, **kwargs):
        lps.extend(lanes)
        return solve_lp_lanes(lanes, **kwargs)

    monkeypatch.setattr(optimizers, "ruiz_scalings", counting_ruiz)
    monkeypatch.setattr(optimizers, "solve_lp_lanes", counting_solve)
    grid = evaluate_lattice(p, "l1l1", LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0))
    assert len(lps) > 4 and len(ruiz) == 1
    assert all(lp.ops is lps[0].ops for lp in lps)
    monkeypatch.undo()
    for row in grid.cells:
        for cell in row:
            fresh = StimulusProblem.from_parts(p.L1, p.L2, p.x1, p.mu)
            ref = l1l1_cell(fresh, db_to_linear(cell.params.alpha_db),
                            db_to_linear(cell.params.weight_db))
            assert np.array_equal(cell.pattern.y, ref.y)
            assert cell.pattern.status == ref.status


def test_l1l1_lattice_builds_no_sparse_matrix(rng, monkeypatch):
    # the production L1L1 path applies its constraints as dense blocks
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.sparse object built on the L1L1 path")

    for name in ("csr_matrix", "csc_matrix", "coo_matrix", "csr_array", "csc_array",
                 "coo_array", "bmat", "identity", "eye", "diags"):
        monkeypatch.setattr(sp, name, forbidden)
    monkeypatch.setattr(spla, "splu", forbidden)
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    grid = evaluate_lattice(p, "l1l1", LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0))
    statuses = [c.pattern.status for row in grid.cells for c in row]
    assert "optimal" in statuses and "error" not in statuses, statuses


@pytest.fixture(scope="module")
def bench_l1l1_problem():
    """Model 1000 of the search_l1l1 benchmark: the small ball meshed at
    10 mm, 32 electrodes and 100 field points."""
    cfg = RunConfig.from_dict({"radii": [0.09, 0.08, 0.07], "cell_size": 0.01,
                               "field_point_count": 100, "seed": 1000})
    mesh, layout, points, target = build_model(cfg)
    lf = fem.lead_field(fem.assemble(mesh, layout), mesh, points,
                        target_point=target.point_index)
    return fem.split_problem(lf, target, cfg.mu)


def test_l1l1_weak_regularization_cell_optimal(bench_l1l1_problem, monkeypatch):
    # at (-160, -70) dB the Newton weights spread past 1e22; a diagonal
    # shift of 1e-12 relative left a dual-equation error there that
    # refinement could not remove, and the cell stalled at max_iter
    spreads = []
    factor = L1L1Constraints.factor

    def recording(self, W):
        spreads.append(W.max() / W.min())
        return factor(self, W)

    monkeypatch.setattr(L1L1Constraints, "factor", recording)
    pat = l1l1_cell(bench_l1l1_problem, db_to_linear(-160.0), db_to_linear(-70.0))
    assert max(spreads) > 1e22
    assert pat.status == "optimal"


def test_l1l1_newton_solve_budget(bench_l1l1_problem, monkeypatch):
    # each Newton solve of an L1L1 lattice is one factorization solve plus
    # at most one correction; both outcomes occur on the bench lattice
    calls, per_solve = [0], []
    solve, refined = L1L1Constraints.solve, lp_module._refined_solve

    def counting_solve(self, r1, r2):
        calls[0] += 1
        return solve(self, r1, r2)

    def counting_refined(*args):
        calls[0] = 0
        out = refined(*args)
        per_solve.append(calls[0])
        return out

    monkeypatch.setattr(L1L1Constraints, "solve", counting_solve)
    monkeypatch.setattr(lp_module, "_refined_solve", counting_refined)
    evaluate_lattice(bench_l1l1_problem, "l1l1", default_lattice_spec("l1l1", step_db=45.0))
    assert set(per_solve) == {1, 2}


def _lattice_params(spec):
    return [MethodParams(alpha_db=float(a), weight_db=float(w))
            for a in spec.alpha_values for w in spec.weight_values]


def _linear(params):
    """The linear (alpha, eps) sequences of a list of MethodParams."""
    return ([db_to_linear(c.alpha_db) for c in params],
            [db_to_linear(c.weight_db) for c in params])


def _one_lane(p, params):
    return l1l1_cell(p, db_to_linear(params.alpha_db), db_to_linear(params.weight_db))


def _same_pattern(a, b):
    return (a.y.tobytes() == b.y.tobytes() and a.status == b.status
            and np.float64(a.raw_objective).tobytes() == np.float64(b.raw_objective).tobytes())


def test_l1l1_lattice_lanes_match_one_lane(bench_l1l1_problem, monkeypatch):
    # every cell of a 4x4 lattice solved as lanes equals its one-lane solve
    # bitwise: certificate cells, LP cells, and a lane whose factorization
    # fails in its sixth iteration, which ends only that lane, at max_iter
    p = bench_l1l1_problem
    params = _lattice_params(default_lattice_spec("l1l1", step_db=45.0))
    lanes = solve_l1l1(p, *_linear(params))
    assert {pat.status for pat in lanes} == {"optimal", "degenerate"}
    for c, pat in zip(params, lanes):
        assert _same_pattern(pat, _one_lane(p, c))

    target = params[5]
    assert lanes[5].status == "optimal"
    factor, seen = L1L1Constraints.factor, []

    def recording(self, W):
        seen.extend(row.tobytes() for row in W)
        return factor(self, W)

    monkeypatch.setattr(L1L1Constraints, "factor", recording)
    _one_lane(p, target)
    bad = seen[6]                 # seen[0] holds the starting point's unit weights

    def failing(self, W):
        return factor(self, W) & np.array([row.tobytes() != bad for row in W])

    monkeypatch.setattr(L1L1Constraints, "factor", failing)
    failed = solve_l1l1(p, *_linear(params))
    assert failed[5].status == "max_iter"
    for b, (c, pat) in enumerate(zip(params, failed)):
        assert _same_pattern(pat, _one_lane(p, c))
        if b != 5:
            assert _same_pattern(pat, lanes[b])


def test_l1l1_lanes_independent_of_split(bench_l1l1_problem):
    # a cell's result does not depend on the lanes solved beside it
    p = bench_l1l1_problem
    params = _lattice_params(default_lattice_spec("l1l1", step_db=45.0))
    whole = solve_l1l1(p, *_linear(params))
    strided = [None] * len(params)
    for i in range(3):
        strided[i::3] = solve_l1l1(p, *_linear(params[i::3]))
    splits = {
        "reversed": solve_l1l1(p, *_linear(params[::-1]))[::-1],
        "singletons": [solve_l1l1(p, *_linear([c]))[0] for c in params],
        "halves": solve_l1l1(p, *_linear(params[:8])) + solve_l1l1(p, *_linear(params[8:])),
        "strided": strided,
    }
    for name, got in splits.items():
        assert len(got) == len(whole), name
        for a, b in zip(whole, got):
            assert _same_pattern(a, b), name


def test_l1l1_paths_agree_below_threshold(rng):
    for k in range(10):
        p = random_problem(rng, n_electrodes=(3, 12, 32)[k % 3],
                           n_nuisance=(6, 40, 300)[k % 3])
        alpha = zero_alpha(p) * (1.0 - 10 ** rng.uniform(-3, -0.05))
        eps = 10 ** rng.uniform(-3, -0.5)
        lp, _, _ = assembled_l1l1_lp(p, alpha, eps)
        sparse = solve_lp(lp)
        structured = solve_lp(build_l1l1_lp(p, alpha, eps))
        assert sparse.status == structured.status == "optimal"
        a, b = lp.c @ sparse.v, lp.c @ structured.v
        assert abs(a - b) <= 1e-9 * abs(a)
        assert l1l1_cell(p, alpha, eps).status == "optimal"


def test_l1l2_matches_grid_oracle(rng):
    for _ in range(4):
        p = random_problem(rng)
        alpha = 10 ** rng.uniform(-4, -1)
        eps = 10 ** rng.uniform(-3, -0.5)
        pat = l1l2_cell(p, alpha, eps)
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
        pat = l1l2_cell(p, alpha, eps)
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
        got = l1l2_cell(p, alpha, eps, max_iter=200)
        assert got.status == ref.status
        assert np.abs(got.y - ref.y).max() <= 1e-10 * p.mu
        assert abs(got.raw_objective - ref.raw_objective) <= 1e-10 * ref.raw_objective


def _same_pattern(a, b):
    return (a.y.tobytes() == b.y.tobytes() and a.status == b.status
            and a.active_ids == b.active_ids and a.raw_objective == b.raw_objective)


def test_l1l2_lattice_cells_match_one_lane(rng):
    # a lattice is solved as the lanes of one PDHG loop; each cell is
    # bitwise its own one-lane solve, for certified lanes, lanes that
    # pass the residual test and lanes at the cap
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    spec = LatticeSpec(-140.0, 40.0, -140.0, 40.0, 30.0)
    opts = {"l1l2": {"max_iter": 60}}
    with LatticePool(p, solver_opts=opts) as pool:
        grid = evaluate_lattice(p, "l1l2", spec, pool=pool)
    statuses = {c.pattern.status for row in grid.cells for c in row}
    assert statuses == {"optimal", "degenerate", "max_iter"}, statuses
    for row in grid.cells:
        for cell in row:
            fresh = StimulusProblem.from_parts(p.L1, p.L2, p.x1, p.mu)
            ref = l1l2_cell(fresh, db_to_linear(cell.params.alpha_db),
                                    db_to_linear(cell.params.weight_db), max_iter=60)
            assert _same_pattern(cell.pattern, ref)


def test_l1l2_lanes_independent_of_neighbours(rng):
    # reversing the lanes or splitting them in two calls changes no byte
    p = random_problem(rng, n_electrodes=12, n_nuisance=60)
    spec = LatticeSpec(-140.0, 40.0, -140.0, 40.0, 20.0)
    params = [MethodParams(a, w) for a in spec.alpha_values for w in spec.weight_values]
    lanes = solve_l1l2(p, *_linear(params), max_iter=300)
    reverse = solve_l1l2(p, *_linear(params[::-1]), max_iter=300)[::-1]
    half = len(params) // 2
    halves = solve_l1l2(p, *_linear(params[:half]), max_iter=300) \
        + solve_l1l2(p, *_linear(params[half:]), max_iter=300)
    assert len({c.status for c in lanes}) == 3
    for a, b, c in zip(lanes, reverse, halves):
        assert _same_pattern(a, b) and _same_pattern(a, c)


def test_project_feasible_rows_match_one_dimensional(rng):
    # a (B, L) stack is projected row by row: zero rows (spread within
    # 2*l1_weight), rows inside the dose and dose-capped rows, with one
    # weight per row and with a shared one
    mu = 4e-3
    for L in (2, 3, 8, 32):
        w = rng.normal(size=(60, L)) * mu * 10 ** rng.uniform(-1.5, 0.5, size=(60, 1))
        w[5] = 0.0
        w[7] = w[7, 0]
        w[9, ::2] = w[9, 1]                     # ties
        spread = w.max(axis=1) - w.min(axis=1)
        lam = spread * rng.uniform(0.0, 0.7, size=60)
        lam[:10] = 0.5 * spread[:10] * 1.01     # zero rows
        stack = project_feasible(w, mu, lam)
        kinds = set()
        for row, weight, x in zip(w, lam, stack):
            one = project_feasible(row, mu, weight)
            assert x.tobytes() == one.tobytes()
            l1 = np.abs(x).sum()
            kinds.add("zero" if l1 == 0 else "capped" if l1 > mu * (1 - 1e-12) else "inside")
        assert kinds == {"zero", "capped", "inside"}, kinds
        shared = project_feasible(w, mu, 0.1 * mu)
        for row, x in zip(w, shared):
            assert x.tobytes() == project_feasible(row, mu, 0.1 * mu).tobytes()


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
    pat = l1l2_cell(p, 0.0, 0.0)
    assert pat.status == "degenerate"


def test_l1l2_huge_penalty_degenerate(rng):
    p = random_problem(rng)
    pat = l1l2_cell(p, 1e6, 1e-3)
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
    y_tilde, _ = ridge_reference(p, 0.05)
    pat = tls_cell(p, 0.05, 0.0)
    yt = y_tilde - y_tilde.mean()
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
        A = (p.L1.T @ p.L1 + (delta * alpha) ** 2 * (p.L2.T @ p.L2)
             + (alpha * p.sigma_scale) ** 2 * np.eye(6))
        b = p.target_drive()
        assert np.linalg.norm(A @ y - b) <= 1e-10 * np.linalg.norm(b)


def test_tls_matches_full_stack_least_squares(rng):
    # oracle: lstsq on the uncompressed stack [L1; delta*alpha*L2; alpha*sigma*I]
    for n_electrodes, n_nuisance in ((32, 300), (12, 6)):
        for _ in range(40):
            p = random_problem(rng, n_electrodes=n_electrodes, n_nuisance=n_nuisance)
            alpha = 10 ** rng.uniform(-9, -1)
            delta = 10 ** rng.uniform(-2, 1)
            stacked = np.vstack([
                p.L1,
                (delta * alpha) * p.L2,
                (alpha * p.sigma_scale) * np.eye(n_electrodes),
            ])
            rhs = np.concatenate([p.x1, np.zeros(stacked.shape[0] - 3)])
            ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
            y = tls_raw_solution(p, alpha, delta)
            assert np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(ref)


def test_tls_requires_positive_alpha(rng):
    p = random_problem(rng)
    with pytest.raises(OptimizerError):
        tls_raw_solution(p, 0.0, 1.0)


def test_tls_diagnostics_residual(rng):
    # y_tilde must solve its defining ridge system to 1e-10 relative
    for alpha in (1e-4, 1e-2, 0.5):
        p = random_problem(rng, n_electrodes=7, n_nuisance=11)
        y_tilde, _ = ridge_reference(p, alpha)
        A = p.L1.T @ p.L1 + (alpha * p.sigma_scale) ** 2 * np.eye(7)
        b = p.target_drive()
        resid = np.linalg.norm(A @ y_tilde - b)
        assert resid <= 1e-10 * max(np.linalg.norm(b),
                                    np.linalg.norm(A, 2) * np.linalg.norm(y_tilde))


def test_tls_diagnostics_consistency(rng):
    p = random_problem(rng, n_electrodes=5, n_nuisance=10)
    y_tilde, W = ridge_reference(p, 0.07)
    zero = StimulusProblem(L1=p.L1, L2=p.L2, x1=np.zeros(3), mu=p.mu,
                           zeta=p.zeta, nu=1.0, sigma_scale=p.sigma_scale)
    assert not ridge_reference(zero, 0.07)[0].any()
    # the explicit inverse maps the target drive to y_tilde
    assert np.linalg.norm(W @ p.target_drive() - y_tilde) <= 1e-10 * np.linalg.norm(y_tilde)


def test_sign_symmetry(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=8)
    flipped = StimulusProblem(L1=p.L1, L2=p.L2, x1=-p.x1, mu=p.mu,
                              zeta=p.zeta, nu=p.nu, sigma_scale=p.sigma_scale)
    y1 = tls_cell(p, 0.02, 0.3).y
    y2 = tls_cell(flipped, 0.02, 0.3).y
    assert np.abs(y1 + y2).max() <= 1e-6 * np.abs(y1).max()
    a, e = 1e-3, 1e-2
    y1 = l1l1_cell(p, a, e).y
    y2 = l1l1_cell(flipped, a, e).y
    assert np.abs(y1 + y2).max() <= 1e-6 * p.mu
    y1 = l1l2_cell(p, a, e).y
    y2 = l1l2_cell(flipped, a, e).y
    assert np.abs(y1 + y2).max() <= 1e-5 * p.mu


def test_expansion_small_delta(rng):
    # measured focused-density deficit matches the quadratic expansion
    from tesopt.metrics import focused_density

    p = random_problem(rng, n_electrodes=6, n_nuisance=20, scale=3.0)
    alpha = 0.05
    y_tilde, Wm = ridge_reference(p, alpha)
    norm = np.linalg.norm(Wm @ (p.L2.T @ p.L2), 2)
    delta = np.sqrt(0.05 / (alpha**2 * norm))
    y_d = tls_raw_solution(p, alpha, delta)
    deficit = 1.0 - focused_density(p, y_d) / focused_density(p, y_tilde)
    predicted = (delta * alpha) ** 2 * np.linalg.norm(p.L2 @ y_tilde) ** 2 \
        / (p.x1 @ (p.L1 @ y_tilde))
    assert abs(deficit - predicted) <= 0.10 * abs(predicted)


def test_single_cell_is_one_solver_call(rng):
    # tesopt optimize solves a cell at dB levels as the one-cell call of
    # the method's solver at linear weights
    p = random_problem(rng)
    for method, solve in (("l1l1", solve_l1l1), ("l1l2", solve_l1l2), ("tls", solve_tls)):
        a = solve_single_cell(p, method, -60.0, -40.0, {})
        b = solve(p, [10 ** (-60 / 20)], [10 ** (-40 / 20)])[0]
        assert a.y.tobytes() == b.y.tobytes() and a.status == b.status


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

