import numpy as np
import pytest

from conftest import random_problem
from oracles import (assembled_l1l1_lp, lp_vertex_minimum, make_program, random_bounded_lp,
                     ruiz_by_diagonal_products)
from tesopt.lp import _max_step, solve_lp
from tesopt.optimizers import L1L1Constraints, StimulusProblem


def test_lower_bound_vertex():
    # min x subject to x >= 1
    sol = solve_lp(make_program([1.0], [[-1.0]], [-1.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.v, [1.0], atol=1e-8)


def test_degenerate_facet_objective():
    sol = solve_lp(make_program(
        [-1.0, -1.0],
        [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]],
        [1, 1, 1.5, 0, 0],
    ))
    assert sol.status == "optimal"
    assert abs(sol.v.sum() - 1.5) < 1e-8


def test_infeasible_detected():
    # x <= 0 and x >= 1: the solver tests no Farkas certificate, since the
    # L1L1 LP is always feasible (test_l1l1_lp_feasible_and_bounded), so
    # the lane ends by the stall rule; an infeasible program must never
    # end optimal
    sol = solve_lp(make_program([1.0], [[1.0], [-1.0]], [0.0, -1.0]))
    assert sol.status == "max_iter"


def test_unbounded_detected():
    # min -x subject to x >= 0: the L1L1 LP is bounded, so the solver tests
    # no certificate and the lane ends by the stall rule; an unbounded
    # program must never end optimal
    sol = solve_lp(make_program([-1.0], [[-1.0]], [0.0]))
    assert sol.status == "max_iter"


def test_l1l1_lp_feasible_and_bounded(rng):
    # why the solver tests no certificate: y = 0 with t1 = |x1|, t2 = eps*nu
    # and t3 = 0 meets every row of the L1L1 LP, and its cost is
    # non-negative on the t >= 0 that its block C rows -t <= h_C <= 0 imply
    for alpha, eps in ((0.0, 0.0), (0.0, 0.3), (1e-3, 0.0), (0.7, 1e-2), (50.0, 2.0)):
        L, M = int(rng.integers(3, 9)), int(rng.integers(1, 12))
        x1 = rng.normal(size=3)
        x1[:2] = (abs(x1[0]), -abs(x1[1]))             # mixed signs
        p = StimulusProblem.from_parts(rng.normal(size=(3, L)),
                                       rng.normal(size=(M, L)), x1, 4e-3)
        lp, G, E = assembled_l1l1_lp(p, alpha, eps)
        k = 3 + M + L                                   # epigraph variables
        v0 = np.concatenate([np.zeros(L), np.abs(x1), np.full(M, eps * p.nu),
                             np.zeros(L)])
        assert np.all(G @ v0 <= lp.h)
        assert np.array_equal(E @ v0, lp.f)
        assert np.all(lp.c >= 0.0) and not lp.c[:L].any()
        C = G[2 * k:3 * k].toarray()
        assert np.array_equal(C, np.hstack([np.zeros((k, L)), -np.eye(k)]))
        assert np.all(lp.h[2 * k:3 * k] <= 0.0)


def test_equality_constraint():
    sol = solve_lp(make_program([1.0, 2.0], [[-1, 0], [0, -1]], [0, 0],
                                [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.v, [1.0, 0.0], atol=1e-7)


def test_solution_invariants_on_random_instances(rng):
    for _ in range(15):
        c, G, h, E, f = random_bounded_lp(rng)
        lp = make_program(c, G, h, E, f)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        tol = 1e-10
        assert np.all(G @ sol.v <= lp.h + tol * (1 + np.abs(lp.h).max()))
        if E is not None:
            assert np.abs(E @ sol.v - lp.f).max() <= tol * (1 + np.abs(lp.f).max())
        assert sol.residuals["gap"] <= tol * (1 + abs(c @ sol.v))


def test_matches_vertex_enumeration(rng):
    for _ in range(20):
        c, G, h, E, f = random_bounded_lp(rng)
        sol = solve_lp(make_program(c, G, h, E, f))
        ref = lp_vertex_minimum(c, G, h, E, f)
        assert abs(np.asarray(c) @ sol.v - ref) <= 1e-6


def test_objective_scaling_leaves_argmin(rng):
    c = np.array([3.0, -2.0])
    G = np.vstack([np.eye(2), -np.eye(2), [[2, 1]]])
    h = np.array([1, 1, 1, 1, 1.5])
    ref = solve_lp(make_program(c, G, h)).v
    for s in (1e-3, 7.0, 1e4):
        v = solve_lp(make_program(s * c, G, h)).v
        assert np.abs(v - ref).max() <= 1e-8


def test_mu_monotone_on_solvable_instances(rng):
    for _ in range(10):
        c, G, h, E, f = random_bounded_lp(rng)
        sol = solve_lp(make_program(c, G, h, E, f))
        assert sol.status == "optimal"
        hist = sol.mu_history
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))


def test_max_step_matches_mask_form(rng):
    # the boundary step equals the min over the decreasing entries, bitwise
    for n in (1, 7, 997):
        x = rng.uniform(0.0, 10.0, n) * 10.0 ** rng.integers(-12, 4, n)
        dx = rng.normal(size=n) * 10.0 ** rng.integers(-12, 4, n)
        dx[rng.random(n) < 0.2] = 0.0
        neg = dx < 0
        mask = float(np.min(-x[neg] / dx[neg])) if neg.any() else np.inf
        assert np.float64(_max_step(x, dx)).tobytes() == np.float64(mask).tobytes()
    assert _max_step(np.ones(5), np.abs(rng.normal(size=5))) == np.inf
    assert _max_step(np.ones(3), np.zeros(3)) == np.inf


def test_input_validation():
    with pytest.raises(ValueError):
        make_program([1.0], np.zeros((0, 1)), [])
    with pytest.raises(ValueError):
        solve_lp(make_program([1.0], [[1.0]], [1.0]), tol=0.0)


def test_deterministic_resolve():
    lp = make_program([1.0, -2.0], np.vstack([np.eye(2), -np.eye(2)]),
                      [1, 1, 0, 0])
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.v, b.v)
    assert a.mu_history == b.mu_history


def test_ruiz_equilibration_bitwise(rng):
    # the L1L1 operator's scalings, computed from |K| and the unit blocks,
    # equal the reference Ruiz sweeps over the assembled signed G and E
    problems = [random_problem(rng, n_electrodes=int(rng.integers(2, 33)),
                               n_nuisance=int(rng.integers(1, 200))) for _ in range(6)]
    q = random_problem(rng, n_electrodes=16, n_nuisance=97)
    spread = np.exp(rng.uniform(-16, 16, (q.n_nuisance + 3, 1))) \
        * np.exp(rng.uniform(-16, 16, q.n_electrodes))   # ~14 decades per axis
    problems.append(StimulusProblem.from_parts(q.L1 * spread[:3], q.L2 * spread[3:],
                                               q.x1, q.mu))
    L1, L2 = q.L1.copy(), q.L2.copy()
    L1[:, 5] = L2[:, 5] = 0.0                       # a zero electrode column
    problems.append(StimulusProblem.from_parts(L1, L2, q.x1, q.mu))
    L2 = q.L2.copy()
    L2[40] = 0.0                                    # a zero nuisance row
    problems.append(StimulusProblem.from_parts(q.L1, L2, q.x1, q.mu))
    problems.append(random_problem(rng, n_electrodes=32, n_nuisance=3000))
    for p in problems:
        _, G, E = assembled_l1l1_lp(p, 1e-3, 1e-2)
        ops = L1L1Constraints(p)
        _, _, *ref = ruiz_by_diagonal_products(G, E)
        for got, want in zip((ops.dr_g, ops.dr_e, ops.dc), ref):
            assert got.tobytes() == want.tobytes()
