"""Acceptance suite: one test per criterion, every tolerance pinned.

All model-based checks run on the built-in three-layer ball (radii
0.09/0.085/0.078 m, 32 electrodes at 2 kOhm, 1000 field points, fixed
seed).  A summary line per criterion is printed at the end of the run.
"""

import pickle
import time

import numpy as np
import pytest

from oracles import (balanced_grid_minimum, block_matrix, forward_reference, l1l1_cell,
                     l1l2_cell, lp_vertex_minimum, random_bounded_lp, ridge_reference)
from tesopt import cli, fem, meshgen
from tesopt.config import RunConfig
from tesopt.lp import make_program, solve_lp
from tesopt.metrics import current_ratio, deviation_estimate, focused_density
from tesopt.optimizers import tls_raw_solution
from tesopt.search import (
    default_lattice_spec,
    select_case_a,
    select_case_b,
    two_run_search,
)

RESULTS: list[tuple[int, str, bool]] = []


def record(num: int, description: str, passed: bool) -> None:
    RESULTS.append((num, description, passed))
    state = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {state}: {description}")


def check(num: int, description: str, condition: bool) -> None:
    record(num, description, bool(condition))
    assert condition, f"criterion {num} failed: {description}"


from conftest import random_problem  # noqa: E402


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Built-in acceptance model and its stimulus problem."""
    cfg = RunConfig()

    t0 = time.perf_counter()
    mesh = meshgen.generate_ball_mesh(list(cfg.radii), list(cfg.conductivities),
                                      cfg.cell_size)
    layout = meshgen.place_electrodes(mesh, cfg.electrode_count, cfg.impedance_ohm)
    points = meshgen.sample_field_points(mesh, cfg.target_compartment,
                                         cfg.field_point_count, cfg.seed)
    target = meshgen.place_target(mesh, points, cfg.target_hint, cfg.d_target)
    t_mesh = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = fem.assemble(mesh, layout)
    lf = fem.lead_field(system, mesh, points, target_point=target.point_index)
    problem = fem.split_problem(lf, target, cfg.mu)
    t_leadfield = time.perf_counter() - t0
    return dict(cfg=cfg, mesh=mesh, layout=layout, points=points, target=target,
                system=system, lf=lf, problem=problem, t_mesh=t_mesh,
                t_leadfield=t_leadfield)


def test_criterion_1_lp_vertex_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        c, G, h, E, f = random_bounded_lp(rng)
        sol = solve_lp(make_program(c, G, h, E, f))
        assert sol.status == "optimal"
        ref = lp_vertex_minimum(c, G, h, E, f)
        worst = max(worst, abs(np.asarray(c) @ sol.v - ref))
    elapsed = time.perf_counter() - t0
    check(1, f"50 LPs within 1e-6 of vertex enumeration "
             f"(worst {worst:.1e}) in {elapsed:.1f}s < 5s",
          worst <= 1e-6 and elapsed < 5.0)


def test_criterion_2_convex_solver_oracle():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for solver, objective in ((l1l1_cell, "l1"), (l1l2_cell, "l2")):
        for _ in range(20):
            p = random_problem(rng)
            alpha = 10 ** rng.uniform(-4, -1)
            eps = 10 ** rng.uniform(-3, -0.5)
            pat = solver(p, alpha, eps)
            assert pat.status == "optimal"
            ref = balanced_grid_minimum(p, objective, alpha, eps)
            worst = max(worst, abs(pat.raw_objective - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    check(2, f"20 L1L1 + 20 L1L2 instances within 1e-3 of the balanced-grid "
             f"oracle (worst {worst:.1e}) in {elapsed:.0f}s < 60s",
          worst <= 1e-3 and elapsed < 60.0)


def test_criterion_3_tls_exactness():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p = random_problem(rng, n_electrodes=6, n_nuisance=15)
        alpha = 10 ** rng.uniform(-3, -1)
        delta = 10 ** rng.uniform(-2, 1)
        y = tls_raw_solution(p, alpha, delta)
        A = (p.L1.T @ p.L1 + (delta * alpha) ** 2 * (p.L2.T @ p.L2)
             + (alpha * p.sigma_scale) ** 2 * np.eye(p.n_electrodes))
        b = p.target_drive()
        worst = max(worst, np.linalg.norm(A @ y - b) / np.linalg.norm(b))
    elapsed = time.perf_counter() - t0
    check(3, f"20 normal-equation solves with relative residual <= 1e-10 "
             f"(worst {worst:.1e}) in {elapsed:.2f}s < 1s",
          worst <= 1e-10 and elapsed < 1.0)


def test_criterion_4_bar_analytic_refinement():
    from test_fem import refined_bar_errors

    t0 = time.perf_counter()
    errors, r_ref = refined_bar_errors(lx=0.01, w=0.01, z=2000.0, levels=(6, 12, 24))
    elapsed = time.perf_counter() - t0
    monotone = errors[0] > errors[1] > errors[2]
    rel = errors[-1] / r_ref
    check(4, f"bar resistance within 2% (got {rel:.2%}) with monotone error "
             f"decrease {[round(e, 2) for e in errors]} in {elapsed:.0f}s < 30s",
          monotone and rel < 0.02 and elapsed < 30.0)


def test_criterion_5_fem_structure(desk):
    system = desk["system"]
    S = fem.schur_complement(system)
    scale = np.abs(S).max()
    sym_ok = np.abs(S - S.T).max() <= 1e-10 * scale
    ones = np.ones(system.n_nodes + system.n_electrodes)
    resid = block_matrix(system) @ ones
    block_scale = abs(system.A).max()
    null_ok = np.linalg.norm(resid) <= 1e-10 * block_scale * np.sqrt(ones.size)
    R = fem.resistivity_matrix(system)
    rng = np.random.default_rng(5)
    Y = rng.normal(size=(10, system.n_electrodes))
    Y = (Y - Y.mean(axis=1, keepdims=True)).T
    z_fwd, _ = forward_reference(system, Y)
    worst = np.max(np.linalg.norm(R @ Y - z_fwd, axis=0) / np.linalg.norm(z_fwd, axis=0))
    check(5, f"Schur symmetry 1e-10, null-vector annihilation 1e-10, R*y vs "
             f"forward solve <= 1e-8 on 10 patterns (worst {worst:.1e})",
          sym_ok and null_ok and worst <= 1e-8)


def test_criterion_6_constraint_suite(desk, outcomes):
    cfg = desk["cfg"]
    mu, gamma = cfg.mu, cfg.gamma
    n_checked = 0
    for method, grid in outcomes[1].items():
        for row in grid.cells:
            for cell in row:
                y = cell.pattern.y
                if cell.pattern.degenerate or not np.abs(y).sum():
                    continue
                n_checked += 1
                assert abs(y.sum()) <= 1e-9 * mu, (method, cell.params)
                assert abs(np.abs(y).sum() - mu) <= 1e-9, (method, cell.params)
                assert np.abs(y).max() <= gamma * (1 + 1e-9), (method, cell.params)
    check(6, f"dose constraints hold on all {n_checked} non-degenerate "
             f"candidates of three 12x12 lattices", n_checked > 100)


def test_criterion_7_weighting_expansion(desk):
    p = desk["problem"]
    ok = True
    details = []
    for alpha_db in (-90.0, -60.0):
        alpha = 10 ** (alpha_db / 20.0)
        y_tilde, W = ridge_reference(p, alpha)
        norm = np.linalg.norm(W @ (p.L2.T @ p.L2), 2)
        delta0 = np.sqrt(0.1 / (alpha**2 * norm))
        y_d = tls_raw_solution(p, alpha, delta0)
        deficit = 1.0 - focused_density(p, y_d) / focused_density(p, y_tilde)
        predicted = (delta0 * alpha) ** 2 \
            * np.linalg.norm(p.L2 @ y_tilde) ** 2 \
            / (p.x1 @ (p.L1 @ y_tilde))
        rel = abs(deficit - predicted) / abs(predicted)
        gamma0 = focused_density(p, tls_raw_solution(p, alpha, 0.0))
        theta0 = current_ratio(p, tls_raw_solution(p, alpha, 0.0))
        mono = True
        for frac in (1e-3, 1e-2):
            y_f = tls_raw_solution(p, alpha, frac * delta0)
            mono &= focused_density(p, y_f) <= gamma0
            mono &= current_ratio(p, y_f) >= theta0
        details.append(f"alpha={alpha_db:.0f}dB rel={rel:.1%} mono={mono}")
        ok &= rel <= 0.10 and mono
    check(7, "focused-density deficit matches the quadratic expansion within "
             f"10% and density/ratio are monotone near zero ({'; '.join(details)})",
          ok)


@pytest.fixture(scope="session")
def outcomes(desk):
    """Every (method, case, channels) search of the shipped pipeline, the
    three first-run lattices and the pipeline's timings."""
    _, results, timings = cli.run_search_pipeline(desk["problem"], desk["cfg"])
    run1_grids = {out.method: out.run1_grid for out in results}
    return results, run1_grids, timings


def test_criterion_8_determinism_and_dominance(desk, outcomes):
    results, run1_grids, _ = outcomes
    cfg = desk["cfg"]
    p = desk["problem"]

    # byte-identical rerun of a full two-run search
    spec = default_lattice_spec("tls", cfg.lattice_step_db)
    a = two_run_search(p, "tls", "B", 8, spec, threshold=cfg.gamma_threshold)
    b = two_run_search(p, "tls", "B", 8, spec, threshold=cfg.gamma_threshold)
    rerun_ok = pickle.dumps(a) == pickle.dumps(b)

    # bitwise-identical re-solves for the two convex methods
    y1 = l1l1_cell(p, 1e-6, 1e-3).y
    y2 = l1l1_cell(p, 1e-6, 1e-3).y
    rerun_ok &= np.array_equal(y1, y2)
    y1 = l1l2_cell(p, 1e-6, 1e-3).y
    y2 = l1l2_cell(p, 1e-6, 1e-3).y
    rerun_ok &= np.array_equal(y1, y2)

    # case-B dominance on every evaluated grid
    dominance_ok = True
    grids = list(run1_grids.values())
    for out in results:
        for g in (out.run1_grid, out.run2_grid):
            if g is not None:
                grids.append(g)
    for g in grids:
        try:
            sb = select_case_b(g)
        except Exception:
            continue
        sa = select_case_a(g, cfg.gamma_threshold)
        if sa is not None:
            dominance_ok &= (g.cell(*sb).metrics.gamma
                             >= g.cell(*sa).metrics.gamma)

    # montage nesting: run-2 support inside the run-1 top-k set
    nesting_ok = True
    for out in results:
        if out.status != "ok":
            continue
        nesting_ok &= set(out.run2.pattern.active_ids) <= set(out.montage)
        top_k = set(out.montage)
        nesting_ok &= len(top_k) == out.channels
    check(8, f"byte-identical reruns, case-B dominance on {len(grids)} grids, "
             "run-2 montage nested in run-1 top-k",
          rerun_ok and dominance_ok and nesting_ok)


def test_criterion_9_deviation_estimator():
    surfaces = [
        (lambda a, b: a * a + b * b, 0.5),
        (lambda a, b: 2.0 * a, 1.0),
        (lambda a, b: 3.0, 0.0),
    ]
    worst = 0.0
    for fn, expect in surfaces:
        samples = np.array([[fn(a, b) for b in (-1, 0, 1)] for a in (-1, 0, 1)])
        est = deviation_estimate(samples)
        worst = max(worst, abs(est.deviation - expect))
    check(9, f"three analytic quadratics reproduce half-step extrema "
             f"(worst deviation error {worst:.1e} <= 1e-12)", worst <= 1e-12)


def test_criterion_10_end_to_end_budget(desk, outcomes):
    _, _, timings = outcomes
    # the lattice_<method>_s and search_<method>_<case>_<k>_s entries
    total = desk["t_mesh"] + desk["t_leadfield"] + sum(timings.values())
    l1l1_t = timings["lattice_l1l1_s"]
    tls_t = timings["lattice_tls_s"]
    check(10, f"pipeline mesh+leadfield+searches in {total:.0f}s < 900s; "
              f"L1L1 lattice ({l1l1_t:.0f}s) slower than TLS ({tls_t:.1f}s)",
          total < 900.0 and l1l1_t > tls_t)
