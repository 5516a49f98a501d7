import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from tesopt.optimizers import CurrentPattern, StimulusProblem
from tesopt.metrics import (
    MetricError,
    angle_difference,
    compute_metrics,
    cross3,
    current_ratio,
    deviation_estimate,
    focused_density,
)


def test_focused_density_basics(rng):
    p = random_problem(rng)
    assert focused_density(p, np.zeros(3)) == 0.0
    # alignment: L1 y = x1 gives ||x1||
    y = np.linalg.lstsq(p.L1, p.x1, rcond=None)[0]
    assert np.isclose(focused_density(p, y), np.linalg.norm(p.x1))


def test_focused_density_orthogonal(rng):
    p = random_problem(rng)
    # pick y with L1 y orthogonal to x1
    y = np.linalg.lstsq(p.L1, np.cross(p.x1, [1.0, 0.0, 0.0]), rcond=None)[0]
    val = focused_density(p, y)
    assert abs(val) <= 1e-9 * max(1.0, np.abs(p.L1 @ y).max())


def test_focused_density_zero_target_rejected(rng):
    p = replace(random_problem(rng), x1=np.zeros(3))
    with pytest.raises(MetricError):
        focused_density(p, np.ones(3))


def test_current_ratio_arithmetic():
    P = StimulusProblem.from_parts(
        np.array([[0.11, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        np.array([[0.11, 0.0], [0.0, 0.11], [0.11, 0.0], [0.0, 0.11]]),
        np.array([1.0, 0.0, 0.0]), 4e-3)
    y = np.array([1.0, 1.0])
    # gamma = 0.11, ||L2 y||_2 = 0.22, M = 4 -> theta = 0.11/(0.22/2) = 1
    assert np.isclose(focused_density(P, y), 0.11)
    assert np.isclose(np.linalg.norm(P.L2 @ y), 0.22)
    assert np.isclose(current_ratio(P, y), 1.0)


def test_current_ratio_scale_invariant(rng):
    p = random_problem(rng)
    y = rng.normal(size=3)
    t0 = current_ratio(p, y)
    for s in (1e-3, 7.0, 1e5):
        assert np.isclose(current_ratio(p, s * y), t0, rtol=1e-12)


def test_current_ratio_zero_cases(rng):
    p = random_problem(rng)
    y = np.linalg.lstsq(p.L1, np.cross(p.x1, [0.3, 1.0, 0.0]), rcond=None)[0]
    assert abs(current_ratio(p, y)) < 1e-6
    assert current_ratio(p, np.zeros(3)) == math.inf


def test_angle_difference_examples():
    assert angle_difference([1, 0, 0], [2, 0, 0]) == 0.0
    assert np.isclose(angle_difference([1, 0, 0], [-1, 0, 0]), 180.0)
    assert np.isclose(angle_difference([1, 0, 0], [0, 1, 0]), 90.0)
    with pytest.raises(MetricError):
        angle_difference([0, 0, 0], [1, 0, 0])


def test_angle_difference_resolves_small_angles():
    t = 1e-9
    ad = angle_difference([1.0, 0.0, 0.0], [math.cos(t), math.sin(t), 0.0])
    assert abs(ad - 5.729577951308232e-08) <= 1e-9 * 5.729577951308232e-08


def test_cross3_bitwise_np_cross(rng):
    # random pairs over eleven decades, with zero components of both
    # signs and parallel pairs
    a = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-8, 3, size=(20000, 1))
    b = rng.normal(size=(20000, 3))
    a[::7, 1] = 0.0
    b[::5, 2] = -0.0
    a[::11] = 3.0 * b[::11]
    for x, y in zip(a, b):
        assert cross3(x, y).tobytes() == np.cross(x, y).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.floats(0.01, 100.0))
def test_angle_symmetry_and_scaling(a, b, s):
    a = np.asarray(a)
    b = np.asarray(b)
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    assert np.isclose(angle_difference(a, b), angle_difference(b, a), atol=1e-5)
    # arccos near +-1 resolves angles only to ~sqrt(eps) radians
    assert np.isclose(angle_difference(s * a, b), angle_difference(a, b), atol=1e-5)


def test_gamma_linearity(rng):
    p = random_problem(rng)
    y1, y2 = rng.normal(size=3), rng.normal(size=3)
    a, b = 0.7, -2.3
    lhs = focused_density(p, a * y1 + b * y2)
    rhs = a * focused_density(p, y1) + b * focused_density(p, y2)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _surface(fn):
    return np.array([[fn(a, b) for b in (-1, 0, 1)] for a in (-1, 0, 1)], dtype=float)


def test_deviation_exact_quadratics():
    est = deviation_estimate(_surface(lambda a, b: a * a + b * b))
    assert abs(est.deviation - 0.5) <= 1e-12
    est = deviation_estimate(_surface(lambda a, b: 2 * a))
    assert abs(est.deviation - 1.0) <= 1e-12
    est = deviation_estimate(_surface(lambda a, b: 3.0))
    assert est.deviation <= 1e-12


def test_deviation_general_quadratic_half_step():
    # p = 1 + a - 2b + 0.5 a^2 - ab + 2 b^2; oracle: direct evaluation of
    # the polynomial over the nine half-step offsets
    def fn(a, b):
        return 1 + a - 2 * b + 0.5 * a * a - a * b + 2 * b * b

    est = deviation_estimate(_surface(fn))
    offsets = [(a, b) for a in (-0.5, 0, 0.5) for b in (-0.5, 0, 0.5)]
    oracle = max(abs(fn(a, b) - fn(0, 0)) for a, b in offsets)
    assert abs(est.deviation - oracle) <= 1e-12


def test_deviation_imputation_and_errors():
    grid = _surface(lambda a, b: a + b)
    grid[0, 0] = np.nan
    est = deviation_estimate(grid)
    assert est.imputed
    bad = np.full((3, 3), np.nan)
    bad[0, 0] = bad[1, 1] = bad[2, 2] = 1.0
    with pytest.raises(MetricError):
        deviation_estimate(bad)
    with pytest.raises(MetricError):
        deviation_estimate(np.zeros((2, 3)))


def test_compute_metrics_degenerate(rng):
    p = random_problem(rng)
    pat = CurrentPattern(y=np.zeros(3), electrode_ids=(1, 2, 3), active_ids=(),
                         status="degenerate", raw_objective=0.0)
    m = compute_metrics(p, pat)
    assert "degenerate" in m.flags
    assert m.gamma == 0.0 and m.max_current == 0.0


def test_compute_metrics_theta_is_current_ratio(rng):
    for _ in range(20):
        p = random_problem(rng, n_electrodes=6, n_nuisance=10, scale=10.0 ** rng.uniform(-3, 3))
        y = rng.normal(size=6) * 10.0 ** rng.uniform(-6, 0)
        m = compute_metrics(p, CurrentPattern(y - y.mean(), (), (), "optimal", 0.0))
        assert m.theta == current_ratio(p, y - y.mean()) and m.flags == ()
    p = random_problem(rng)
    # constant nuisance rows: a balanced pattern drives none
    p = StimulusProblem.from_parts(p.L1, np.full_like(p.L2, 0.5), p.x1, p.mu)
    m = compute_metrics(p, CurrentPattern(np.array([1e-3, -1e-3, 0.0]), (), (), "optimal", 0.0))
    assert m.theta == math.inf and m.flags == ("zero_nuisance",)


def test_metricset_validation(rng):
    from tesopt.metrics import MetricSet

    MetricSet(0.1, 2.0, 30.0, 1e-3).validate()
    with pytest.raises(MetricError):
        MetricSet(0.1, 2.0, 200.0, 1e-3).validate()
    with pytest.raises(MetricError):
        MetricSet(0.1, -2.0, 30.0, 1e-3).validate()
