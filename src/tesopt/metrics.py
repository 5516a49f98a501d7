"""Evaluation quantities for optimized patterns and lattice deviations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSet:
    gamma: float          # focused current density, A/m^2
    theta: float          # focused-to-nuisance ratio, dimensionless
    ad_deg: float         # angle difference, degrees
    max_current: float    # ||y||_inf, A
    flags: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.flags:
            return
        if self.gamma >= 0.0 and not self.theta >= 0.0:
            raise MetricError("theta must be non-negative when gamma is")
        if not (0.0 <= self.ad_deg <= 180.0):
            raise MetricError("angle difference out of range")
        if self.max_current < 0.0:
            raise MetricError("negative max current")


def focused_density(p, y) -> float:
    """Density generated along the target direction: x1'(L1 y)/||x1||."""
    norm = np.linalg.norm(p.x1)
    if norm == 0.0:
        raise MetricError("target density vector is zero")
    return float(p.x1 @ (p.L1 @ y) / norm)


def current_ratio(p, y) -> float:
    """Focused density over the RMS-style nuisance magnitude.

    ||L2 y|| comes from ``p.nuisance_norm``.  A vanishing nuisance field
    cannot occur on realistic lead fields; it is reported as +inf so
    callers can flag it.
    """
    gamma = focused_density(p, y)
    nuis = p.nuisance_norm(y)
    if nuis == 0.0:
        return math.inf
    return float(gamma / (nuis / np.sqrt(p.n_nuisance)))


def angle_difference(j1, j2) -> float:
    """Angle between two 3-D field vectors in degrees.

    atan2(|j1 x j2|, j1 . j2) resolves small angles to full relative
    precision, where the arccos of a cosine bottoms out near 8.5e-7 deg.
    """
    j1 = np.asarray(j1, dtype=float)
    j2 = np.asarray(j2, dtype=float)
    if not j1.any() or not j2.any():
        raise MetricError("angle undefined for zero vectors")
    return float(np.degrees(np.arctan2(np.linalg.norm(cross3(j1, j2)), j1 @ j2)))


def cross3(a, b) -> np.ndarray:
    """a x b of two 3-vectors: the products and differences of ``np.cross``,
    so bitwise equal to it, without its broadcasting set-up."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def compute_metrics(p, pattern) -> MetricSet:
    """MetricSet for a (possibly degenerate) current pattern."""
    y = pattern.y
    flags = []
    if pattern.degenerate or np.abs(y).sum() == 0.0:
        return MetricSet(0.0, 0.0, math.nan, 0.0, flags=("degenerate",))
    gamma = focused_density(p, y)
    theta = current_ratio(p, y)
    if theta == math.inf:
        flags.append("zero_nuisance")
    focused = p.L1 @ y
    if np.linalg.norm(focused) == 0.0:
        ad = math.nan
        flags.append("zero_focused")
    else:
        ad = angle_difference(focused, p.x1)
    return MetricSet(
        gamma=gamma,
        theta=theta,
        ad_deg=ad,
        max_current=float(np.abs(y).max()),
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class DeviationEstimate:
    """Half-step deviation of a quadratic fit around a lattice cell."""

    deviation: float
    coefficients: tuple[float, ...]   # c0, ca, cb, caa, cab, cbb
    imputed: bool
    clamped: bool = False


_OFFSETS = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
_HALF_OFFSETS = np.array([(a, b) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.0, 0.5)])


def _design(offsets: np.ndarray) -> np.ndarray:
    a, b = offsets[:, 0], offsets[:, 1]
    return np.column_stack([np.ones_like(a), a, b, a * a, a * b, b * b])


def deviation_estimate(grid3x3, clamped: bool = False) -> DeviationEstimate:
    """Quadratic-surface deviation over a half-resolution neighborhood.

    Fits c0 + c1 a + c2 b + c3 a^2 + c4 ab + c5 b^2 to the 3x3 samples
    (offsets in lattice units) and reports the largest deviation of the
    fit from its center value over the nine half-step offsets.
    Non-finite samples are imputed from the nearest finite neighbor.
    """
    samples = np.asarray(grid3x3, dtype=float)
    if samples.shape != (3, 3):
        raise MetricError("need a 3x3 sample window")
    finite = np.isfinite(samples)
    if finite.sum() < 6:
        raise MetricError("fewer than 6 usable samples in the window")
    imputed = not finite.all()
    values = samples.copy()
    if imputed:
        good = np.argwhere(finite)
        for (i, j) in np.argwhere(~finite):
            d2 = ((good - (i, j)) ** 2).sum(axis=1)
            gi, gj = good[int(np.argmin(d2))]
            values[i, j] = values[gi, gj]
    design = _design(_OFFSETS)
    coeffs, *_ = np.linalg.lstsq(design, values.ravel(), rcond=None)
    fitted = _design(_HALF_OFFSETS) @ coeffs
    deviation = float(np.abs(fitted - coeffs[0]).max())
    return DeviationEstimate(
        deviation=deviation,
        coefficients=tuple(float(c) for c in coeffs),
        imputed=imputed,
        clamped=clamped,
    )
