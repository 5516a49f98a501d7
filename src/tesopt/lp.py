"""Primal-dual interior-point solver for linear programs.

Solves
    min  c'v   subject to   G v <= h,   E v = f

with a Mehrotra-style predictor-corrector.  Each Newton step reduces to
a quasi-definite KKT system

    ( G' W G + d I    E' ) (dv)
    ( E              -d I ) (dy)

with W = z/s and a static regularization d, a relative shift at
roundoff scale.  The first solve is then already as accurate as the
elimination's roundoff allows; one correction against the unregularized
system is applied only when its residual is not yet at that floor.
The iteration works on the operator's equilibrated data only: each
residual is computed once per iteration, and the stopping tests
rescale it elementwise to original units.  A solve ends ``optimal``
when it passes the residual test, and ``max_iter`` otherwise: at the
iteration cap, on the stall rule or on a singular Newton matrix.  It
tests no Farkas certificate: the one LP the package solves, that of
``build_l1l1_lp``, is always feasible and bounded.

``solve_lp_lanes`` solves programs, the lanes, that share one constraint
operator and differ only in c, h and f.  It runs one loop per stack of
at most LANE_ENTRIES iterate entries (lanes x inequality rows).  Every
iterate is a (B, .) array with one row per lane, and every decision is
taken per lane: the residual test, the 15-iteration stall rule, the
at-most-one correction and a failed factorization.  A lane leaves the
stack when it ends.  Every operation acts on each lane's row alone, and
every reduction is a row sum, so a lane ends bitwise as it would alone,
whatever lanes share the loop; ``solve_lp`` is the one-lane case.

The solver reaches G and E only through a constraint operator, the
``ops`` of a ``LinearProgram``.  An operator has the sizes ``m``, ``n``
and ``p`` and supplies

- the row and column scalings ``dr_g``, ``dr_e`` and ``dc`` of its
  equilibrated data, Gs = diag(1/dr_g) G diag(1/dc) and
  Es = diag(1/dr_e) E diag(1/dc);
- lane-wise products with Gs, Gs', Es and Es': ``G(v)``, ``GT(z)``,
  ``E(v)`` and ``ET(y)`` map a (B, .) stack to a C-ordered (B, .) stack,
  row by row;
- the lane-wise Newton step: ``factor(W)`` prepares it for the (B, m)
  weights W = z/s, one factorization per row, and returns a boolean per
  lane that is False where the step matrix is singular; after a factor
  in which every lane succeeded, ``solve(r1, r2)`` returns (dv, dy) with
  Gs'WGs dv + Es'dy = r1 and Es dv = r2 in each row, up to the error the
  one correction removes.

The package's one operator is ``optimizers.L1L1Constraints``, for the
LP of ``build_l1l1_lp``, which computes its Ruiz scalings when it is
built: ``solve_l1l1`` builds one per call and hands it to every lane of
that call.  The test suite drives the same loop through a generic
operator over CSR matrices, which is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REGULARIZATION = 1e-15   # relative diagonal shift, at roundoff scale
REFINE_TOL = 1e-14       # relative residual below which no correction is made
FRACTION_TO_BOUNDARY = 0.99
LP_TOL = 1e-10           # default relative stopping tolerance
LP_MAX_ITER = 200        # default iteration cap
STALL_ITERS = 15         # iterations without measurable progress that end a lane
LANE_ENTRIES = 1 << 16   # lanes x inequality rows per stack; ~14 MB of L1L1 arrays


@dataclass(frozen=True)
class LinearProgram:
    """min c'v subject to G v <= h, E v = f, with G and E behind ``ops``.

    The operator carries its scalings, so copies made by
    ``dataclasses.replace`` with a new c, h or f share them.
    """

    c: np.ndarray        # (n,)
    h: np.ndarray        # (m,)
    f: np.ndarray        # (p,), possibly p = 0
    ops: object          # constraint operator, see the module docstring

    def validate(self) -> None:
        if self.ops.m < 1:
            raise ValueError("need at least one inequality row")
        if self.c.shape != (self.ops.n,) or self.h.shape != (self.ops.m,):
            raise ValueError("inconsistent inequality dimensions")
        if self.f.shape != (self.ops.p,):
            raise ValueError("inconsistent equality rhs")


@dataclass(frozen=True)
class LpSolution:
    v: np.ndarray
    status: str                       # optimal | max_iter
    iterations: int
    residuals: dict[str, float]       # primal, dual, gap (on original data)
    mu_history: tuple[float, ...] = ()


def _row_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of [a, b], from row sums."""
    return np.sqrt((a * a).sum(axis=1) + (b * b).sum(axis=1))


def _refined_solve(ops, W, r1, r2):
    """Solve the unregularized Newton system with at most one correction.

    The system is Gs'WGs dv + Es'dy = r1, Es dv = r2 in every lane;
    ``ops.solve`` applies a factorization of a shifted or reduced form of
    it, and the residual comes from the operator's products.  With the
    shift at roundoff scale the first solve is already at the
    elimination's roundoff floor, so one correction is applied only to
    the lanes whose residual exceeds REFINE_TOL relative to their
    right-hand side; a second could not push it below that floor.
    """
    dv, dy = ops.solve(r1, r2)
    e1 = r1 - (ops.GT(W * ops.G(dv)) + ops.ET(dy))
    e2 = r2 - ops.E(dv)
    fix = ~(_row_norms(e1, e2) <= REFINE_TOL * (1.0 + _row_norms(r1, r2)))
    if not fix.any():
        return dv, dy
    c1, c2 = ops.solve(e1, e2)
    fix = fix[:, None]
    return np.where(fix, dv + c1, dv), np.where(fix, dy + c2, dy)


def _max_step(x: np.ndarray, dx: np.ndarray):
    """Largest step a with x + a*dx >= 0 along the last axis; inf when no
    entry decreases."""
    return np.divide(x, -dx, out=np.full_like(x, np.inf), where=dx < 0).min(axis=-1)


def solve_lp(
    lp: LinearProgram,
    tol: float = LP_TOL,
    max_iter: int = LP_MAX_ITER,
) -> LpSolution:
    """Solve one LP: the one-lane case of ``solve_lp_lanes``."""
    return solve_lp_lanes([lp], tol, max_iter)[0]


def solve_lp_lanes(
    lps,
    tol: float = LP_TOL,
    max_iter: int = LP_MAX_ITER,
) -> list[LpSolution]:
    """Solve LPs that share one constraint operator as lockstep lanes.

    Returns one solution per program, in order; statuses other than
    ``optimal`` carry best iterates.  The loop, its starting point and
    its refined Newton steps reach the constraints only through the
    shared ``ops``: lane-wise products with the equilibrated Gs, Gs', Es
    and Es', the scalings dr_g, dr_e and dc, and the operator's
    ``factor(W)``/``solve(r1, r2)`` for the Newton systems
    Gs'WGs dv + Es'dy = r1, Es dv = r2 (see the module docstring).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not lps:
        return []
    ops = lps[0].ops
    for lp in lps:
        lp.validate()
        if lp.ops is not ops:
            raise ValueError("lanes must share one constraint operator")
    per_stack = max(1, LANE_ENTRIES // ops.m)
    if len(lps) > per_stack:
        return [sol for start in range(0, len(lps), per_stack)
                for sol in solve_lp_lanes(lps[start:start + per_stack], tol, max_iter)]

    dr_g, dr_e, dc = ops.dr_g, ops.dr_e, ops.dc
    c = np.array([lp.c for lp in lps])
    h = np.array([lp.h for lp in lps])
    f = np.array([lp.f for lp in lps]).reshape(len(lps), ops.p)
    cs, hs, fs = c / dc, h / dr_g, f / dr_e
    m, p = ops.m, ops.p

    h_scale = 1.0 + np.abs(h).max(axis=1, initial=0.0)
    f_scale = 1.0 + np.abs(f).max(axis=1, initial=0.0)
    c_scale = 1.0 + np.abs(c).max(axis=1, initial=0.0)

    # starting point: primal/dual least-squares with unit weights, then a
    # positive shift (Mehrotra-style) on the slacks and multipliers; the
    # weights, and so the factorization, are the same in every lane
    W = np.ones((len(lps), m))
    if not ops.factor(W).all():
        raise np.linalg.LinAlgError("Newton matrix of the starting point is singular")
    v, _ = _refined_solve(ops, W, ops.GT(hs), fs)
    r = hs - ops.G(v)
    shift = -r.min(axis=1, keepdims=True)
    s = np.maximum(np.where(shift < 0, r, r + (1.0 + shift)), 1e-8)
    u, yw = _refined_solve(ops, W, cs, np.zeros((len(lps), p)))
    z = -ops.G(u)
    y = -yw
    shift = -z.min(axis=1, keepdims=True)
    z = np.maximum(np.where(shift < 0, z, z + (1.0 + shift)), 1e-8)

    out: list[LpSolution | None] = [None] * len(lps)
    mu_history: list[list[float]] = [[] for _ in lps]
    run = np.arange(len(lps))                  # lanes still iterating

    def residuals():
        """Equilibrated residuals, and their measures in original units:
        the original residuals are dc*rd, dr_e*rp and dr_g*rg."""
        rd = cs + ops.GT(z) + ops.ET(y)
        rp = ops.E(v) - fs
        rg = ops.G(v) + s - hs
        obj = (cs * v).sum(axis=1)
        dual_obj = -(hs * z).sum(axis=1) - (fs * y).sum(axis=1)
        # primal-dual objective gap: the complementarity sum s'z floors at
        # roughly m*eps*scale in doubles and cannot certify tight tolerances
        return rd, rp, rg, {
            "ineq": np.abs(dr_g * rg).max(axis=1),
            "eq": np.abs(dr_e * rp).max(axis=1, initial=0.0),
            "dual": np.abs(dc * rd).max(axis=1),
            "gap": np.abs(obj - dual_obj),
            "objective": obj,
        }

    def converged(res):
        return ((res["ineq"] <= tol * h_scale)
                & (res["eq"] <= tol * f_scale)
                & (res["dual"] <= tol * c_scale)
                & (res["gap"] <= tol * (1.0 + np.abs(res["objective"]))))

    def finish(i, status, iters, res):
        b = run[i]
        out[b] = LpSolution(
            v=v[i] / dc,
            status=status,
            iterations=iters,
            residuals={
                "primal": float(max(res["ineq"][i], res["eq"][i])),
                "dual": float(res["dual"][i]),
                "gap": float(res["gap"][i]),
            },
            mu_history=tuple(mu_history[b]),
        )

    best_err = np.full(len(lps), np.inf)
    stall = np.zeros(len(lps), dtype=int)
    for it in range(1, max_iter + 1):
        mu = (s * z).sum(axis=1) / m
        for b, mu_b in zip(run, mu.tolist()):
            mu_history[b].append(mu_b)

        rd, rp, rg, res = residuals()
        conv = converged(res)
        err = np.maximum.reduce([res["ineq"] / h_scale, res["eq"] / f_scale,
                                 res["dual"] / c_scale,
                                 res["gap"] / (1.0 + np.abs(res["objective"]))])
        better = err < best_err * 0.98
        best_err = np.where(better, err, best_err)
        stall = np.where(better, 0, stall + 1)

        # no measurable progress for STALL_ITERS iterations: numerical floor
        ended = conv | (stall >= STALL_ITERS)

        go = np.flatnonzero(~ended)
        W = np.clip(z[go] / s[go], 1e-16, 1e16)
        while go.size:
            ok = ops.factor(W)
            if ok.all():
                break
            ended[go[~ok]] = True              # singular step matrix: max_iter
            go, W = go[ok], W[ok]
        for i in np.flatnonzero(ended):
            finish(i, "optimal" if conv[i] else "max_iter", it, res)
        if not go.size:
            break
        if go.size < run.size:
            (run, v, s, z, y, cs, hs, fs, h_scale, f_scale, c_scale, best_err,
             stall, mu, rd, rp, rg) = (a[go] for a in (
                run, v, s, z, y, cs, hs, fs, h_scale, f_scale, c_scale, best_err,
                stall, mu, rd, rp, rg))

        # predictor (affine scaling) step
        rhs1 = -rd - ops.GT(W * rg - z)
        dv, dy = _refined_solve(ops, W, rhs1, -rp)
        ds = -rg - ops.G(dv)
        dz = -z - W * ds
        ap = np.minimum(1.0, _max_step(s, ds))[:, None]
        ad = np.minimum(1.0, _max_step(z, dz))[:, None]
        mu_aff = ((s + ap * ds) * (z + ad * dz)).sum(axis=1) / m
        sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0)

        # corrector step reusing the factorization
        t = (sigma * mu)[:, None] - ds * dz
        rhs1 = -rd - ops.GT(t / s - z + W * rg)
        dv, dy = _refined_solve(ops, W, rhs1, -rp)
        ds = -rg - ops.G(dv)
        dz = t / s - z - W * ds

        ap = np.minimum(1.0, FRACTION_TO_BOUNDARY * _max_step(s, ds))[:, None]
        ad = np.minimum(1.0, FRACTION_TO_BOUNDARY * _max_step(z, dz))[:, None]
        v = v + ap * dv
        s = s + ap * ds
        y = y + ad * dy
        z = z + ad * dz
    else:
        # the loop ran out after a step: test the final iterates once
        _, _, _, res = residuals()
        for i, conv in enumerate(converged(res)):
            finish(i, "optimal" if conv else "max_iter", max_iter, res)
    return out
