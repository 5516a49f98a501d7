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
Ruiz row and column equilibration is applied to the constraints up
front and the iteration works on the equilibrated data only: each
residual is computed once per iteration, and the stopping tests rescale
it elementwise to original units.  A solve ends as ``infeasible`` or
``unbounded`` only on a Farkas certificate; one that neither converges
nor certifies ends as ``max_iter``.

The solver reaches G and E only through a constraint operator, the
``ops`` of a ``LinearProgram``.  An operator has the sizes ``m``, ``n``
and ``p`` and supplies

- for ``ruiz_scalings``, which runs on a working copy of the data that
  it scales in place: ``row_maxima()``, the absolute row maxima of G
  and of E, ``scale_rows(rg, re)``, ``col_maxima()`` and
  ``scale_cols(cc)``, which multiply rows or columns by the given
  reciprocal factors;
- the scalings ``dr_g``, ``dr_e`` and ``dc`` that this produced, with
  Gs = diag(1/dr_g) G diag(1/dc) and Es = diag(1/dr_e) E diag(1/dc);
- products with Gs, Gs', Es and Es': ``G(v)``, ``GT(z)``, ``E(v)`` and
  ``ET(y)``;
- the Newton step: ``factor(W)`` prepares it for the weights W = z/s,
  and ``solve(r1, r2)`` returns (dv, dy) with Gs'WGs dv + Es'dy = r1
  and Es dv = r2, up to the error the one correction removes.

``SparseConstraints`` is the generic operator over CSR matrices, which
``make_program`` builds; a caller that knows the structure of its LP
may supply a faster one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REGULARIZATION = 1e-15   # relative diagonal shift, at roundoff scale
REFINE_TOL = 1e-14       # relative residual below which no correction is made
FRACTION_TO_BOUNDARY = 0.99
CERT_TOL = 1e-8          # certificate tolerance on equilibrated data
LP_TOL = 1e-10           # default relative stopping tolerance
LP_MAX_ITER = 200        # default iteration cap
RUIZ_ITERS = 10          # Ruiz equilibration sweeps


@dataclass(frozen=True)
class LinearProgram:
    """min c'v subject to G v <= h, E v = f, with G and E behind ``ops``.

    The operator is equilibrated when it is built, so copies made by
    ``dataclasses.replace`` with a new c, h or f share its scalings.
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
    status: str                       # optimal | infeasible | unbounded | max_iter
    iterations: int
    residuals: dict[str, float]       # primal, dual, gap (on original data)
    mu_history: tuple[float, ...] = ()


def make_program(c, G, h, E=None, f=None) -> LinearProgram:
    """Assemble a LinearProgram from array-likes, densifying nothing."""
    c = np.asarray(c, dtype=float).ravel()
    G = sp.csr_matrix(G, dtype=float)
    h = np.asarray(h, dtype=float).ravel()
    if E is None:
        E = sp.csr_matrix((0, c.size))
        f = np.zeros(0)
    else:
        E = sp.csr_matrix(E, dtype=float)
        f = np.asarray(f, dtype=float).ravel()
    if E.shape[0] and E.shape[1] != G.shape[1]:
        raise ValueError("inconsistent equality dimensions")
    lp = LinearProgram(c=c, h=h, f=f, ops=SparseConstraints(G, E))
    lp.validate()
    return lp


def _scale_factors(maxima: np.ndarray) -> np.ndarray:
    """Square roots of positive maxima; empty rows or columns keep 1."""
    return np.where(maxima > 0, np.sqrt(np.where(maxima > 0, maxima, 1.0)), 1.0)


def ruiz_scalings(work):
    """Ruiz row/column scalings (dr_g, dr_e, dc) making [G; E] entries O(1).

    ``work`` holds a copy of the data and scales it in place, so each
    entry is multiplied by the reciprocal of each factor in turn, exactly
    as a product with a diagonal matrix would do it.
    """
    dr_g, dr_e, dc = np.ones(work.m), np.ones(work.p), np.ones(work.n)
    for _ in range(RUIZ_ITERS):
        rg, re = (_scale_factors(mx) for mx in work.row_maxima())
        work.scale_rows(1.0 / rg, 1.0 / re)
        cc = _scale_factors(work.col_maxima())
        work.scale_cols(1.0 / cc)
        dr_g *= rg
        dr_e *= re
        dc *= cc
    return dr_g, dr_e, dc


def _row_maxima(A: sp.csr_matrix) -> np.ndarray:
    out = np.zeros(A.shape[0])
    filled = np.diff(A.indptr) > 0
    if A.nnz:
        out[filled] = np.maximum.reduceat(np.abs(A.data), A.indptr[:-1][filled])
    return out


class SparseConstraints:
    """The generic constraint operator: CSR G and E, and a sparse KKT LU.

    Equilibrates copies Gs, Es of G and E when built: row maxima come
    from segment reductions over ``indptr``, column maxima from a
    scatter-max over ``indices``.  ``factor(W)`` forms Gs'WGs and factors
    [[Gs'WGs + dI, Es'], [Es, -dI]] by sparse LU; ``solve(r1, r2)``
    returns (dv, dy) for it.  The primal regularization d is relative
    to the largest diagonal entry, so it stays at roundoff scale next to
    it when active-set weights blow up, and only keeps the factorization
    defined; the equality block is O(1) after equilibration and keeps
    the absolute value.  This is the reference for structured
    operators.
    """

    def __init__(self, G: sp.csr_matrix, E: sp.csr_matrix):
        (self.m, self.n), self.p = G.shape, E.shape[0]
        self.Gs, self.Es = G.tocsr(copy=True), E.tocsr(copy=True)
        self.dr_g, self.dr_e, self.dc = ruiz_scalings(self)
        self.GsT, self.EsT = self.Gs.T.tocsr(), self.Es.T.tocsr()
        self._lu = None

    def row_maxima(self):
        return _row_maxima(self.Gs), _row_maxima(self.Es)

    def scale_rows(self, rg, re):
        self.Gs.data *= np.repeat(rg, np.diff(self.Gs.indptr))
        self.Es.data *= np.repeat(re, np.diff(self.Es.indptr))

    def col_maxima(self):
        col = np.zeros(self.n)
        np.maximum.at(col, self.Gs.indices, np.abs(self.Gs.data))
        np.maximum.at(col, self.Es.indices, np.abs(self.Es.data))
        return col

    def scale_cols(self, cc):
        self.Gs.data *= cc[self.Gs.indices]
        self.Es.data *= cc[self.Es.indices]

    def G(self, v):
        return self.Gs @ v

    def GT(self, z):
        return self.GsT @ z

    def E(self, v):
        return self.Es @ v

    def ET(self, y):
        return self.EsT @ y

    def factor(self, W: np.ndarray) -> None:
        H = self.Gs.T @ sp.diags(W) @ self.Gs
        delta_p = REGULARIZATION * max(1.0, abs(H.diagonal()).max())
        K = H + delta_p * sp.identity(self.n)
        if self.p:
            K = sp.bmat([[K, self.EsT], [self.Es, -REGULARIZATION * sp.identity(self.p)]])
        self._lu = spla.splu(K.tocsc())

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        x = self._lu.solve(np.concatenate([r1, r2]))
        return x[: self.n], x[self.n :]


def _refined_solve(ops, W, r1, r2):
    """Solve the unregularized Newton system with at most one correction.

    The system is Gs'WGs dv + Es'dy = r1, Es dv = r2; ``ops.solve``
    applies a factorization of a shifted or reduced form of it, and the
    residual comes from the operator's products.  With the shift at
    roundoff scale the first solve is already at the elimination's
    roundoff floor, so one correction is applied only when the residual
    exceeds REFINE_TOL relative to the right-hand side; a second could
    not push it below that floor.
    """
    dv, dy = ops.solve(r1, r2)
    e1 = r1 - (ops.GT(W * ops.G(dv)) + ops.ET(dy))
    e2 = r2 - ops.E(dv)
    rhs_norm = np.linalg.norm(np.concatenate([r1, r2]))
    if np.linalg.norm(np.concatenate([e1, e2])) <= REFINE_TOL * (1.0 + rhs_norm):
        return dv, dy
    c1, c2 = ops.solve(e1, e2)
    return dv + c1, dy + c2


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest step a with x + a*dx >= 0; inf when no entry decreases."""
    return float(np.divide(x, -dx, out=np.full_like(x, np.inf), where=dx < 0).min())


def solve_lp(
    lp: LinearProgram,
    tol: float = LP_TOL,
    max_iter: int = LP_MAX_ITER,
) -> LpSolution:
    """Solve the LP; statuses other than ``optimal`` carry best iterates.

    The loop, its starting point and its refined Newton steps reach the
    constraints only through ``lp.ops``: products with the equilibrated
    Gs, Gs', Es and Es', the scalings dr_g, dr_e and dc, and the
    operator's ``factor(W)``/``solve(r1, r2)`` for the Newton system
    Gs'WGs dv + Es'dy = r1, Es dv = r2 (see the module docstring).
    """
    lp.validate()
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    ops = lp.ops
    dr_g, dr_e, dc = ops.dr_g, ops.dr_e, ops.dc
    cs = lp.c / dc
    hs = lp.h / dr_g
    fs = lp.f / dr_e if lp.f.size else lp.f
    m, p = ops.m, ops.p

    h_scale = 1.0 + np.abs(lp.h).max(initial=0.0)
    f_scale = 1.0 + np.abs(lp.f).max(initial=0.0)
    c_scale = 1.0 + np.abs(lp.c).max(initial=0.0)

    # starting point: primal/dual least-squares with unit weights, then a
    # positive shift (Mehrotra-style) on the slacks and multipliers
    W = np.ones(m)
    ops.factor(W)
    v, _ = _refined_solve(ops, W, ops.GT(hs), fs)
    r = hs - ops.G(v)
    shift = -r.min()
    s = r if shift < 0 else r + (1.0 + shift)
    s = np.maximum(s, 1e-8)
    u, yw = _refined_solve(ops, W, cs, np.zeros(p))
    z = -ops.G(u)
    y = -yw
    shift = -z.min()
    z = z if shift < 0 else z + (1.0 + shift)
    z = np.maximum(z, 1e-8)

    mu_history: list[float] = []
    status = "max_iter"
    iters = 0

    def residuals():
        """Equilibrated residuals, and their measures in original units:
        the original residuals are dc*rd, dr_e*rp and dr_g*rg."""
        rd = cs + ops.GT(z) + (ops.ET(y) if p else 0.0)
        rp = (ops.E(v) - fs) if p else np.zeros(0)
        rg = ops.G(v) + s - hs
        obj = float(cs @ v)
        dual_obj = float(-(hs @ z) - (fs @ y if p else 0.0))
        # primal-dual objective gap: the complementarity sum s'z floors at
        # roughly m*eps*scale in doubles and cannot certify tight tolerances
        return rd, rp, rg, {
            "ineq": float(np.abs(dr_g * rg).max()),
            "eq": float(np.abs(dr_e * rp).max(initial=0.0)),
            "dual": float(np.abs(dc * rd).max()),
            "gap": abs(obj - dual_obj),
            "objective": obj,
        }

    def converged(res):
        return (
            res["ineq"] <= tol * h_scale
            and res["eq"] <= tol * f_scale
            and res["dual"] <= tol * c_scale
            and res["gap"] <= tol * (1.0 + abs(res["objective"]))
        )

    best_err = np.inf
    stall = 0
    for it in range(1, max_iter + 1):
        iters = it
        mu = float(s @ z) / m
        mu_history.append(mu)

        rd, rp, rg, res = residuals()
        if converged(res):
            status = "optimal"
            break
        err = max(res["ineq"] / h_scale, res["eq"] / f_scale,
                  res["dual"] / c_scale, res["gap"] / (1.0 + abs(res["objective"])))
        if err < best_err * 0.98:
            best_err = err
            stall = 0
        else:
            stall += 1
            if stall >= 15:  # no measurable progress: numerical floor reached
                break

        # Farkas-type certificates on the equilibrated data, with
        # Gs'z + Es'y = rd - cs, Gs v = rg - s + hs and Es v = rp + fs
        obj_ray = float(hs @ z + (fs @ y if p else 0.0))
        znorm = max(np.abs(z).max(), np.abs(y).max(initial=0.0))
        if obj_ray < -CERT_TOL * znorm:
            cert = np.abs(rd - cs).max()
            if cert <= CERT_TOL * max(1.0, znorm) and znorm > 1e2:
                status = "infeasible"
                break
        vnorm = np.abs(v).max()
        if vnorm > 1e2 and res["objective"] < -CERT_TOL * vnorm:
            ray_ineq = np.maximum(rg - s + hs, 0.0).max()
            ray_eq = np.abs(rp + fs).max() if p else 0.0
            if max(ray_ineq, ray_eq) <= CERT_TOL * vnorm:
                status = "unbounded"
                break

        W = np.clip(z / s, 1e-16, 1e16)
        try:
            ops.factor(W)
        except (RuntimeError, np.linalg.LinAlgError):  # singular step matrix
            break

        # predictor (affine scaling) step
        rhs1 = -rd - ops.GT(W * rg - z)
        dv, dy = _refined_solve(ops, W, rhs1, -rp)
        ds = -rg - ops.G(dv)
        dz = -z - W * ds
        ap = min(1.0, _max_step(s, ds))
        ad = min(1.0, _max_step(z, dz))
        mu_aff = float((s + ap * ds) @ (z + ad * dz)) / m
        sigma = np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0)

        # corrector step reusing the factorization
        t = sigma * mu - ds * dz
        rhs1 = -rd - ops.GT(t / s - z + W * rg)
        dv, dy = _refined_solve(ops, W, rhs1, -rp)
        ds = -rg - ops.G(dv)
        dz = t / s - z - W * ds

        ap = min(1.0, FRACTION_TO_BOUNDARY * _max_step(s, ds))
        ad = min(1.0, FRACTION_TO_BOUNDARY * _max_step(z, dz))
        v = v + ap * dv
        s = s + ap * ds
        y = y + ad * dy
        z = z + ad * dz
    else:
        # the loop ran out after a step: test the final iterate once
        _, _, _, res = residuals()
        if converged(res):
            status = "optimal"

    return LpSolution(
        v=v / dc,
        status=status,
        iterations=iters,
        residuals={
            "primal": max(res["ineq"], res["eq"]),
            "dual": res["dual"],
            "gap": res["gap"],
        },
        mu_history=tuple(mu_history),
    )
