"""Stimulation-pattern optimizers: L1-fit LP, L1-regularized L2 fit, and
ridge-weighted least squares, plus the shared dose post-scaling.

All solvers return a pattern that satisfies the hard constraints exactly:
the raw solution is balanced by mean subtraction and then scaled so the
total dose equals ``mu`` (which pins the per-channel maximum at mu/2 for
any balanced vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .lp import REGULARIZATION, LinearProgram, solve_lp_lanes
from .lp import solve_lp  # not called here; bench/tracer.py wraps it by this name

DEGENERATE_FRACTION = 1e-12   # ||y||_1 below this times mu counts as no pattern

NUISANCE_BLOCK = 1024         # rows per QR step of StimulusProblem.from_parts

RUIZ_ITERS = 10               # Ruiz equilibration sweeps of the L1L1 constraints

L1L2_TOL = 1e-6
L1L2_MAX_ITER = 20000

_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


class OptimizerError(RuntimeError):
    pass


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, exactly: the root of the Gram matrix's top eigenvalue."""
    gram = mat.T @ mat
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def db_to_linear(d: float) -> float:
    """Amplitude decibel convention: 20 dB per decade."""
    if not math.isfinite(d):
        raise OptimizerError("dB parameters must be finite")
    return float(10.0 ** (d / 20.0))


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only, C-ordered float array.

    C layout keeps BLAS summation order (and hence results) bitwise
    identical for column-subset copies, which numpy makes Fortran-ordered.
    A writeable array of the caller's is copied first, so that freezing
    it does not freeze the caller's array and the caller cannot change it
    under a problem; a read-only array is taken as it is.
    """
    out = np.ascontiguousarray(a, dtype=float)
    if out.flags.writeable and np.may_share_memory(out, a):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StimulusProblem:
    """Split lead field plus dose limits, scale factors and nuisance factor.

    ``L1`` holds the three target rows, ``L2`` the nuisance rows and ``R``
    the triangular factor of L2 = QR, at most L x L, so that ||R y|| =
    ||L2 y|| for every y.  The scale factors are zeta = ||L||_1, nu =
    ||x||_inf and sigma_scale = ||L||_2 of the stacked lead field.  There
    is no separate per-channel cap: a balanced pattern within the dose
    ``mu`` puts at most mu/2 on each sign, hence on any one channel.
    ``from_parts`` and ``restrict`` build problems; none changes after,
    and its arrays are read-only, so a write cannot leave R or the scale
    factors stale.
    """

    L1: np.ndarray              # (3, L) A/m^2 per A
    L2: np.ndarray              # (M, L)
    x1: np.ndarray              # (3,) A/m^2
    mu: float                   # total dose cap (A)
    zeta: float
    nu: float
    sigma_scale: float
    R: np.ndarray               # (min(M, L), L), upper triangular
    electrode_ids: tuple[int, ...]

    @property
    def gamma(self) -> float:
        """Per-channel cap (A) implied by balance and the dose cap."""
        return self.mu / 2.0

    @property
    def n_electrodes(self) -> int:
        return self.L1.shape[1]

    @property
    def n_nuisance(self) -> int:
        return self.L2.shape[0]

    @classmethod
    def from_parts(cls, L1, L2, x1, mu, electrode_ids=()) -> "StimulusProblem":
        """Build a problem; ids default to 1..L.

        R is factored block by block, R <- qr([R; next rows]), so the
        working copy holds NUISANCE_BLOCK rows rather than all of L2.
        """
        L2 = _frozen(L2)
        R = L2[:0]
        for start in range(0, L2.shape[0], NUISANCE_BLOCK):
            R = np.linalg.qr(np.vstack([R, L2[start:start + NUISANCE_BLOCK]]), mode="r")
        return cls._with_scales(L1, L2, x1, mu, R,
                                tuple(electrode_ids) or tuple(range(1, L2.shape[1] + 1)))

    @classmethod
    def _with_scales(cls, L1, L2, x1, mu, R, electrode_ids) -> "StimulusProblem":
        """The one place zeta, nu and sigma_scale are derived."""
        L1, L2, x1 = _frozen(L1), _frozen(L2), _frozen(x1)
        R.flags.writeable = False
        stacked = np.vstack([L1, L2])
        return cls(L1=L1, L2=L2, x1=x1, mu=float(mu),
                   zeta=float(np.abs(stacked).sum(axis=0).max()),
                   nu=float(np.abs(x1).max()), sigma_scale=spectral_norm(stacked),
                   R=R, electrode_ids=electrode_ids)

    def restrict(self, ids) -> "StimulusProblem":
        """Sub-problem over a channel subset; scale factors are re-derived.

        L2[:, cols] = Q R[:, cols], so the sub-problem's R is the R of
        R[:, cols], an at most L x k factorization that never reads L2
        (column deletion; Golub & Van Loan, Matrix Computations, 6.5).
        """
        ids = tuple(sorted(ids))
        index = {eid: i for i, eid in enumerate(self.electrode_ids)}
        cols = [index[eid] for eid in ids]
        return self._with_scales(self.L1[:, cols], self.L2[:, cols], self.x1, self.mu,
                                 np.linalg.qr(self.R[:, cols], mode="r"), ids)

    def nuisance_norm(self, y: np.ndarray) -> float:
        """||L2 y||, as ||R y|| over the nuisance factor; 0 for y = 0.

        Below R's roundoff scale, M eps sigma_scale ||y||, ||R y|| carries
        no digit of ||L2 y||, so the norm is then taken over L2 itself: a
        pattern that drives no nuisance field reads exactly 0.
        """
        if not y.any():
            return 0.0
        norm = float(np.linalg.norm(self.R @ y))
        if norm <= self.n_nuisance * np.finfo(float).eps * self.sigma_scale * np.linalg.norm(y):
            return float(np.linalg.norm(self.L2 @ y))
        return norm

    def nuisance_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, V) with L2'L2 = V diag(s^2) V' and V orthogonal, from the SVD
        of R: s ascending, led by L - M zeros when M < L."""
        _, s, vt = np.linalg.svd(self.R)
        s = np.concatenate([np.zeros(self.n_electrodes - s.size), s[::-1]])
        return s, np.ascontiguousarray(vt[::-1].T)


@dataclass(frozen=True)
class CurrentPattern:
    """Per-electrode injected currents with solver bookkeeping."""

    y: np.ndarray
    electrode_ids: tuple[int, ...]
    active_ids: tuple[int, ...]
    status: str                 # optimal | degenerate | max_iter | error
    raw_objective: float

    @property
    def degenerate(self) -> bool:
        return self.status == "degenerate"

    def validate(self, mu: float, gamma: float) -> None:
        if self.degenerate:
            return
        l1 = np.abs(self.y).sum()
        if abs(self.y.sum()) > 1e-9 * max(l1, mu):
            raise OptimizerError("pattern violates current balance")
        if l1 > mu * (1.0 + 1e-9):
            raise OptimizerError("total dose exceeded")
        if np.abs(self.y).max() > gamma * (1.0 + 1e-9):
            raise OptimizerError("channel cap exceeded")


def equalize_dose(y: np.ndarray, mu: float) -> np.ndarray:
    """Scale a balanced pattern so its total absolute dose equals ``mu``."""
    y = np.asarray(y, dtype=float)
    l1 = np.abs(y).sum()
    if l1 == 0.0:
        raise OptimizerError("cannot scale an all-zero pattern")
    if abs(y.sum()) > 1e-6 * l1:
        raise OptimizerError("pattern must be balanced before dose scaling")
    return y * (mu / l1)


def _finalize(p: StimulusProblem, y_raw: np.ndarray, status: str,
              raw_objective: float) -> CurrentPattern:
    y = y_raw - y_raw.mean()
    if np.abs(y).sum() < DEGENERATE_FRACTION * p.mu:
        # no pattern: degenerate where it is a proved optimum, else the status stands
        return CurrentPattern(
            y=np.zeros_like(y), electrode_ids=p.electrode_ids, active_ids=(),
            status="degenerate" if status == "optimal" else status,
            raw_objective=raw_objective,
        )
    y = equalize_dose(y, p.mu)
    active = tuple(p.electrode_ids[i]
                   for i in np.flatnonzero(np.abs(y) > DEGENERATE_FRACTION * p.mu))
    return CurrentPattern(
        y=y, electrode_ids=p.electrode_ids, active_ids=active,
        status=status, raw_objective=raw_objective,
    )


def l1l1_objective(p: StimulusProblem, y: np.ndarray, alpha: float, eps: float) -> float:
    """L1 data fit with a nuisance dead zone and an L1 pattern penalty."""
    fit = np.abs(p.L1 @ y - p.x1).sum()
    nuisance = np.maximum(np.abs(p.L2 @ y), eps * p.nu).sum()
    return float(fit + nuisance + alpha * p.zeta * np.abs(y).sum())


def l1l2_objective(p: StimulusProblem, y: np.ndarray, alpha: float, eps: float) -> float:
    fit = np.linalg.norm(p.L1 @ y - p.x1)
    dead = eps * p.nu * np.sqrt(p.n_nuisance)
    nuisance = max(p.nuisance_norm(y), dead)
    return float(fit + nuisance + alpha * p.zeta * np.abs(y).sum())


def build_l1l1_lp(p: StimulusProblem, ops: L1L1Constraints, alpha: float,
                  eps: float) -> LinearProgram:
    """Epigraph LP for the dead-zone L1 fitting problem.

    Variables are (y, t1, t2, t3); t1/t2 bound the absolute fit and
    nuisance residuals, t3 bounds |y| and carries the dose cap and the
    weighted pattern penalty.  The per-channel cap mu/2 follows from
    balance and the dose cap, so it has no rows of its own.  Only c and
    h depend on alpha and eps: the constraints are ``ops``, the
    ``L1L1Constraints(p)`` that ``solve_l1l1`` builds and equilibrates
    once per call, and every program of that call shares it.
    """
    if alpha < 0.0 or eps < 0.0:
        raise OptimizerError("alpha and eps must be non-negative")
    L = p.n_electrodes
    M = p.n_nuisance
    h = np.concatenate([
        p.x1,
        np.zeros(M),
        np.zeros(L),
        -p.x1,
        np.zeros(M),
        np.zeros(L),
        np.zeros(3),
        -eps * p.nu * np.ones(M),
        np.zeros(L),
        [p.mu],
    ])
    c = np.concatenate([
        np.zeros(L), np.ones(3), np.ones(M), alpha * p.zeta * np.ones(L)
    ])
    return LinearProgram(c=c, h=h, f=np.zeros(1), ops=ops)


def _l1l1_scalings(K: np.ndarray):
    """Ruiz scalings of ``build_l1l1_lp``'s constraints: ``r`` (k,) of the
    rows of blocks A and B, ``dr_e`` of the balance row, ``cy`` (L,) of y.

    Each of RUIZ_ITERS sweeps divides every row of [G; E], then every
    column, by the square root of its largest magnitude (Ruiz,
    RAL-TR-2001-034).  The other scalings stay exactly 1: block C's rows
    and the dose row hold a single 1 each, and block A's t entries ``ta``
    start at 1 and stay <= 1, in doubles too, as a row factor is at least
    the root of each entry; so C's 1 is the largest of every t column.
    B's magnitudes equal A's, the zeros of |[K; -I]| change no maximum,
    and |x s| = |x| s exactly for s > 0, so the scalings equal those of
    the assembled signed [G; E] bit for bit.
    """
    nk, L = K.shape
    k = nk + L
    Ky = np.abs(np.vstack([K, np.eye(L)]))      # blocks A and B on y: |[K; -I]|
    ta, e = np.ones(k), np.ones(L)              # block A on t (-I), the balance row
    r, dr_e, cy = np.ones(k), 1.0, np.ones(L)
    for _ in range(RUIZ_ITERS):
        rr = np.sqrt(np.maximum(Ky.max(axis=1), ta))
        re = np.sqrt(e.max())
        ir = 1.0 / rr
        Ky *= ir[:, None]
        ta *= ir
        e *= 1.0 / re
        cc = np.sqrt(np.maximum(Ky.max(axis=0), e))
        ic = 1.0 / cc
        Ky *= ic
        e *= ic
        r *= rr
        dr_e *= re
        cy *= cc
    return r, dr_e, cy


class L1L1Constraints:
    """The constraints of ``build_l1l1_lp`` as an operator for ``solve_lp``.

    ``solve_l1l1`` builds one per call, for the lanes of that call, and
    the operator keeps the Newton state of its last ``factor`` until the
    call ends; a problem holds none of it.

    With K = [L1; L2] and k = 3 + M + L rows per block, the constraints
    on v = (y, t), t = (t1, t2, t3), are

        G v = [Ky - t; -Ky - t; -t; 1't3],  Ky = [K y; -y],
        E v = 1'y,

    in blocks A, B, C plus the dose row.  Products apply these blocks
    to the equilibrated data, Gs v = G (v/dc) / dr_g and so on; no sparse
    matrix is formed.  Of the scalings, which ``_l1l1_scalings`` computes
    when the operator is built, only r (A/B rows), dr_e and cy (y columns)
    differ from 1, so the methods scale no other row or column.  Every
    method acts on a (B, .) stack of lanes: products with K are stacked
    ``np.matmul`` calls, one vector-matrix product per lane, and every
    reduction is a row sum, so each lane's row is computed as it would be
    alone.  A gemm over the whole stack would be faster, but its rows can
    round differently with the rows beside them.

    Newton steps are taken in electrode space, in the original scale,
    where the weights are W' = W/dr_g^2: W/r^2 on blocks A and B, W
    elsewhere.  The t1 and t2 blocks of G'W'G are diagonal, and the t3
    block is diagonal plus the rank-one dose row, so all three are
    eliminated (t3 by Sherman-Morrison).  That leaves the L x L matrix

        S = K' diag(D1, D2) K + diag(D3) + rho q q'

    with D = (4ab + (a+b)c)/(a+b+c) for the block weights a, b, c (free
    of cancellation), and q, rho the t3 coupling and the dose weight
    after Sherman-Morrison.  Each lane's S is factored by LAPACK
    ``potrf``, and the balance row is then one scalar Schur complement,
    1'S^-1 1.  S gets the same roundoff-scale relative diagonal shift as
    the test suite's reference operator over CSR matrices.  It keeps the
    Cholesky defined when the weight spread leaves S numerically
    singular, and its error is small enough for the one correction
    ``solve_lp`` may apply.  References:
    Mehrotra, SIAM J. Optim. 2 (1992); Wright, Primal-Dual Interior-Point
    Methods (SIAM 1997), ch. 11.
    """

    def __init__(self, p: StimulusProblem):
        self.L, M = p.n_electrodes, p.n_nuisance
        self.K = np.vstack([p.L1, p.L2])
        self.KT = np.ascontiguousarray(self.K.T)
        self.nk = 3 + M                         # rows of K
        self.k = self.nk + self.L               # rows per block A, B, C
        self.m, self.n, self.p = 3 * self.k + 1, self.L + self.k, 1
        self.pen = slice(self.nk, self.k)
        self.r, dr_e, self.cy = _l1l1_scalings(self.K)
        self.r2 = self.r**2
        self.dr_g = np.concatenate([self.r, self.r, np.ones(self.k + 1)])
        self.dr_e = np.array([dr_e])
        self.dc = np.concatenate([self.cy, np.ones(self.k)])

    def _K(self, x: np.ndarray) -> np.ndarray:
        """K x for each row x of a (B, L) stack."""
        return np.matmul(x[:, None, :], self.KT)[:, 0]

    def _KT(self, x: np.ndarray) -> np.ndarray:
        """K' x for each row x of a (B, nk) stack."""
        return np.matmul(x[:, None, :], self.K)[:, 0]

    def G(self, v: np.ndarray) -> np.ndarray:
        y, t = v[:, :self.L] / self.cy, v[:, self.L:]
        ky = np.concatenate([self._K(y), -y], axis=1)
        return np.concatenate([(ky - t) / self.r, -(ky + t) / self.r, -t,
                               t[:, self.pen].sum(axis=1, keepdims=True)], axis=1)

    def GT(self, z: np.ndarray) -> np.ndarray:
        k = self.k
        a, b, c = z[:, :k] / self.r, z[:, k:2 * k] / self.r, z[:, 2 * k:3 * k]
        ab = a - b
        gt = -(a + b + c)
        gt[:, self.pen] += z[:, 3 * k:]
        return np.concatenate([(self._KT(ab[:, :self.nk]) - ab[:, self.nk:]) / self.cy, gt],
                              axis=1)

    def E(self, v: np.ndarray) -> np.ndarray:
        return (v[:, :self.L] / self.cy).sum(axis=1, keepdims=True) / self.dr_e

    def ET(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([y / self.dr_e[0] / self.cy, np.zeros((len(y), self.k))],
                              axis=1)

    def factor(self, W: np.ndarray) -> np.ndarray:
        k, L = self.k, self.L
        a, b, c = W[:, :k] / self.r2, W[:, k:2 * k] / self.r2, W[:, 2 * k:3 * k]
        self.s = a + b + c
        d = (4.0 * a * b + (a + b) * c) / self.s
        # the (t, y) block of G'W'G is diag(e) [K; I]
        self.e = b - a
        self.e[:, self.pen] *= -1.0
        self.es = self.e / self.s
        self.inv_s3 = 1.0 / self.s[:, self.pen]
        w_dose = W[:, 3 * k]
        self.rho = w_dose / (1.0 + w_dose * self.inv_s3.sum(axis=1))
        q = self.es[:, self.pen]
        S = np.matmul(self.KT, d[:, :self.nk, None] * self.K) \
            + self.rho[:, None, None] * (q[:, :, None] * q[:, None, :])
        diag = S.reshape(len(W), -1)[:, ::L + 1]    # a strided view of each diagonal
        diag += d[:, self.pen]
        diag += REGULARIZATION * np.maximum(1.0, diag.max(axis=1))[:, None]
        # each S is symmetric, so its transpose is the Fortran-ordered S
        # that potrf factors in place
        self.chol = []
        ok = np.ones(len(W), dtype=bool)
        for lane, mat in enumerate(S):
            chol, info = _POTRF(mat.T, overwrite_a=True)
            self.chol.append(chol)
            ok[lane] = info == 0
        if ok.all():
            self.u = self._chol_solve(np.ones((len(W), L)))
            self.u_sum = self.u.sum(axis=1)
        return ok

    def _chol_solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        for lane, (chol, r) in enumerate(zip(self.chol, rhs)):
            x[lane], info = _POTRS(chol, r)
            if info != 0:
                raise ValueError(f"potrs argument {-info} is invalid")
        return x

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        # the t block is diagonal on t1 and t2; on t3 its inverse is
        # (diag(s3) + w_dose 1 1')^-1 = diag(1/s3) - rho (1/s3)(1/s3)'
        L, pen = self.L, self.pen
        gy, gt = self.cy * r1[:, :L], r1[:, L:]
        h = self.es * gt
        h[:, pen] -= (self.rho * (gt[:, pen] * self.inv_s3).sum(axis=1))[:, None] \
            * self.es[:, pen]
        w = self._chol_solve(gy - self._KT(h[:, :self.nk]) - h[:, pen])
        lam = (w.sum(axis=1) - self.dr_e[0] * r2[:, 0]) / self.u_sum
        x = w - lam[:, None] * self.u
        t = (gt - self.e * np.concatenate([self._K(x), x], axis=1)) / self.s
        t[:, pen] -= (self.rho * t[:, pen].sum(axis=1))[:, None] * self.inv_s3
        return np.concatenate([self.cy * x, t], axis=1), self.dr_e * lam[:, None]


def _zero_optimal(p: StimulusProblem, g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The exact y = 0 certificate of L1L1 and L1L2, one flag per alpha.

    -g is the data fit's subgradient at y = 0.  y = 0 is optimal when
    some nu has |g_i - nu| <= alpha*zeta for all i, that is when
    (max g - min g)/2 <= alpha*zeta: the nuisance term has 0 in its
    subdifferential there, the dose rows are slack and nu is the balance
    multiplier.  The test is exact when eps*nu > 0 and g is the fit's
    only subgradient at 0.  |g_i| <= zeta, so every alpha >= 1 passes.
    """
    return 0.5 * (g.max() - g.min()) <= alpha * p.zeta


def solve_l1l1(p: StimulusProblem, alpha, eps) -> list[CurrentPattern]:
    """One pattern per entry of the equal-length sequences ``alpha`` and
    ``eps``, in order.

    Cells that pass the y = 0 certificate, with g = L1' sign(x1), are
    settled by it, exactly when no x1_i is 0; the others are the lanes
    of one ``solve_lp_lanes`` call, each bitwise its one-lane solve.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    y = np.zeros((alpha.size, p.n_electrodes))
    status = np.full(alpha.size, "optimal", dtype=object)
    lanes = np.flatnonzero(~_zero_optimal(p, p.L1.T @ np.sign(p.x1), alpha))
    ops = L1L1Constraints(p) if lanes.size else None   # built only for an LP lane
    sols = solve_lp_lanes([build_l1l1_lp(p, ops, alpha[b], eps[b]) for b in lanes])
    for b, sol in zip(lanes, sols):
        y[b], status[b] = sol.v[:p.n_electrodes], sol.status
    return [_finalize(p, y[b], status[b], l1l1_objective(p, y[b], alpha[b], eps[b]))
            for b in range(alpha.size)]


def _simplex_thresholds(w: np.ndarray, r: float) -> np.ndarray:
    """Per row of w, the t with sum((w - t)_+) = r, for r > 0 (Duchi et al.,
    ICML 2008)."""
    n = w.shape[1]
    u = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - r
    # the last k with u_k * k > css_k, counted from the end
    k = n - 1 - np.argmax((u * np.arange(1, n + 1) > css)[:, ::-1], axis=1)
    return css[np.arange(w.shape[0]), k] / (k + 1.0)


def _balance(w: np.ndarray, a: np.ndarray, lam2: np.ndarray) -> np.ndarray:
    """sum((w - a)_+) - sum((a - lam2 - w)_+) for each row of w and each
    entry of the same row of a: (B, L) and (B, m) give (B, m)."""
    d = w[:, None, :] - a[:, :, None]
    above = np.maximum(d, 0.0).sum(axis=2)
    np.negative(d, out=d)
    d -= lam2[:, None, None]
    return above - np.maximum(d, 0.0, out=d).sum(axis=2)


def project_feasible(w: np.ndarray, mu: float,
                     l1_weight: float | np.ndarray = 0.0) -> np.ndarray:
    """Exact prox of l1_weight*||.||_1 over {1'x = 0, ||x||_1 <= mu}.

    The minimizer is x = (w - a)_+ - (b - w)_+.  With the dose slack,
    a - b = 2*l1_weight and a balances the two parts; the balance is
    piecewise linear and non-increasing in a, with kinks at w_i and
    w_i + 2*l1_weight, so a is interpolated on the first pair of sorted
    kinks where it turns non-positive.  That pair is found in two
    passes: on about every sqrt(2L)-th kink, then on the kinks between
    the two of those that bracket the sign change.  When that x exceeds
    the dose, each part carries exactly mu/2 and a, b are the two
    simplex thresholds.  With l1_weight = 0 this is the plain
    projection.

    ``w`` is one point (L,) or a stack of rows (B, L), each projected on
    its own; ``l1_weight`` is a scalar or one weight per row.  A row's
    result does not depend on the rows beside it.
    """
    w = np.asarray(w, dtype=float)
    rows = np.atleast_2d(w)
    lam2 = 2.0 * np.asarray(l1_weight, dtype=float)
    if lam2.ndim == 0:
        lam2 = np.full(rows.shape[0], lam2)
    live = rows.max(axis=1) - rows.min(axis=1) > lam2
    if live.all():
        return _prox_rows(rows, mu, lam2).reshape(w.shape)
    out = np.zeros_like(rows)
    if live.any():
        out[live] = _prox_rows(rows[live], mu, lam2[live])
    return out.reshape(w.shape)


def _prox_rows(w: np.ndarray, mu: float, lam2: np.ndarray) -> np.ndarray:
    """``project_feasible`` on rows whose spread exceeds their lam2."""
    m = 2 * w.shape[1]
    kinks = np.sort(np.concatenate([w, w + lam2[:, None]], axis=1), axis=1)
    # the balance is > 0 at the first kink and < 0 at the last, so the
    # coarse pass, which ends on the last kink, always finds a kink <= 0
    step = math.isqrt(m - 1) + 1
    coarse = np.minimum(np.arange(step, m - 1 + step, step), m - 1)
    first = (_balance(w, kinks[:, coarse], lam2) <= 0.0).argmax(axis=1)
    r = np.arange(w.shape[0])[:, None]
    window = kinks[r, np.minimum(step * first[:, None] + np.arange(step + 1), m - 1)]
    bal = _balance(w, window, lam2)
    # k >= 1: the window starts on the first kink or on a coarse one > 0
    k = (bal <= 0.0).argmax(axis=1)[:, None] + np.array([-1, 0])
    (lo, hi), (a_lo, a_hi) = bal[r, k].T, window[r, k].T
    a = a_lo + (a_hi - a_lo) * (lo / (lo - hi))
    pos = np.maximum(w - a[:, None], 0.0)
    neg = np.maximum((a - lam2)[:, None] - w, 0.0)
    over = pos.sum(axis=1) + neg.sum(axis=1) > mu
    if over.any():
        wo = w[over]
        t = _simplex_thresholds(np.concatenate([wo, -wo]), 0.5 * mu)[:, None]
        pos[over] = np.maximum(wo - t[:len(wo)], 0.0)
        neg[over] = np.maximum(-t[len(wo):] - wo, 0.0)
    return pos - neg


def solve_l1l2(
    p: StimulusProblem, alpha, eps,
    tol: float = L1L2_TOL, max_iter: int = L1L2_MAX_ITER,
) -> list[CurrentPattern]:
    """First-order primal-dual splitting for the L2-fit variant, one lane
    per entry of the equal-length sequences ``alpha`` and ``eps``, all
    lanes of ``p`` in lockstep; one pattern per lane, in order.

    Dual blocks handle the fit norm and the dead-zone nuisance norm; the
    primal step takes the exact prox of the weighted L1 penalty
    restricted to the dose polytope.  Step sizes come from the norm of
    the stacked matrix (``sigma_scale``), split so primal moves are on
    the dose scale and dual moves on the unit-ball scale (Chambolle &
    Pock, J. Math. Imaging Vis. 40, 2011).

    The nuisance block enters through its QR factor R (L2 = QR): the
    nuisance dual starts at 0 and only gains multiples of L2 ybar, so it
    stays in range(Q), and its norm, L2' q and both residual norms are
    the same with R in place of L2.  The dead zone keeps sqrt(M).

    Every operation acts on each lane's row alone: products are einsum
    sums over one row, never a gemm, whose rows can round differently
    with the rows beside them.  A lane therefore ends bitwise as it
    would alone, whatever the other lanes, and it leaves the loop once
    it passes the residual test or reaches ``max_iter``.

    Cells that pass the y = 0 certificate, with g = L1'x1/||x1|| (0 when
    x1 = 0), are settled by it, exactly when x1 != 0, and run no lane.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    x1_norm = np.linalg.norm(p.x1)
    g = (p.L1.T @ p.x1) / x1_norm if x1_norm > 0 else np.zeros(p.n_electrodes)
    y = np.zeros((alpha.size, p.n_electrodes))
    status = np.full(alpha.size, "optimal", dtype=object)
    lanes = np.flatnonzero(~_zero_optimal(p, g, alpha))
    if lanes.size:
        y[lanes], status[lanes] = _pdhg_lanes(p, alpha[lanes] * p.zeta, eps[lanes],
                                              tol, max_iter)
    return [_finalize(p, y[b], status[b], l1l2_objective(p, y[b], alpha[b], eps[b]))
            for b in range(alpha.size)]


def _pdhg_lanes(p: StimulusProblem, thr: np.ndarray, eps: np.ndarray,
                tol: float, max_iter: int):
    """The PDHG loop of ``solve_l1l2`` on its uncertified lanes.

    Returns the final y, one row per lane, and each lane's status:
    ``optimal`` where it passed the residual test, else ``max_iter``.
    """
    K = np.vstack([p.L1, p.R])
    KT = np.ascontiguousarray(K.T)
    op_norm = max(p.sigma_scale, 1e-300)
    tau = 0.99 * p.mu / op_norm
    sigma = 0.99 / (p.mu * op_norm)
    sigma_x1 = sigma * p.x1
    p_tol = tol * (1.0 + op_norm)
    d_tol = tol * (1.0 + op_norm * p.mu)
    lam = tau * thr                                     # prox weights
    shrink = sigma * (eps * p.nu * np.sqrt(p.n_nuisance))
    y_out = np.zeros((thr.size, p.n_electrodes))
    status = np.full(thr.size, "max_iter", dtype=object)
    run = np.arange(thr.size)                           # lanes still iterating
    y = y_out.copy()
    ybar = y.copy()
    q = np.zeros((thr.size, K.shape[0]))
    for it in range(1, max_iter + 1):
        w = q + sigma * np.einsum("ij,bj->bi", K, ybar)
        w1 = w[:, :3] - sigma_x1
        w2 = w[:, 3:]
        n1 = np.sqrt((w1 * w1).sum(axis=1))
        n2 = np.sqrt((w2 * w2).sum(axis=1))
        keep = np.minimum(np.maximum(n2 - shrink, 0.0), 1.0)
        qn = np.concatenate([
            w1 / np.maximum(1.0, n1)[:, None],
            w2 * np.divide(keep, n2, out=np.ones_like(n2), where=n2 > 0)[:, None],
        ], axis=1)
        y_new = project_feasible(y - tau * np.einsum("ij,bj->bi", KT, qn), p.mu, lam)
        if it == 1 or it % 25 == 0:
            dq = q - qn
            dy = y - y_new
            rp = dy / tau - np.einsum("ij,bj->bi", KT, dq)
            rd = dq / sigma - np.einsum("ij,bj->bi", K, dy)
            done = ((np.sqrt((rp * rp).sum(axis=1)) <= p_tol)
                    & (np.sqrt((rd * rd).sum(axis=1)) <= d_tol))
            if done.any():
                y_out[run[done]] = y_new[done]
                status[run[done]] = "optimal"
                live = ~done
                if not live.any():
                    return y_out, status
                run, lam, shrink = run[live], lam[live], shrink[live]
                y, y_new, qn = y[live], y_new[live], qn[live]
        ybar = 2.0 * y_new - y
        q = qn
        y = y_new
    y_out[run] = y
    return y_out, status


def tls_raw_solution(p: StimulusProblem, alpha, delta) -> np.ndarray:
    """Minimize ||L1 y - x1||^2 + (delta*alpha)^2 ||L2 y||^2 + (alpha*sigma)^2 ||y||^2.

    In closed form through the three target rows.  With the nuisance
    spectrum L2'L2 = V diag(s^2) V', the penalty is alpha^2 y'By with
    B = V diag(delta^2 s^2 + sigma^2) V', and y = V W z, W = diag(delta^2
    s^2 + sigma^2)^(-1/2), turns the problem into standard-form Tikhonov
    regularization of the 3 x L matrix C = L1 V W (Elden, BIT 17, 1977;
    Hansen, Rank-Deficient and Discrete Ill-Posed Problems, SIAM 1998).
    With the thin SVD C = P diag(g) Q', at most three g_i,
    z = sum_i g_i/(g_i^2 + alpha^2) (P'x1)_i q_i, exactly, for any rank of
    L1 and any number of nuisance rows.  So one SVD of C per distinct
    delta, and per cell a filter and two row-wise products.

    ``alpha`` and ``delta`` are scalars, giving y of shape (L,), or
    equal-length sequences, giving one row of a (B, L) stack per entry.
    Per-cell products are row-wise einsum sums, never a gemm over the
    stack, so a row is bitwise the one-cell result, whatever the rows
    beside it.  Every y must solve the normal equations K'K y = L1'x1,
    K'K = L1'L1 + alpha^2 B, to 1e-10 relative, on the scale of
    max(||L1||_2^2, alpha^2 (delta^2 max(s)^2 + sigma^2)) <= ||K'K||_2.
    At delta = 65 dB, the top weight column, y is backed only to about
    1e-11 relative, the limit that L2's own conditioning sets.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if not (a > 0.0).all():
        raise OptimizerError("alpha must be positive for the least-squares path")
    s, V = p.nuisance_spectrum()
    sigma2 = p.sigma_scale ** 2
    deltas, which = np.unique(d, return_inverse=True)
    w = 1.0 / np.sqrt((deltas[:, None] * s) ** 2 + sigma2)         # (D, L)
    # the SVD of C' = Q diag(g) P', whose rows come in non-increasing
    # order of w: the Householder steps from the top keep its small rows
    # accurate, where an SVD of C loses the small columns (5.7e-13 against
    # 8.9e-16 relative in y at (-240, 65) dB on a 5-channel, 3-row problem)
    Q, g, Pt = np.linalg.svd(w[:, :, None] * (V.T @ p.L1.T), full_matrices=False)
    px1 = (Pt * p.x1).sum(axis=2)                                   # P'x1, (D, k)
    g, px1, Q, w = g[which], px1[which], Q[which], w[which]
    coef = px1 * g / (g * g + (a * a)[:, None])
    y = np.einsum("ij,bj->bi", V, w * (Q * coef[:, None, :]).sum(axis=2))

    l1y = np.einsum("ij,bj->bi", p.L1, y)
    ry = np.einsum("ij,bj->bi", p.R, y)
    normal = (np.einsum("ji,bj->bi", p.L1, l1y)
              + ((d * a) ** 2)[:, None] * np.einsum("ji,bj->bi", p.R, ry)
              + ((a * a) * sigma2)[:, None] * y)
    b = p.L1.T @ p.x1
    gram_norm = np.maximum(spectral_norm(p.L1.T) ** 2, (a * a) * (d * d * s[-1] ** 2 + sigma2))
    scale = np.maximum(np.maximum(np.linalg.norm(b), gram_norm * np.linalg.norm(y, axis=1)),
                       1e-300)
    if not (np.linalg.norm(normal - b, axis=1) <= 1e-10 * scale).all():
        raise OptimizerError("TLS solution fails the normal equations")
    return y if np.ndim(alpha) or np.ndim(delta) else y[0]


def solve_tls(p: StimulusProblem, alpha, delta) -> list[CurrentPattern]:
    """One pattern per entry of the equal-length sequences ``alpha`` and
    ``delta``, in order, all from one ``tls_raw_solution`` call."""
    a = np.asarray(alpha, dtype=float)
    d = np.asarray(delta, dtype=float)
    y = tls_raw_solution(p, a, d)
    fit = np.einsum("ij,bj->bi", p.L1, y) - p.x1
    ry = np.einsum("ij,bj->bi", p.R, y)
    raw = ((fit * fit).sum(axis=1) + (d * a) ** 2 * (ry * ry).sum(axis=1)
           + (a * p.sigma_scale) ** 2 * (y * y).sum(axis=1))
    return [_finalize(p, row, "optimal", float(obj)) for row, obj in zip(y, raw)]
