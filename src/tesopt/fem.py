"""Complete-electrode-model FEM: assembly, forward solve, lead field.

Linear (P1) nodal elements on tetrahedra with constant conductivity per
element.  Electrodes enter through contact-impedance boundary terms; the
block system

    ( A  -B ) (z)   (0)
    (-B^T C ) (w) = (y)

is symmetric positive semidefinite with the constant vector in its
kernel.  The gauge is fixed by requiring the electrode voltages ``w`` to
sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshgen import ElectrodeLayout, FieldPointSet, HeadMesh, TargetSpec, boundary_faces
from .optimizers import StimulusProblem


class FemError(RuntimeError):
    """Raised on assembly or solver failures."""


@dataclass
class CemSystem:
    """Assembled FEM blocks of the electrode-driven conduction problem."""

    A: sp.csr_matrix            # (N, N) stiffness + electrode surface mass
    B: sp.csr_matrix            # (N, L)
    c_diag: np.ndarray          # (L,) entries 1/Z_l
    n_nodes: int
    n_electrodes: int
    _block_lu: spla.SuperLU | None = field(default=None, repr=False, compare=False)
    _stiff_lu: spla.SuperLU | None = field(default=None, repr=False, compare=False)

    def block_matrix(self) -> sp.csr_matrix:
        C = sp.diags(self.c_diag)
        return sp.bmat([[self.A, -self.B], [-self.B.T, C]], format="csr")

    def validate(self, tol: float = 1e-10) -> None:
        asym = abs(self.A - self.A.T)
        scale = abs(self.A).max()
        if asym.max() > 1e-12 * scale:
            raise FemError("A is not symmetric")
        if np.any(self.A.diagonal() <= 0.0):
            raise FemError("A has non-positive diagonal entries")
        ones = np.ones(self.n_nodes + self.n_electrodes)
        resid = self.block_matrix() @ ones
        if np.linalg.norm(resid) > tol * scale * np.sqrt(ones.size):
            raise FemError("block system does not annihilate the constant vector")


@dataclass(frozen=True)
class ForwardSolution:
    """Nodal potentials and ungrounded electrode voltages, in volts."""

    z: np.ndarray  # (N,)
    w: np.ndarray  # (L,)


@dataclass
class LeadField:
    """Dense map from electrode currents to volume current density.

    Rows are grouped by Cartesian component: row ``k * P + p`` holds the
    k-th density component at field point ``p`` per unit current.
    """

    matrix: np.ndarray                 # (3P, L) A/m^2 per A
    points: np.ndarray                 # (P, 3)
    electrode_ids: tuple[int, ...]
    target_point: int | None = None

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_electrodes(self) -> int:
        return self.matrix.shape[1]

    def target_rows(self) -> np.ndarray:
        if self.target_point is None:
            raise FemError("lead field has no target point attached")
        p = self.n_points
        return np.array([self.target_point, p + self.target_point, 2 * p + self.target_point])

    def split_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Target rows L1 and nuisance rows L2, each in matrix order."""
        rows = self.target_rows()
        mask = np.ones(self.matrix.shape[0], dtype=bool)
        mask[rows] = False
        return self.matrix[rows], self.matrix[mask]


def _tet_gradients(mesh: HeadMesh, tet_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the four barycentric basis functions, per tet.

    Returns (grads, volumes) with grads of shape (T, 4, 3).
    """
    p = mesh.nodes[mesh.tets[tet_ids]]
    e = p[:, 1:] - p[:, :1]                       # (T, 3, 3) edge matrix
    vol = np.linalg.det(e) / 6.0
    if np.any(vol <= 0.0):
        bad = int(tet_ids[np.argmin(vol)])
        raise FemError(f"degenerate tet {bad}")
    inv = np.linalg.inv(e)                        # rows of inv are grad(lambda_1..3)
    g = inv.transpose(0, 2, 1)
    g0 = -g.sum(axis=1, keepdims=True)
    return np.concatenate([g0, g], axis=1), vol


def assemble(mesh: HeadMesh, layout: ElectrodeLayout) -> CemSystem:
    """Assemble the stiffness/electrode blocks of the CEM system."""
    n = mesh.n_nodes
    L = layout.n_electrodes
    grads, vols = _tet_gradients(mesh, np.arange(mesh.n_tets))
    sigma = mesh.conductivity_per_tet()

    # volume term: sigma * V * grad_i . grad_j
    k_local = np.einsum("t,tik,tjk->tij", sigma * vols, grads, grads)
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    A = sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(n, n))

    faces = boundary_faces(mesh)
    fp = mesh.nodes[faces]
    face_area = 0.5 * np.linalg.norm(
        np.cross(fp[:, 1] - fp[:, 0], fp[:, 2] - fp[:, 0]), axis=1
    )
    mass_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0

    srows, scols, svals = [], [], []
    brows, bcols, bvals = [], [], []
    for e in range(L):
        fid = np.asarray(layout.face_ids[e], dtype=int)
        area = layout.areas[e]
        if area <= 0.0:
            raise FemError(f"electrode {layout.electrode_ids[e]} has zero area")
        scale = 1.0 / (layout.impedances[e] * area)
        tri = faces[fid]                       # (Fe, 3)
        a = face_area[fid]
        # surface mass sum_f (area_f/12) * (1 + delta_ij), scaled by 1/(Z|e|)
        m = scale * a[:, None, None] * mass_pattern[None, :, :]
        srows.append(np.repeat(tri, 3, axis=1).ravel())
        scols.append(np.tile(tri, (1, 3)).ravel())
        svals.append(m.ravel())
        # b_{i,l} = (1/(Z|e|)) * integral of psi_i over the electrode
        brows.append(tri.ravel())
        bcols.append(np.full(tri.size, e))
        bvals.append(np.repeat(scale * a / 3.0, 3))

    A = A + sp.coo_matrix(
        (np.concatenate(svals), (np.concatenate(srows), np.concatenate(scols))),
        shape=(n, n),
    )
    B = sp.coo_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n, L),
    )
    c_diag = 1.0 / layout.impedances
    A = A.tocsr()
    A = (A + A.T) * 0.5  # exact symmetrization against summation-order roundoff
    return CemSystem(A=A, B=B.tocsr(), c_diag=c_diag, n_nodes=n, n_electrodes=L)


def _block_factorization(sys: CemSystem) -> spla.SuperLU:
    if sys._block_lu is None:
        n, L = sys.n_nodes, sys.n_electrodes
        # augment with the gauge row/column: sum of electrode voltages = 0
        k = sp.csr_matrix(
            (np.ones(L), (np.arange(n, n + L), np.zeros(L, dtype=int))),
            shape=(n + L, 1),
        )
        aug = sp.bmat(
            [[sys.block_matrix(), k], [k.T, None]], format="csc"
        )
        sys._block_lu = spla.splu(aug)
    return sys._block_lu


def solve_forward(sys: CemSystem, y: np.ndarray, tol: float = 1e-10) -> ForwardSolution:
    """Solve for potentials given a balanced current pattern ``y`` (A)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (sys.n_electrodes,):
        raise FemError("current pattern length does not match electrode count")
    l1 = np.abs(y).sum()
    if abs(y.sum()) > 1e-12 * max(l1, 1e-300):
        raise FemError("current pattern violates Kirchhoff balance")
    if l1 == 0.0:
        return ForwardSolution(z=np.zeros(sys.n_nodes), w=np.zeros(sys.n_electrodes))

    lu = _block_factorization(sys)
    rhs = np.concatenate([np.zeros(sys.n_nodes), y, [0.0]])
    x = lu.solve(rhs)
    M = sys.block_matrix()
    zw = x[:-1]
    resid = M @ zw - rhs[:-1]
    rel = np.linalg.norm(resid) / np.linalg.norm(rhs[:-1])
    if rel > tol:
        # one step of iterative refinement through the augmented system
        corr = lu.solve(np.concatenate([-resid, [0.0]]))
        zw = zw + corr[:-1]
        rel = np.linalg.norm(M @ zw - rhs[:-1]) / np.linalg.norm(rhs[:-1])
        if rel > tol:
            raise FemError(f"forward solve did not converge (residual {rel:.3e})")
    return ForwardSolution(z=zw[: sys.n_nodes], w=zw[sys.n_nodes :])


def _stiffness_factorization(sys: CemSystem) -> spla.SuperLU:
    if sys._stiff_lu is None:
        try:
            sys._stiff_lu = spla.splu(sys.A.tocsc())
        except RuntimeError as exc:  # singular factor
            raise FemError(f"stiffness factorization failed: {exc}") from exc
    return sys._stiff_lu


def resistivity_matrix(sys: CemSystem) -> np.ndarray:
    """Dense (N, L) map from balanced current patterns to nodal potentials.

    Computed as A^{-1} B S^{-1} with the electrode-space Schur complement
    S = C - B^T A^{-1} B; the constant null vector of S is deflated so the
    result matches the mean-zero electrode-voltage gauge.
    """
    lu = _stiffness_factorization(sys)
    Bd = np.asarray(sys.B.todense())
    X = lu.solve(Bd)                                  # A^{-1} B, (N, L)
    S = np.diag(sys.c_diag) - sys.B.T @ X
    S = 0.5 * (S + S.T)
    L = sys.n_electrodes
    shift = (np.trace(S) / L) * np.ones((L, L)) / L
    Sinv = np.linalg.solve(S + shift, np.eye(L))
    return X @ Sinv


def schur_complement(sys: CemSystem) -> np.ndarray:
    """Electrode-space Schur complement C - B^T A^{-1} B (not deflated)."""
    lu = _stiffness_factorization(sys)
    Bd = np.asarray(sys.B.todense())
    return np.diag(sys.c_diag) - sys.B.T @ lu.solve(Bd)


def lead_field(
    sys: CemSystem,
    mesh: HeadMesh,
    points: FieldPointSet,
    target_point: int | None = None,
) -> LeadField:
    """Evaluate -sigma * grad(u) at the field points per unit current column."""
    R = resistivity_matrix(sys)
    tet_ids = points.tet_index
    grads, _ = _tet_gradients(mesh, tet_ids)          # (P, 4, 3)
    sigma = mesh.conductivity_per_tet()[tet_ids]      # (P,)
    nodes = mesh.tets[tet_ids]                        # (P, 4)
    Rn = R[nodes]                                     # (P, 4, L)
    blocks = [
        np.einsum("p,pi,pil->pl", -sigma, grads[:, :, k], Rn) for k in range(3)
    ]
    mat = np.concatenate(blocks, axis=0)
    return LeadField(
        matrix=mat,
        points=points.points.copy(),
        electrode_ids=tuple(range(1, sys.n_electrodes + 1)),
        target_point=target_point,
    )


def split_problem(lf: LeadField, target: TargetSpec, mu: float):
    """Split the lead field into target / nuisance rows and scale factors."""
    if target.point_index >= lf.n_points:
        raise FemError("target point is not part of the lead field")
    lf.target_point = target.point_index
    L1, L2 = lf.split_rows()
    return StimulusProblem.from_parts(
        L1, L2, target.d_target * target.orientation, mu, electrode_ids=lf.electrode_ids
    )
