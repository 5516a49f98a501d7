import numpy as np
import pytest
import scipy.sparse.linalg as spla

from oracles import (block_matrix, cem_reference, forward_reference,
                     nested_dissection_reference, tet_gradients_inverse, tet_stiffness_fd)
from tesopt.fem import (
    FemError,
    _cholesky_fronts,
    _nested_dissection,
    _tet_gradients,
    assemble,
    lead_field,
    resistivity_matrix,
    schur_complement,
    split_problem,
)
from tesopt.meshgen import (
    HeadMesh,
    TargetSpec,
    boundary_faces,
    electrodes_from_face_sets,
    generate_box_mesh,
    place_electrodes,
    place_target,
    sample_field_points,
)
from tesopt.optimizers import StimulusProblem, spectral_norm


def balanced(rng, n):
    y = rng.normal(size=n)
    return y - y.mean()


def test_single_tet_stiffness_matches_fd_oracle():
    verts = np.array([[0.0, 0, 0], [1.3, 0.1, 0], [0.2, 1.1, 0.05], [0.1, 0.2, 0.9]])
    mesh = HeadMesh(
        nodes=verts,
        tets=np.array([[0, 1, 2, 3]]),
        labels=np.array([1]),
        conductivities={1: 1.0},
    )
    layout_faces = boundary_faces(mesh)
    layout = electrodes_from_face_sets(mesh, [np.array([0]), np.array([1])], 100.0)
    sys_ = assemble(mesh, layout)
    # subtract the electrode surface terms to isolate the stiffness part
    K = sys_.A.toarray()
    for e in range(2):
        fid = np.asarray(layout.face_ids[e])
        scale = 1.0 / (layout.impedances[e] * layout.areas[e])
        tri = layout_faces[fid]
        for f, face in enumerate(tri):
            p = mesh.nodes[face]
            area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
            m = scale * area / 12.0 * (np.ones((3, 3)) + np.eye(3))
            K[np.ix_(face, face)] -= m
    oracle = tet_stiffness_fd(verts)
    assert np.abs(K - oracle).max() < 1e-6 * np.abs(oracle).max()


def test_c_diagonal_is_inverse_impedance(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 8, 2000.0)
    sys_ = assemble(small_ball_mesh, layout)
    assert np.allclose(sys_.c_diag, 5.0e-4)


def test_b_columns_sum_to_inverse_impedance(small_ball_mesh):
    # partition of unity: sum_i b_{i,l} = 1/Z_l for every electrode
    layout = place_electrodes(small_ball_mesh, 8, 2000.0)
    sys_ = assemble(small_ball_mesh, layout)
    col_sums = np.asarray(sys_.B.sum(axis=0)).ravel()
    assert np.allclose(col_sums, 1.0 / layout.impedances, rtol=1e-12)


def test_null_vector_annihilation(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 8, 2000.0)
    sys_ = assemble(small_ball_mesh, layout)
    scale = abs(sys_.A).max()
    assert abs(sys_.A - sys_.A.T).max() <= 1e-12 * scale and sys_.A.diagonal().min() > 0.0
    ones = np.ones(sys_.n_nodes + sys_.n_electrodes)
    assert np.linalg.norm(block_matrix(sys_) @ ones) <= 1e-10 * scale * np.sqrt(ones.size)


def test_zero_current_zero_solution(bar_setup):
    _, _, sys_, _ = bar_setup
    assert not any(v.any() for v in forward_reference(sys_, np.zeros(2)))


def test_unbalanced_current_rejected(bar_setup):
    _, _, sys_, _ = bar_setup
    with pytest.raises(ValueError, match="Kirchhoff"):
        forward_reference(sys_, np.array([1e-3, -0.5e-3]))


def test_bar_resistance_analytic(bar_setup):
    _, _, sys_, par = bar_setup
    current = 1e-3
    _, w = forward_reference(sys_, np.array([current, -current]))
    r_fem = (w[0] - w[1]) / current
    r_ref = par["lx"] / (par["sigma"] * par["area"]) + 2 * par["z"]
    assert abs(r_fem - r_ref) / r_ref < 0.02
    assert abs(w.sum()) <= 1e-10 * np.abs(w).max()


def test_conductivity_impedance_scaling(bar_setup, rng):
    mesh, layout, sys_, _ = bar_setup
    y = np.array([2e-3, -2e-3])
    base_z, base_w = forward_reference(sys_, y)
    doubled = HeadMesh(
        nodes=mesh.nodes, tets=mesh.tets, labels=mesh.labels,
        conductivities={k: 2 * v for k, v in mesh.conductivities.items()},
    )
    half_z = electrodes_from_face_sets(
        mesh, [np.asarray(f) for f in layout.face_ids], layout.impedances[0] / 2
    )
    sys2 = assemble(doubled, half_z)
    z, w = forward_reference(sys2, y)
    assert np.allclose(z, base_z / 2, rtol=1e-8, atol=1e-12)
    assert np.allclose(w, base_w / 2, rtol=1e-8, atol=1e-12)


def test_current_recovery(bar_setup, rng):
    _, _, sys_, _ = bar_setup
    y = np.array([1.7e-3, -1.7e-3])
    z, w = forward_reference(sys_, y)
    recovered = -sys_.B.T @ z + sys_.c_diag * w
    assert abs(recovered.sum()) <= 1e-10 * np.abs(y).sum()
    assert np.allclose(recovered, y, rtol=1e-9, atol=1e-12 * np.abs(y).sum())


@pytest.fixture(scope="module")
def ball_system(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 8, 2000.0)
    return assemble(small_ball_mesh, layout)


def test_schur_symmetry_and_psd(ball_system):
    S = schur_complement(ball_system)
    scale = np.abs(S).max()
    assert np.abs(S - S.T).max() <= 1e-10 * scale
    # PSD on the zero-sum subspace
    L = S.shape[0]
    P = np.eye(L) - np.ones((L, L)) / L
    eig = np.linalg.eigvalsh(P @ (S + S.T) / 2 @ P)
    assert eig.min() >= -1e-10 * scale


def test_ordered_solves_match_default_splu(ball_system, bar_setup):
    for system in (ball_system, bar_setup[2]):
        assert np.array_equal(np.sort(system.order), np.arange(system.n_nodes))
        S_ref, R_ref = cem_reference(system)
        S = schur_complement(system)
        R = resistivity_matrix(system)
        assert np.abs(S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
        assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()


BOX_CELLS = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (16, 4, 4)]


def box_system(cells):
    mesh = generate_box_mesh(tuple(0.0025 * c for c in cells), cells, 1.0)
    layout = electrodes_from_face_sets(mesh, [np.array([0]), np.array([1])], 100.0)
    return mesh, assemble(mesh, layout)


@pytest.mark.parametrize("cells", BOX_CELLS)
def test_node_order_is_permutation(cells):
    mesh, system = box_system(cells)
    assert np.array_equal(np.sort(system.order), np.arange(mesh.n_nodes))


@pytest.mark.parametrize("cells", BOX_CELLS)
def test_cholesky_on_degenerate_front_trees(cells):
    # a single leaf, empty separators and long thin parts
    _, system = box_system(cells)
    bounds = system.front_bounds
    assert bounds[0] == 0 and bounds[-1] == system.n_nodes and np.all(np.diff(bounds) > 0)
    S_ref, R_ref = cem_reference(system)
    S = schur_complement(system)
    R = resistivity_matrix(system)
    assert np.abs(S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
    assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()


def assert_dissection_like_oracle(nodes, A):
    order, bounds = _nested_dissection(nodes, A)
    ref_order, ref_bounds = nested_dissection_reference(nodes, A)
    assert order.dtype == ref_order.dtype and np.array_equal(order, ref_order)
    assert bounds.dtype == ref_bounds.dtype and np.array_equal(bounds, ref_bounds)


# (4, 4, 4): a node layer at the median of most parts;
# (256, 1, 1): a chain of cubes, the deepest tree for its size
@pytest.mark.parametrize("cells", [*BOX_CELLS, (4, 4, 4), (256, 1, 1)])
def test_nested_dissection_matches_recursive_oracle(cells):
    mesh, system = box_system(cells)
    assert_dissection_like_oracle(mesh.nodes, system.A)


def test_nested_dissection_below_median_at_maximum():
    # the upper three of five node layers share the largest x, which is
    # then the median of the root: its lower side takes the nodes below it
    mesh, system = box_system((4, 4, 4))
    nodes = mesh.nodes.copy()
    nodes[:, 0] = np.where(nodes[:, 0] > 0.004, 1.0, nodes[:, 0])
    assert_dissection_like_oracle(nodes, system.A)


def test_ball_nested_dissection_matches_recursive_oracle(ball_system, small_ball_mesh):
    order, bounds = nested_dissection_reference(small_ball_mesh.nodes, ball_system.A)
    assert np.array_equal(ball_system.order, order)
    assert np.array_equal(ball_system.front_bounds, bounds)


def test_ordered_stiffness_factor_fill(ball_system):
    # stored front values, diagonal blocks as full squares, against the
    # L+U of SuperLU in its default column ordering
    stored = sum(L11.size + L21.size for *_, L11, L21 in _cholesky_fronts(ball_system))
    default = spla.splu(ball_system.A.tocsc())
    assert stored <= 0.5 * (default.L.nnz + default.U.nnz)


def test_singular_stiffness_factor_rejected():
    # an insulating core that no electrode touches leaves its interior
    # nodes without a single stiffness entry: a zero pivot
    mesh = generate_box_mesh((0.01, 0.01, 0.01), (4, 4, 4), 1.0)
    core = np.all(np.abs(mesh.nodes[mesh.tets].mean(axis=1) - 0.005) < 0.0025, axis=1)
    mesh = HeadMesh(nodes=mesh.nodes, tets=mesh.tets, labels=np.where(core, 2, 1),
                    conductivities={1: 1.0, 2: 0.0})
    layout = electrodes_from_face_sets(mesh, [np.array([0]), np.array([1])], 100.0)
    system = assemble(mesh, layout)
    with pytest.raises(FemError, match="stiffness factorization failed"):
        schur_complement(system)
    with pytest.raises(FemError, match="stiffness factorization failed"):
        resistivity_matrix(system)


def test_tet_gradients_match_inverse_oracle(small_ball_mesh):
    grads, vols = _tet_gradients(small_ball_mesh, np.arange(small_ball_mesh.n_tets))
    g_ref, v_ref = tet_gradients_inverse(small_ball_mesh)
    assert np.abs(grads - g_ref).max() <= 1e-13 * np.abs(g_ref).max()
    assert np.abs(vols - v_ref).max() <= 1e-13 * np.abs(v_ref).max()


def test_resistivity_matches_forward(ball_system, rng):
    R = resistivity_matrix(ball_system)
    Y = np.column_stack([balanced(rng, ball_system.n_electrodes) for _ in range(5)])
    z_fwd, _ = forward_reference(ball_system, Y)
    assert np.all(np.linalg.norm(R @ Y - z_fwd, axis=0) <= 1e-8 * np.linalg.norm(z_fwd, axis=0))


def test_resistivity_scaling(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 4, 2000.0)
    sys1 = assemble(small_ball_mesh, layout)
    c = 3.0
    scaled_mesh = HeadMesh(
        nodes=small_ball_mesh.nodes, tets=small_ball_mesh.tets,
        labels=small_ball_mesh.labels,
        conductivities={k: c * v for k, v in small_ball_mesh.conductivities.items()},
    )
    scaled_layout = electrodes_from_face_sets(
        small_ball_mesh, [np.asarray(f) for f in layout.face_ids],
        layout.impedances[0] / c,
    )
    sys2 = assemble(scaled_mesh, scaled_layout)
    R1 = resistivity_matrix(sys1)
    R2 = resistivity_matrix(sys2)
    assert np.allclose(R2, R1 / c, rtol=1e-9, atol=1e-12 * np.abs(R1).max())


def test_lead_field_bar_axial(bar_setup):
    mesh, _, sys_, par = bar_setup
    pts = sample_field_points(mesh, 1, 60, seed=3)
    lf = lead_field(sys_, mesh, pts)
    current = 1.0
    field = lf.matrix @ np.array([current, -current])
    P = pts.n_points
    interior = (pts.points[:, 0] > 0.25 * par["lx"]) & (pts.points[:, 0] < 0.75 * par["lx"])
    axial = field[:P][interior]
    expect = current / par["area"]
    assert np.allclose(axial, expect, rtol=1e-6)
    assert np.abs(field[P:2 * P][interior]).max() < 1e-8 * expect
    assert np.abs(field[2 * P:][interior]).max() < 1e-8 * expect


def test_lead_field_linearity(bar_setup, rng):
    mesh, _, sys_, _ = bar_setup
    pts = sample_field_points(mesh, 1, 20, seed=4)
    lf = lead_field(sys_, mesh, pts)
    y = balanced(rng, 2)
    assert np.allclose(lf.matrix @ (-y), -(lf.matrix @ y), atol=0.0)


def test_lead_field_row_permutation(bar_setup):
    from tesopt.meshgen import FieldPointSet

    mesh, _, sys_, _ = bar_setup
    pts = sample_field_points(mesh, 1, 15, seed=5)
    perm = np.random.default_rng(0).permutation(15)
    pts_perm = FieldPointSet(points=pts.points[perm], tet_index=pts.tet_index[perm],
                             seed=pts.seed, compartment=pts.compartment)
    lf = lead_field(sys_, mesh, pts)
    lf_perm = lead_field(sys_, mesh, pts_perm)
    P = 15
    for k in range(3):
        assert np.array_equal(lf.matrix[k * P:(k + 1) * P][perm],
                              lf_perm.matrix[k * P:(k + 1) * P])


def refined_bar_errors(lx=0.01, w=0.01, z=2000.0, levels=(6, 12, 24)):
    """|R_fem - analytic| on nested meshes of a bar whose end electrodes
    wrap one coarse cell onto the sides.

    The wrap makes the true resistance sit strictly below the formula
    while the Galerkin value increases toward it under refinement, so the
    formula error decreases monotonically with a genuine discretization
    component.
    """
    r_ref = lx / (1.0 * w * w) + 2 * z
    errors = []
    for ny in levels:
        nx = int(round(lx / w)) * ny
        mesh = generate_box_mesh((lx, w, w), (nx, ny, ny), 1.0)
        faces = boundary_faces(mesh)
        centers = mesh.nodes[faces].mean(axis=1)
        wrap = w / levels[0]
        left = np.nonzero(centers[:, 0] < wrap)[0]
        right = np.nonzero(centers[:, 0] > lx - wrap)[0]
        layout = electrodes_from_face_sets(mesh, [left, right], z)
        sys_ = assemble(mesh, layout)
        current = 1e-3
        _, volts = forward_reference(sys_, np.array([current, -current]))
        r_fem = (volts[0] - volts[1]) / current
        errors.append(abs(r_fem - r_ref))
    return errors, r_ref


def test_refinement_consistency_wrapped_electrodes():
    errors, r_ref = refined_bar_errors(levels=(6, 12, 24))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] / r_ref < 0.02


def test_split_problem_shapes_and_scales(bar_setup):
    mesh, _, sys_, _ = bar_setup
    pts = sample_field_points(mesh, 1, 10, seed=6)
    target = place_target(mesh, pts, (1.0, 0.0, 0.0), 0.2)
    lf = lead_field(sys_, mesh, pts, target_point=target.point_index)
    p = split_problem(lf, target, 4e-3)
    assert p.L1.shape == (3, 2)
    assert p.L2.shape == (27, 2)
    assert p.n_nuisance == 27
    assert np.allclose(p.x1, 0.2 * target.orientation)
    assert np.isclose(np.linalg.norm(p.x1), 0.2)
    assert np.isclose(p.nu, 0.2 * np.abs(target.orientation).max())
    assert np.isclose(p.zeta, np.abs(lf.matrix).sum(axis=0).max())
    ref = np.linalg.svd(lf.matrix, compute_uv=False)[0]
    assert abs(p.sigma_scale - ref) <= 1e-4 * ref


def test_split_problem_rejects_target_outside_points(bar_setup):
    # a negative index would pick rows -1, P-1, 2P-1: components of the
    # last point, mixed
    mesh, _, sys_, _ = bar_setup
    pts = sample_field_points(mesh, 1, 10, seed=6)
    target = place_target(mesh, pts, (1.0, 0.0, 0.0), 0.2)
    lf = lead_field(sys_, mesh, pts)
    for index in (-1, -lf.n_points, lf.n_points):
        with pytest.raises(FemError, match="not part of the lead field"):
            split_problem(lf, TargetSpec(target.position, target.orientation,
                                         target.d_target, index), 4e-3)
        assert lf.target_point is None


def test_spectral_norm_matches_svd(rng):
    A = rng.normal(size=(40, 7))
    ref = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(spectral_norm(A) - ref) <= 1e-4 * ref


def test_spectral_norm_exact(bar_setup):
    mesh, _, sys_, _ = bar_setup
    pts = sample_field_points(mesh, 1, 10, seed=6)
    balanced_rows = np.tile([1.0, -1.0], (4, 1))
    cases = [
        np.array([[3.0, -3.0], [1.0, 1.0]]),      # start vector 1/sqrt(L) misses sqrt(18)
        balanced_rows,                             # start vector in the kernel
        lead_field(sys_, mesh, pts).matrix,
    ]
    for mat in cases:
        ref = np.linalg.norm(mat, 2)
        assert abs(spectral_norm(mat) - ref) <= 1e-12 * ref
    p = StimulusProblem.from_parts(balanced_rows[:3], balanced_rows[3:], np.ones(3), 4e-3)
    assert p.sigma_scale > 0.0


def test_degenerate_tet_rejected():
    from tesopt.meshgen import ElectrodeLayout

    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])  # coplanar
    mesh = HeadMesh(nodes=nodes, tets=np.array([[0, 1, 2, 3]]),
                    labels=np.array([1]), conductivities={1: 1.0})
    layout = ElectrodeLayout(
        face_ids=((0,), (1,)),
        impedances=np.array([100.0, 100.0]),
        areas=np.array([1.0, 1.0]),
        electrode_ids=(1, 2),
    )
    with pytest.raises(FemError):
        assemble(mesh, layout)
