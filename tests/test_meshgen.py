import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chisquare

from oracles import boundary_faces_reference, mesh_from_cubes_reference
from tesopt import meshgen
from tesopt.meshgen import (
    HeadMesh,
    MeshError,
    _unique_rows,
    boundary_faces,
    electrodes_from_face_sets,
    fibonacci_directions,
    generate_ball_mesh,
    generate_box_mesh,
    place_electrodes,
    place_target,
    sample_field_points,
)


def test_single_layer_all_one_label():
    mesh = generate_ball_mesh([0.09], [0.33], 0.03)
    mesh.validate()
    assert set(np.unique(mesh.labels)) == {1}


def test_three_layer_shell_volumes_match_analytic():
    mesh = generate_ball_mesh([0.09, 0.08, 0.07], [0.33, 0.0042, 0.33], 0.005)
    mesh.validate()
    vols = mesh.tet_volumes()
    shells = [(0.09, 0.08), (0.08, 0.07), (0.07, 0.0)]
    for label, (r_hi, r_lo) in zip((1, 2, 3), shells):
        analytic = 4.0 / 3.0 * np.pi * (r_hi**3 - r_lo**3)
        got = vols[mesh.labels == label].sum()
        assert abs(got - analytic) / analytic < 0.10


def test_unresolvable_layer_rejected():
    with pytest.raises(MeshError):
        generate_ball_mesh([0.09, 0.085, 0.07], [1.0, 1.0, 1.0], 0.1)


def test_volume_conservation_exact():
    mesh = generate_ball_mesh([0.05], [1.0], 0.01)
    n_cubes = mesh.n_tets // 6
    total = mesh.tet_volumes().sum()
    assert abs(total - n_cubes * 0.01**3) <= 1e-12 * total


def test_label_rule_innermost_layer():
    radii = [0.09, 0.08, 0.07]
    mesh = generate_ball_mesh(radii, [1.0, 1.0, 1.0], 0.008)
    rho = np.linalg.norm(mesh.nodes[mesh.tets].mean(axis=1), axis=1)
    expect = np.ones_like(mesh.labels)
    for i, r in enumerate(radii):
        expect[rho <= r + 1e-15] = i + 1
    assert np.array_equal(mesh.labels, expect)


def test_boundary_surface_closed(small_ball_mesh):
    faces = boundary_faces(small_ball_mesh)
    edges = faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert np.all(counts == 2)


def test_two_electrodes_antipodal(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 2, 2000.0)
    faces = boundary_faces(small_ball_mesh)
    centers = small_ball_mesh.nodes[faces].mean(axis=1)
    d = []
    for fid in layout.face_ids:
        v = centers[list(fid)].mean(axis=0)
        d.append(v / np.linalg.norm(v))
    assert d[0] @ d[1] < -0.95


def test_thirty_two_disjoint_electrodes(small_ball_mesh):
    layout = place_electrodes(small_ball_mesh, 32, 2000.0)
    layout.validate()
    assert layout.n_electrodes == 32
    assert np.all(layout.impedances == 2000.0)
    seen = set()
    for fid in layout.face_ids:
        assert not seen.intersection(fid)
        seen.update(fid)


def test_single_electrode_rejected(small_ball_mesh):
    with pytest.raises(MeshError):
        place_electrodes(small_ball_mesh, 1, 2000.0)


def test_fibonacci_two_points_are_poles():
    d = fibonacci_directions(2)
    assert np.allclose(d[0] @ d[1], -1.0)


def test_sampling_deterministic(small_ball_mesh):
    a = sample_field_points(small_ball_mesh, 3, 500, seed=9)
    b = sample_field_points(small_ball_mesh, 3, 500, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.tet_index, b.tet_index)


def test_sampling_zero_points_ok(small_ball_mesh):
    fp = sample_field_points(small_ball_mesh, 3, 0, seed=0)
    assert fp.n_points == 0


def test_sampling_missing_compartment(small_ball_mesh):
    with pytest.raises(MeshError):
        sample_field_points(small_ball_mesh, 9, 10, seed=0)


@pytest.fixture(scope="module")
def unit_ball_samples():
    mesh = generate_ball_mesh([1.0], [1.0], 0.04)
    fp = sample_field_points(mesh, 1, 100_000, seed=77)
    return fp


def test_mean_radius_uniform_ball(unit_ball_samples):
    r = np.linalg.norm(unit_ball_samples.points, axis=1)
    assert abs(r.mean() - 0.75) < 0.01 * 0.75


def test_radial_density_chi_square(unit_ball_samples):
    # restrict to radii fully covered by the voxelization, where the
    # sampling density is exactly uniform in 3D
    r = np.linalg.norm(unit_ball_samples.points, axis=1)
    r_max = 0.9
    r = r[r <= r_max]
    bins = np.linspace(0.0, r_max, 17)
    counts, _ = np.histogram(r, bins)
    expected = np.diff(bins**3) / r_max**3 * counts.sum()
    assert chisquare(counts, expected).pvalue > 0.01


def test_target_topmost_point(small_ball_mesh):
    fp = sample_field_points(small_ball_mesh, 3, 400, seed=5)
    t = place_target(small_ball_mesh, fp, (0, 0, 1), 0.2)
    assert t.point_index == int(np.argmax(fp.points[:, 2]))
    assert t.orientation[2] > 0.9
    assert abs(np.linalg.norm(t.orientation) - 1.0) <= 1e-12


def test_target_opposite_hints(small_ball_mesh):
    fp = sample_field_points(small_ball_mesh, 3, 400, seed=5)
    up = place_target(small_ball_mesh, fp, (0, 0, 1), 0.2)
    dn = place_target(small_ball_mesh, fp, (0, 0, -1), 0.2)
    # brute-force scan with the same criterion
    assert up.point_index == int(np.argmax(fp.points @ np.array([0, 0, 1.0])))
    assert dn.point_index == int(np.argmax(fp.points @ np.array([0, 0, -1.0])))
    assert up.orientation @ dn.orientation < -0.5


def test_target_zero_hint_rejected(small_ball_mesh):
    fp = sample_field_points(small_ball_mesh, 3, 10, seed=5)
    with pytest.raises(MeshError):
        place_target(small_ball_mesh, fp, (0.0, 0.0, 0.0), 0.2)


def test_box_mesh_and_explicit_electrodes():
    mesh = generate_box_mesh((0.02, 0.01, 0.01), (4, 2, 2), 1.0)
    mesh.validate()
    faces = boundary_faces(mesh)
    fx = mesh.nodes[faces][:, :, 0]
    left = np.nonzero(np.all(np.isclose(fx, 0.0), axis=1))[0]
    right = np.nonzero(np.all(np.isclose(fx, 0.02), axis=1))[0]
    layout = electrodes_from_face_sets(mesh, [left, right], 500.0)
    assert layout.n_electrodes == 2
    assert np.allclose(layout.areas, 0.01 * 0.01)


def assert_unique_rows_like_numpy(rows):
    ref = np.unique(rows, axis=0, return_counts=True)
    got = _unique_rows(rows)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unique_rows_matches_numpy(data):
    # bounds of 2**20 and up make some products of spans overflow int64
    cols = data.draw(st.integers(1, 4))
    bound = data.draw(st.sampled_from([1, 40, 2**20, 2**62]))
    n = data.draw(st.integers(0, 12))
    rows = data.draw(hnp.arrays(np.int64, (n, cols),
                                elements=st.integers(-bound, bound)))
    repeats = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6 if n else 0))
    assert_unique_rows_like_numpy(np.concatenate([rows, rows[repeats]]))


@pytest.mark.parametrize("rows", [
    np.zeros((0, 3), dtype=np.int64),                       # no rows
    np.array([[-5, 7, 0]]),                                 # one row
    np.array([[0], [2**63 - 2], [5], [0]]),                 # largest key that fits
    np.array([[0, 0], [0, 2**63 - 1]]),                     # one past it: fallback
    np.array([[-2**62, 1], [2**62, 0], [-2**62, 1]]),       # overflow: fallback
    np.array([[2**62, -2**62, 3], [0, 0, 0], [2**62, -2**62, 3]]),
])
def test_unique_rows_edge_cases(rows):
    assert_unique_rows_like_numpy(rows)


def shifted_box_mesh():
    # a lattice whose lowest corner is off the origin, at mixed-sign indices
    axes = (np.arange(-3, 2), np.arange(2, 5), np.arange(-7, -5))
    origins = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    nodes, tets = meshgen._mesh_from_cubes(origins, 0.0025)
    return HeadMesh(nodes=nodes, tets=tets, labels=np.ones(tets.shape[0], dtype=np.int64),
                    conductivities={1: 1.0})


@pytest.mark.parametrize("build, electrodes", [
    (lambda: generate_ball_mesh([0.09, 0.08, 0.07], [0.33, 0.0042, 0.33], 0.01), 32),
    # every face of the box lies in one octant, so no cap layout fits it
    (lambda: generate_box_mesh((0.04, 0.01, 0.01), (16, 4, 4), 1.0), None),
    (shifted_box_mesh, None),
], ids=["small_ball", "box", "shifted_box"])
def test_canonical_mesh_numbering(build, electrodes, monkeypatch):
    mesh = build()
    faces = boundary_faces(mesh)
    layout = place_electrodes(mesh, electrodes, 1000.0) if electrodes else None
    monkeypatch.setattr(meshgen, "_mesh_from_cubes", mesh_from_cubes_reference)
    ref = build()
    assert np.array_equal(mesh.nodes, ref.nodes)
    assert mesh.tets.dtype == ref.tets.dtype and np.array_equal(mesh.tets, ref.tets)
    assert np.array_equal(mesh.labels, ref.labels)
    assert np.array_equal(faces, boundary_faces_reference(ref))
    if layout is not None:
        monkeypatch.setattr(meshgen, "boundary_faces", boundary_faces_reference)
        assert place_electrodes(ref, electrodes, 1000.0).face_ids == layout.face_ids


@pytest.mark.parametrize("limit", ["n_cubed", 1])
def test_boundary_faces_without_int64_keys(small_ball_mesh, monkeypatch, limit):
    # at n^3 the face keys no longer fit and the faces are counted by
    # _unique_rows, which at a limit of 1 hands them to np.unique itself
    n = small_ball_mesh.n_nodes
    monkeypatch.setattr(meshgen, "_KEY_LIMIT", n**3 if limit == "n_cubed" else limit)
    faces = boundary_faces(small_ball_mesh)
    ref = boundary_faces_reference(small_ball_mesh)
    assert faces.dtype == ref.dtype and np.array_equal(faces, ref)
