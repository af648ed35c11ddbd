import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmae.errors import ContractViolation
from mvmae.geometry import (
    PointCloud,
    Rng,
    augment,
    farthest_point_sampling,
    knn,
    load_cloud,
    normalize_unit_sphere,
    read_off,
    read_xyz,
    rotate_z,
    write_xyz,
)

from oracles import fps_greedy, knn_bruteforce

clouds_small = st.integers(2, 40).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=n,
        max_size=n,
    )
)


def test_normalize_symmetric_pair():
    c = normalize_unit_sphere(PointCloud(np.array([[2.0, 0, 0], [-2.0, 0, 0]])))
    np.testing.assert_allclose(c.points, [[1, 0, 0], [-1, 0, 0]], atol=1e-12)


def test_normalize_single_point_collapses_to_origin():
    c = normalize_unit_sphere(PointCloud(np.array([[5.0, 5.0, 5.0]])))
    np.testing.assert_array_equal(c.points, [[0, 0, 0]])


def test_normalize_random_cloud_properties():
    rng = np.random.default_rng(0)
    c = normalize_unit_sphere(PointCloud(rng.normal(3, 2, (200, 3))))
    assert np.linalg.norm(c.points.mean(axis=0)) < 1e-9
    assert abs(np.linalg.norm(c.points, axis=1).max() - 1.0) < 1e-9


@given(clouds_small)
@settings(max_examples=60, deadline=None)
def test_normalize_property(points):
    c = normalize_unit_sphere(PointCloud(np.array(points)))
    norms = np.linalg.norm(c.points, axis=1)
    assert norms.max() <= 1 + 1e-9
    assert np.linalg.norm(c.points.mean(axis=0)) <= 1e-9 + 1e-12 * len(points)


def test_empty_cloud_rejected():
    with pytest.raises(ContractViolation):
        PointCloud(np.zeros((0, 3)))


def test_fps_line_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    idx = farthest_point_sampling(pts, 2)
    assert idx.tolist() == [0, 2]


def test_fps_square_tie_broken_by_index():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
    idx = farthest_point_sampling(pts, 3)
    assert idx.tolist() == [0, 3, 1]


def test_fps_full_selection_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 3))
    a = farthest_point_sampling(pts, 12)
    b = farthest_point_sampling(pts, 12)
    assert a.tolist() == b.tolist()
    assert sorted(a.tolist()) == list(range(12))


def test_fps_oversample_rejected():
    with pytest.raises(ContractViolation):
        farthest_point_sampling(np.zeros((3, 3)), 4)


@given(clouds_small, st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_fps_matches_exhaustive_greedy_oracle(points, n_samples):
    pts = np.array(points)
    n_samples = min(n_samples, len(pts))
    got = farthest_point_sampling(pts, n_samples).tolist()
    assert got == fps_greedy(pts, n_samples)


def test_fps_coverage_nonincreasing():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    prev = math.inf
    for n in range(1, 51):
        sel = farthest_point_sampling(pts, n)
        d2 = np.sum((pts[:, None, :] - pts[sel][None, :, :]) ** 2, axis=2)
        cover = d2.min(axis=1).max()
        assert cover <= prev + 1e-12
        prev = cover


def test_knn_center_at_existing_point():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx = knn(pts, np.array([[0.0, 0, 0]]), 1)
    assert idx.tolist() == [[0]]


def test_knn_line_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx = knn(pts, np.array([[0.0, 0, 0]]), 2)
    assert idx.tolist() == [[0, 1]]


def test_knn_equidistant_tie_prefers_lower_index():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0]])
    idx = knn(pts, np.array([[0.0, 0, 0]]), 3)
    assert idx.tolist() == [[0, 1, 2]]


def test_knn_k_too_large_rejected():
    with pytest.raises(ContractViolation):
        knn(np.zeros((2, 3)), np.zeros((1, 3)), 3)


@given(clouds_small, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_knn_matches_bruteforce_oracle(points, k):
    pts = np.array(points)
    k = min(k, len(pts))
    centers = pts[:3]
    got = knn(pts, centers, k)
    for row, center in zip(got, centers):
        assert row.tolist() == knn_bruteforce(pts, center, k)
        assert len(set(row.tolist())) == k
        d = np.sum((pts[row] - center) ** 2, axis=1)
        assert np.all(np.diff(d) >= 0)


def test_identity_augment_core():
    pts = np.random.default_rng(3).normal(size=(20, 3))
    # augment's core at scale 1, angle 0
    np.testing.assert_array_equal(rotate_z(pts * 1.0, 0.0), pts)


def test_rotation_preserves_pairwise_distances():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 3))
    rot = rotate_z(pts, 1.234)
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d1 = np.linalg.norm(rot[:, None] - rot[None, :], axis=2)
    np.testing.assert_allclose(d0, d1, atol=1e-9)


def test_scale_changes_max_norm():
    cloud = normalize_unit_sphere(
        PointCloud(np.random.default_rng(5).normal(size=(40, 3)))
    )
    scaled = rotate_z(cloud.points * 1.2, 0.7)
    assert abs(np.linalg.norm(scaled, axis=1).max() - 1.2) < 1e-9


def test_augment_deterministic_and_in_range():
    cloud = normalize_unit_sphere(
        PointCloud(np.random.default_rng(6).normal(size=(25, 3)))
    )
    a = augment(cloud, Rng(11))
    b = augment(cloud, Rng(11))
    np.testing.assert_array_equal(a.points, b.points)
    s = np.linalg.norm(a.points, axis=1).max()
    assert 0.8 - 1e-9 <= s <= 1.2 + 1e-9


def test_rng_derivation_stable():
    r = Rng(42)
    assert r.derive("mask", 3).seed == Rng(42).derive("mask", 3).seed
    assert r.derive("mask", 3).seed != r.derive("mask", 4).seed


def test_xyz_round_trip(tmp_path):
    cloud = PointCloud(np.random.default_rng(7).normal(size=(17, 3)))
    path = tmp_path / "c.xyz"
    write_xyz(path, cloud)
    back = read_xyz(path)
    np.testing.assert_array_equal(back.points, cloud.points)


def test_off_reader(tmp_path):
    path = tmp_path / "m.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    cloud = read_off(path)
    np.testing.assert_array_equal(
        cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    )


def test_off_reader_glued_header(tmp_path):
    path = tmp_path / "m.off"
    path.write_text("OFF3 0 0\n0 0 0\n1 1 1\n2 2 2\n")
    assert len(read_off(path)) == 3


def test_load_cloud_dispatches_on_extension(tmp_path):
    off = tmp_path / "m.OFF"
    off.write_text("OFF\n1 0 0\n1 2 3\n")
    xyz = tmp_path / "c.txt"
    xyz.write_text("1 2 3\n")
    np.testing.assert_array_equal(load_cloud(off).points, [[1, 2, 3]])
    np.testing.assert_array_equal(load_cloud(xyz).points, [[1, 2, 3]])


@pytest.mark.parametrize("text", ["1 2 x\n", "1 2\n", "\n\n"])
def test_xyz_reader_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.xyz"
    path.write_text(text)
    with pytest.raises(ContractViolation):
        read_xyz(path)


@pytest.mark.parametrize(
    "text",
    ["abc 0 0\n", "OFF\n2 0 0\n0 0 0\n1 y 1\n", "OFF\n2 0 0\n0 0 0\n", "OFF\n0 0 0\n", "OFF\n"],
)
def test_off_reader_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ContractViolation):
        read_off(path)
