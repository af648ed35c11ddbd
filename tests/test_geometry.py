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

from mvmae.config import DataConfig
from mvmae.data import make_dataset

from mvmae.tokenizer import build_patches

from oracles import (
    fps_greedy,
    knn_bruteforce,
    knn_stable_argsort,
    sq_dist_matrix,
    traced_peak,
)

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

# integer-grid clouds: duplicated points and exact distance ties are common
grid_point = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
grid_clouds = st.lists(grid_point, min_size=1, max_size=40)


def test_normalize_symmetric_pair():
    c = normalize_unit_sphere(PointCloud(np.array([[2.0, 0, 0], [-2.0, 0, 0]])))
    np.testing.assert_allclose(c.points, [[1, 0, 0], [-1, 0, 0]], atol=1e-12)


def test_normalize_single_point_collapses_to_origin():
    c = normalize_unit_sphere(PointCloud(np.array([[5.0, 5.0, 5.0]])))
    np.testing.assert_array_equal(c.points, [[0, 0, 0]])


def test_normalize_identical_points_collapse_despite_mean_rounding():
    # the mean of three copies of this coordinate is not the coordinate
    c = normalize_unit_sphere(PointCloud(np.tile([0.0, 3.3083874143662575, 0.0], (3, 1))))
    np.testing.assert_array_equal(c.points, np.zeros((3, 3)))


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


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (4,), (4, 3, 1)])
def test_cloud_must_be_n_by_3(shape):
    with pytest.raises(ContractViolation, match="N x 3"):
        PointCloud(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cloud_rejected(bad):
    points = np.zeros((4, 3))
    points[2, 1] = bad
    with pytest.raises(ContractViolation, match="non-finite.*shape:3"):
        PointCloud(points, source_id="shape:3")


def test_fps_line_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    idx, _ = farthest_point_sampling(pts, 2)
    assert idx.tolist() == [0, 2]


def test_fps_square_tie_broken_by_index():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
    idx, _ = farthest_point_sampling(pts, 3)
    assert idx.tolist() == [0, 3, 1]


def test_fps_full_selection_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 3))
    a, _ = farthest_point_sampling(pts, 12)
    b, _ = farthest_point_sampling(pts, 12)
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
    got = farthest_point_sampling(pts, n_samples)[0].tolist()
    assert got == fps_greedy(pts, n_samples)


def test_fps_coverage_nonincreasing():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    prev = math.inf
    for n in range(1, 51):
        sel, _ = farthest_point_sampling(pts, n)
        d2 = np.sum((pts[:, None, :] - pts[sel][None, :, :]) ** 2, axis=2)
        cover = d2.min(axis=1).max()
        assert cover <= prev + 1e-12
        prev = cover


def test_knn_center_at_existing_point():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx = knn(sq_dist_matrix(pts, np.array([[0.0, 0, 0]])), 1)
    assert idx.tolist() == [[0]]


def test_knn_line_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx = knn(sq_dist_matrix(pts, np.array([[0.0, 0, 0]])), 2)
    assert idx.tolist() == [[0, 1]]


def test_knn_equidistant_tie_prefers_lower_index():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0]])
    idx = knn(sq_dist_matrix(pts, np.array([[0.0, 0, 0]])), 3)
    assert idx.tolist() == [[0, 1, 2]]


def test_knn_k_too_large_rejected():
    with pytest.raises(ContractViolation):
        knn(np.zeros((1, 2)), 3)


@given(clouds_small, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_knn_matches_bruteforce_oracle(points, k):
    pts = np.array(points)
    k = min(k, len(pts))
    centers = pts[:3]
    got = knn(sq_dist_matrix(pts, centers), k)
    for row, center in zip(got, centers):
        assert row.tolist() == knn_bruteforce(pts, center, k)
        assert len(set(row.tolist())) == k
        d = np.sum((pts[row] - center) ** 2, axis=1)
        assert np.all(np.diff(d) >= 0)


@given(grid_clouds, st.lists(grid_point, min_size=1, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_knn_matches_bruteforce_oracle_on_grid_ties(points, centers, data):
    pts = np.array(points, dtype=np.float64)
    ctr = np.array(centers, dtype=np.float64)
    k = data.draw(st.integers(1, len(pts)), label="k")
    got = knn(sq_dist_matrix(pts, ctr), k)
    assert got.shape == (len(ctr), k)
    for row, center in zip(got, ctr):
        assert row.tolist() == knn_bruteforce(pts, center, k)


@given(grid_clouds, st.data())
@settings(max_examples=80, deadline=None)
def test_fps_matches_exhaustive_greedy_oracle_on_grid_ties(points, data):
    pts = np.array(points, dtype=np.float64)
    n_samples = data.draw(st.integers(1, len(pts)), label="n_samples")
    got = farthest_point_sampling(pts, n_samples)[0].tolist()
    assert got == fps_greedy(pts, n_samples)


def dataset_cloud(n_points: int) -> np.ndarray:
    """A generated cloud; one with fewer than max(n, k) = 64 points is
    cycled up as patchify does, so every distance occurs several times."""
    clouds, _ = make_dataset(
        DataConfig(n_points=n_points, n_classes=1, instances_per_class=1)
    )
    return np.tile(clouds[0].points, (-(-64 // n_points), 1))[: max(64, n_points)]


def permutation_cloud() -> np.ndarray:
    """Every coordinate permutation of each point, plus the origin: the
    squared distances to the origin agree up to rounding, which depends on
    summation order."""
    base = np.random.default_rng(9).uniform(-1.0, 1.0, size=(10, 3))
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return np.concatenate([np.zeros((1, 3))] + [base[:, list(p)] for p in perms])


def duplicates_cloud() -> np.ndarray:
    """A dense-size generated cloud in which each point occurs three times
    (the last one twice), at consecutive indices, so that ties straddle
    the k-th distance for k = 1, 32 and 64."""
    pts = dataset_cloud(8192)
    pts[1::3] = pts[::3]
    pts[2::3] = pts[:-2:3]
    return pts


# (cloud, FPS sample count) for the distance-row and patching tests
ORACLE_CLOUDS = [
    pytest.param(lambda: dataset_cloud(20), 64, id="dataset-20"),
    pytest.param(lambda: dataset_cloud(1024), 64, id="dataset-1024"),
    pytest.param(lambda: dataset_cloud(8192), 64, id="dataset-8192"),
    pytest.param(duplicates_cloud, 64, id="duplicates-8192"),
    pytest.param(permutation_cloud, 12, id="permutations"),
]


@pytest.mark.parametrize("n_points", [20, 1024, 8192])
def test_knn_equals_full_stable_sort_on_dataset_cloud(n_points):
    pts = dataset_cloud(n_points)
    idx, d2 = farthest_point_sampling(pts, 64)
    centers = pts[idx]
    for k in (1, 5, 32, 64):
        np.testing.assert_array_equal(
            knn(d2, k), knn_stable_argsort(pts, centers, k)
        )


def test_kernels_sum_squares_in_coordinate_order():
    pts = permutation_cloud()
    idx, d2 = farthest_point_sampling(pts, 12)
    for k in (6, 20, 45):
        # FPS starts at the origin, so its first row is the origin's
        np.testing.assert_array_equal(
            knn(d2[:1], k), knn_stable_argsort(pts, pts[:1], k)
        )
    assert idx.tolist() == fps_greedy(pts, 12)


@pytest.mark.parametrize("make_cloud, n", ORACLE_CLOUDS)
def test_fps_rows_equal_full_distance_matrix(make_cloud, n):
    pts = make_cloud()
    idx, d2 = farthest_point_sampling(pts, n)
    assert d2.shape == (n, len(pts))
    np.testing.assert_array_equal(d2, sq_dist_matrix(pts, pts[idx]))


@pytest.mark.parametrize("make_cloud, n", ORACLE_CLOUDS)
def test_build_patches_equals_greedy_fps_and_full_sort(make_cloud, n):
    pts = make_cloud()
    centers_idx = fps_greedy(pts, n)
    centers = pts[centers_idx]
    for k in (1, 32, min(64, len(pts))):
        got = build_patches(pts, n, k)
        np.testing.assert_array_equal(got.centers, centers)
        np.testing.assert_array_equal(
            got.patches,
            pts[knn_stable_argsort(pts, centers, k)] - centers[:, None, :],
        )


def clustered_cloud(n_points: int) -> np.ndarray:
    """Random points. In a dense-size cloud, center 0's nearest points sit
    at every 8th index, where knn samples its threshold, so the estimate
    leaves that row fewer than k candidates and the row is repaired."""
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(n_points, 3))
    if n_points > 30:
        pts[::8] = pts[0] + 1e-3 * rng.normal(size=(len(pts[::8]), 3))
    return pts


def test_knn_equals_full_stable_sort_on_clustered_cloud():
    for n_points in (30, 8192):
        pts = clustered_cloud(n_points)
        d2 = sq_dist_matrix(pts, pts[:5])
        for k in (1, 10, 26, 30):
            np.testing.assert_array_equal(
                knn(d2, k), knn_stable_argsort(pts, pts[:5], k)
            )


def test_knn_pads_short_rows_above_every_distance():
    # row 0 ties at its k-th distance and keeps three candidates, so row
    # 1 is padded; its candidates lie near the top of the float range
    narrow = np.array([[0.0, 0.0, 0.0, 1.0], [1.7e308, 1e308, 1.5e308, 1.6e308]])
    # dense-size: row 0 is all one value, so every entry is a candidate
    # and the other rows are padded. Row 2 is +inf but for five entries,
    # so its +inf candidates must sort ahead of the padding.
    wide = np.full((3, 8192), 2.0)
    wide[1] = np.random.default_rng(3).uniform(1e308, 1.7e308, size=8192)
    wide[2] = np.inf
    wide[2, 100:105] = 1.0
    for d2 in (narrow, wide):
        for k in (1, 2, 3, 32):
            if k <= d2.shape[1]:
                np.testing.assert_array_equal(
                    knn(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k]
                )


def test_knn_on_a_dense_matrix_allocates_under_half_of_it():
    # the sampled threshold spares the full-row partition's copy
    _, d2 = farthest_point_sampling(dataset_cloud(8192), 64)
    peak = traced_peak(lambda: knn(d2, 32))
    assert peak < 0.5 * d2.nbytes, (peak, d2.nbytes)


def test_knn_k_below_one_rejected():
    with pytest.raises(ContractViolation):
        knn(np.zeros((1, 2)), 0)


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
    assert len(read_off(path).points) == 3


def test_load_cloud_dispatches_on_extension(tmp_path):
    off = tmp_path / "m.OFF"
    off.write_text("OFF\n1 0 0\n1 2 3\n")
    xyz = tmp_path / "c.txt"
    xyz.write_text("1 2 3\n")
    np.testing.assert_array_equal(load_cloud(off).points, [[1, 2, 3]])
    np.testing.assert_array_equal(load_cloud(xyz).points, [[1, 2, 3]])


@pytest.mark.parametrize(
    "text", ["1 2 x\n", "1 2\n", "\n\n", "0 0 0\nnan 0 0\n", "0 inf 0\n", "1 2 -inf\n"]
)
def test_xyz_reader_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.xyz"
    path.write_text(text)
    with pytest.raises(ContractViolation) as info:
        read_xyz(path)
    # the reader names the file and the offending line (the last one in each
    # text). PointCloud refuses non-finite and empty clouds too, but names no
    # line, and no file for an empty one
    assert str(path) in str(info.value)
    lines = [line for line in text.splitlines() if line.strip()]
    if lines:
        assert repr(lines[-1]) in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        "abc 0 0\n",
        "OFF\n2 0 0\n0 0 0\n1 y 1\n",
        "OFF\n2 0 0\n0 0 0\n",
        "OFF\n0 0 0\n",
        "OFF\n",
        "OFF\n2 0 0\n0 0 0\nnan 1 1\n",
        "OFF\n1 0 0\n0 -inf 0\n",
        "",
        "# nothing but a comment\n",
    ],
)
def test_off_reader_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ContractViolation):
        read_off(path)
