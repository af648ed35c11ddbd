import dataclasses
import math

import numpy as np
import pytest

from mvmae.config import ModelConfig
from mvmae.errors import ContractViolation
from mvmae.geometry import PointCloud, rotate_z
from mvmae.model import build_pretrain_plan
from mvmae.projection import (
    CameraPose,
    clip_planes,
    group_by_image_token,
    project_points,
    rasterize_depth,
    token_index,
    write_pgm,
)
from mvmae.rng import Rng

from oracles import project_point_by_hand, read_pgm

POSE = CameraPose(0.0, 30.0, 2.2, 50.0)


def ring(v):
    """V poses on a ring at the default camera settings of ModelConfig."""
    cfg = ModelConfig()
    return [CameraPose(360.0 * i / v, cfg.elevation_deg, cfg.radius, cfg.fov_deg) for i in range(v)]


def ball_cloud(seed, n=256):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(
        0.2, 1.0, (n, 1)
    )


def plan_poses(v, k, seed=0):
    """The poses a training sample takes, K of V, at ModelConfig's defaults."""
    cfg = dataclasses.replace(ModelConfig(), V=v, K=k)
    cloud = PointCloud(ball_cloud(seed))
    return build_pretrain_plan(cloud, cfg, Rng(seed).derive("s")).poses


def test_pose_pool_twelve():
    pool = plan_poses(12, 12)
    assert [p.azimuth_deg for p in pool] == [30.0 * i for i in range(12)]
    for p in pool:
        assert p.elevation_deg == 30.0
        assert p.radius == 2.2
        assert p.fov_deg == 50.0
        assert p.radius > 1.0


def test_pose_pool_three():
    assert [p.azimuth_deg for p in plan_poses(3, 3)] == [0.0, 120.0, 240.0]


def test_pose_pool_distinct():
    # each sample takes K distinct ring poses, in ascending azimuth
    ring_azimuths = [p.azimuth_deg for p in ring(24)]
    for seed in range(4):
        azimuths = [p.azimuth_deg for p in plan_poses(24, 5, seed)]
        assert len(set(azimuths)) == 5
        assert azimuths == sorted(azimuths)
        assert set(azimuths) <= set(ring_azimuths)


def test_pose_invariants():
    with pytest.raises(ContractViolation):
        CameraPose(0.0, 30.0, 0.9, 50.0)
    with pytest.raises(ContractViolation):
        CameraPose(0.0, 30.0, 2.2, 0.0)
    with pytest.raises(ContractViolation):
        CameraPose(0.0, 30.0, 2.2, 180.0)


@pytest.mark.parametrize(
    "pose",
    [
        (math.inf, 30.0, 2.2, 50.0),
        (0.0, -math.inf, 2.2, 50.0),
        (math.nan, 30.0, 2.2, 50.0),
        (0.0, math.nan, 2.2, 50.0),
        (0.0, 30.0, math.inf, 50.0),
    ],
)
def test_pose_rejects_non_finite(pose):
    with pytest.raises(ContractViolation, match="finite"):
        CameraPose(*pose)


def test_origin_projects_to_center():
    proj = project_points(np.zeros((1, 3)), POSE, 224, 224)
    assert proj.rows[0] == 112 and proj.cols[0] == 112
    assert proj.in_frustum[0]
    assert abs(proj.depth[0] - 2.2) < 1e-12


def test_point_behind_camera_flagged():
    behind = POSE.frame[0] * 1.5
    proj = project_points(behind[None, :], POSE, 224, 224)
    assert not proj.in_frustum[0]
    assert proj.depth[0] < 0


def test_projection_matches_hand_oracle_reference_point():
    point = np.array([0.5, 0.0, 0.0])
    row, col, depth = project_point_by_hand(point, 0.0, 30.0, 2.2, 50.0, 224, 224)
    proj = project_points(point[None, :], POSE, 224, 224)
    assert proj.rows[0] == row
    assert proj.cols[0] == col
    assert abs(proj.depth[0] - depth) < 1e-12


@pytest.mark.parametrize("azimuth", [0.0, 45.0, 137.0, 300.0])
def test_projection_matches_hand_oracle_fuzz(azimuth):
    pose = CameraPose(azimuth, 30.0, 2.2, 50.0)
    for i, point in enumerate(ball_cloud(17, 50)):
        row, col, depth = project_point_by_hand(
            point, azimuth, 30.0, 2.2, 50.0, 128, 128
        )
        proj = project_points(point[None, :], pose, 128, 128)
        assert abs(proj.depth[0] - depth) < 1e-12, f"point {i}"
        if proj.in_frustum[0]:
            assert (proj.rows[0], proj.cols[0]) == (row, col), f"point {i}"


def test_token_index_reference_cases():
    assert token_index(0, 0, 224, 224, 14, 14) == 0
    assert token_index(16, 0, 224, 224, 14, 14) == 14
    assert token_index(223, 223, 224, 224, 14, 14) == 195


def test_token_index_exhaustive_range():
    rows, cols = np.meshgrid(np.arange(224), np.arange(224), indexing="ij")
    idx = token_index(rows, cols, 224, 224, 14, 14)
    assert idx.min() == 0 and idx.max() == 195
    counts = np.bincount(idx.reshape(-1), minlength=196)
    assert np.all(counts == 256)  # every token covers a full 16x16 cell


def test_token_index_rectangular_grid():
    # row stride is the token-grid width, exercised where h_t != w_t
    assert token_index(31, 63, 32, 64, 4, 8) == 31
    assert token_index(8, 0, 32, 64, 4, 8) == 8
    rows, cols = np.meshgrid(np.arange(32), np.arange(64), indexing="ij")
    idx = token_index(rows, cols, 32, 64, 4, 8)
    assert idx.min() == 0 and idx.max() == 31


def test_rasterize_empty_frustum_all_zero():
    far_away = np.full((10, 3), 50.0)
    depth_map = rasterize_depth(far_away, POSE, 64, 64)
    assert not depth_map.any()


def test_rasterize_single_origin_point_golden():
    depth_map = rasterize_depth(np.zeros((1, 3)), POSE, 224, 224)
    nonzero = np.argwhere(depth_map > 0)
    assert nonzero.tolist() == [[112, 112]]
    assert abs(depth_map[112, 112] - 0.5) < 1e-12


def test_rasterize_nearer_point_wins():
    eye = POSE.frame[0]
    fwd = -eye / np.linalg.norm(eye)
    near_pt = eye + 1.7 * fwd  # depth 1.7
    far_pt = eye + 2.2 * fwd  # origin, depth 2.2
    depth_map = rasterize_depth(np.vstack([far_pt, near_pt]), POSE, 64, 64)
    value = depth_map[32, 32]
    want = (POSE.radius + 1.05 - 1.7) / 2.1
    assert abs(value - want) < 1e-12


def test_rasterize_values_bounded_and_deterministic():
    cloud = ball_cloud(3)
    a = rasterize_depth(cloud, POSE, 64, 64)
    b = rasterize_depth(cloud, POSE, 64, 64)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert (a > 0).any()


def test_rasterize_matches_the_tuple_index_z_buffer():
    # 4096 points on 16 x 24 pixels: most pixels are hit many times
    cloud = ball_cloud(5, n=4096)
    proj = project_points(cloud, POSE, 16, 24)
    sel = proj.in_frustum
    assert len(np.unique(proj.rows[sel] * 24 + proj.cols[sel])) < sel.sum() // 4
    zbuf = np.full((16, 24), np.inf)
    np.minimum.at(zbuf, (proj.rows[sel], proj.cols[sel]), proj.depth[sel])
    near, far = clip_planes(POSE)
    want = np.where(np.isfinite(zbuf), (far - zbuf) / (far - near), 0.0)
    assert rasterize_depth(cloud, POSE, 16, 24).tobytes() == want.tobytes()


def test_rasterize_azimuth_equivariance():
    # rotating the cloud with the camera leaves the image unchanged
    cloud = ball_cloud(4)
    for theta_deg in (33.0, 90.0, 211.5):
        rotated = rotate_z(cloud, np.radians(theta_deg))
        moved = CameraPose(theta_deg, 30.0, 2.2, 50.0)
        base = rasterize_depth(cloud, POSE, 64, 64)
        swung = rasterize_depth(rotated, moved, 64, 64)
        np.testing.assert_allclose(swung, base, atol=1e-9)


def test_grouping_all_behind_camera_is_empty():
    behind = POSE.frame[0] * 1.5 + np.random.default_rng(5).normal(0, 0.01, (8, 3))
    grouping = group_by_image_token(behind, POSE, 64, 64, 8, 8)
    assert grouping.g == 0
    assert grouping.groups == {}


def test_grouping_same_cell_merges():
    pts = np.array([[0.0, 0.0, 0.0], [1e-4, 1e-4, 0.0]])
    grouping = group_by_image_token(pts, POSE, 64, 64, 8, 8)
    assert grouping.g == 1
    (members,) = grouping.groups.values()
    assert members.tolist() == [0, 1]


def test_grouping_union_matches_in_frustum_set():
    centers = ball_cloud(6, 64)
    grouping = group_by_image_token(centers, POSE, 64, 64, 8, 8)
    proj = project_points(centers, POSE, 64, 64)
    want = np.flatnonzero(proj.in_frustum)
    union = np.sort(np.concatenate(list(grouping.groups.values())))
    np.testing.assert_array_equal(union, want)
    assert grouping.g <= min(len(want), 64)
    for token, members in grouping.groups.items():
        assert 0 <= token < 64
        got = token_index(proj.rows[members], proj.cols[members], 64, 64, 8, 8)
        assert np.all(got == token)


def test_grouping_keys_sorted():
    grouping = group_by_image_token(ball_cloud(7, 32), POSE, 64, 64, 8, 8)
    keys = list(grouping.groups)
    assert keys == sorted(keys)


def frame_by_np_cross(pose):
    """The look-at frame built with np.cross, recomputed on every call."""
    az, el = math.radians(pose.azimuth_deg), math.radians(pose.elevation_deg)
    eye = pose.radius * np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )
    fwd = -eye / np.linalg.norm(eye)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    return eye, right, np.cross(right, fwd), fwd


# 0.0 and -0.0 poses are equal, yet their frames differ in signed zeros
FRAME_POSES = [
    POSE,
    CameraPose(0.0, 0.0, 2.2, 50.0),
    CameraPose(-0.0, -0.0, 2.2, 50.0),
    CameraPose(-0.0, 0.0, 2.2, 50.0),
    CameraPose(180.0, -0.0, 1.06, 50.0),
    *ring(6),
]


def view_outputs(points, pose):
    proj = project_points(points, pose, 32, 48)
    depth = rasterize_depth(points, pose, 32, 48)
    grouping = group_by_image_token(points[:64], pose, 32, 48, 4, 6)
    arrays = [proj.rows, proj.cols, proj.depth, proj.in_frustum, depth]
    arrays += [np.array(list(grouping.groups), dtype=np.int64), *grouping.groups.values()]
    return [a.tobytes() for a in arrays]


def test_cached_camera_frame_gives_the_uncached_bytes(monkeypatch):
    points = ball_cloud(8)
    points[0] = [0.0, -0.0, -0.0]
    cached = [view_outputs(points, pose) for pose in FRAME_POSES * 2]
    monkeypatch.setattr(CameraPose, "frame", property(frame_by_np_cross))
    uncached = [view_outputs(points, pose) for pose in FRAME_POSES * 2]
    assert cached == uncached


def test_camera_frame_is_computed_once_and_read_only():
    for pose in FRAME_POSES:
        frame = pose.frame
        assert pose.frame is frame
        for got, want in zip(frame, frame_by_np_cross(pose)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0


def test_camera_frame_leaves_pose_equality_and_hash_alone():
    pos, neg = CameraPose(0.0, 0.0, 2.2, 50.0), CameraPose(-0.0, -0.0, 2.2, 50.0)
    assert [a.tobytes() for a in pos.frame] != [a.tobytes() for a in neg.frame]
    assert pos == neg and hash(pos) == hash(neg)
    assert dataclasses.astuple(pos) == (0.0, 0.0, 2.2, 50.0)


def test_pgm_round_trip(tmp_path):
    values = np.random.default_rng(8).uniform(0, 1, (16, 24))
    quantized = np.rint(values * 65535.0) / 65535.0
    path = tmp_path / "d.pgm"
    write_pgm(path, values)
    np.testing.assert_allclose(read_pgm(path), quantized, atol=1e-12)


def test_pgm_golden_header_and_layout(tmp_path):
    values = np.zeros((2, 3))
    values[0, 2] = 0.5
    path = tmp_path / "d.pgm"
    write_pgm(path, values)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n65535\n")
    raster = blob[len(b"P5\n3 2\n65535\n") :]
    assert len(raster) == 12
    # top row first, big endian: pixel (0,2) is the third u16
    assert raster[4:6] == (32768).to_bytes(2, "big")


def test_pgm_rejects_bad_inputs(tmp_path):
    path = tmp_path / "bad.pgm"
    bad_images = (
        np.full((2, 2), 1.5), np.full((2, 2), np.nan), np.array([[0.5, np.inf]]), np.zeros((0, 4))
    )
    for values in bad_images:
        with pytest.raises(ContractViolation):
            write_pgm(path, values)
        assert not path.exists()
