import numpy as np
import pytest

from mvmae.config import DataConfig
from mvmae.data import SHAPE_KINDS, SyntheticShape, generate_shape, make_dataset
from mvmae.errors import ContractViolation
from mvmae.geometry import PointCloud, normalize_unit_sphere
from oracles import dataset_by_columns, normalize_by_rows, shape_by_columns


def raw_surface(kind, n=4096, seed=0, **params):
    """Native-coordinate samples straight from the surface sampler, before
    any normalization."""
    from mvmae import data as data_mod
    from mvmae.rng import Rng

    sampler = data_mod._SAMPLERS[kind]
    return sampler(Rng(seed), n, params)


def test_sphere_unit_norms_after_normalization():
    cloud = generate_shape(SyntheticShape(kind="sphere", n_points=4096, seed=0))
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-9)


def test_cube_axis_symmetry():
    cloud = generate_shape(SyntheticShape(kind="cube", n_points=10000, seed=2))
    pts = cloud.points
    spread = np.abs(pts).mean(axis=0)
    assert spread.max() - spread.min() < 0.02
    # normalized cube: corner at sqrt(3)*half-side from center maps to 1
    assert abs(np.abs(pts).max(axis=0).mean() - 1.0 / np.sqrt(3.0)) < 0.02


def test_torus_points_on_surface():
    pts = raw_surface("torus", n=2048, seed=3, tube_radius=0.3)
    ring_gap = np.hypot(pts[:, 0], pts[:, 1]) - 1.0
    tube_r = np.sqrt(ring_gap**2 + pts[:, 2] ** 2)
    np.testing.assert_allclose(tube_r, 0.3, atol=1e-12)


def test_torus_angle_coverage():
    pts = raw_surface("torus", n=4096, tube_radius=0.3)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    hist, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
    assert hist.min() > 0.5 * hist.mean()


def test_cylinder_points_on_surface():
    pts = raw_surface("cylinder", n=2048, seed=4, height=1.5)
    rad = np.hypot(pts[:, 0], pts[:, 1])
    on_side = np.abs(rad - 0.5) < 1e-12
    on_cap = (np.abs(np.abs(pts[:, 2]) - 0.75) < 1e-12) & (rad <= 0.5 + 1e-12)
    assert np.all(on_side | on_cap)
    assert on_side.mean() > 0.5  # side dominates the area for h=3r
    assert on_cap.mean() > 0.05


def test_cone_points_on_surface():
    pts = raw_surface("cone", n=2048, seed=5, height=1.4)
    rad = np.hypot(pts[:, 0], pts[:, 1])
    on_base = (np.abs(pts[:, 2]) < 1e-12) & (rad <= 0.7 + 1e-12)
    want_rad = 0.7 * (1.0 - pts[:, 2] / 1.4)
    on_lateral = np.abs(rad - want_rad) < 1e-12
    assert np.all(on_base | on_lateral)
    assert on_base.mean() > 0.05
    assert on_lateral.mean() > 0.5


def test_same_seed_identical():
    a = generate_shape(SyntheticShape(kind="torus", n_points=512, seed=9))
    b = generate_shape(SyntheticShape(kind="torus", n_points=512, seed=9))
    np.testing.assert_array_equal(a.points, b.points)


def test_different_seed_differs():
    a = generate_shape(SyntheticShape(kind="cube", n_points=512, seed=1))
    b = generate_shape(SyntheticShape(kind="cube", n_points=512, seed=2))
    assert not np.array_equal(a.points, b.points)


def test_unknown_kind_rejected():
    with pytest.raises(ContractViolation):
        generate_shape(SyntheticShape(kind="dodecahedron", n_points=64, seed=0))


def test_normalization_invariants_all_kinds():
    for kind in SHAPE_KINDS:
        cloud = generate_shape(SyntheticShape(kind=kind, n_points=512, seed=11))
        assert np.linalg.norm(cloud.points.mean(axis=0)) < 1e-9
        assert abs(np.linalg.norm(cloud.points, axis=1).max() - 1.0) < 1e-9


def test_dataset_layout_and_determinism():
    cfg = DataConfig(n_points=128, n_classes=5, instances_per_class=3, dataset_seed=7)
    clouds, labels = make_dataset(cfg)
    assert len(clouds) == 15
    np.testing.assert_array_equal(labels, np.repeat(np.arange(5), 3))
    for cloud, label in zip(clouds, labels):
        assert cloud.source_id.split(":")[0] == SHAPE_KINDS[label]
        assert len(cloud.points) == 128
    clouds2, labels2 = make_dataset(cfg)
    np.testing.assert_array_equal(labels, labels2)
    for a, b in zip(clouds, clouds2):
        np.testing.assert_array_equal(a.points, b.points)


def test_dataset_instances_vary_within_class():
    cfg = DataConfig(n_points=128, n_classes=5, instances_per_class=2, dataset_seed=1)
    clouds, _ = make_dataset(cfg)
    for i in range(0, 10, 2):
        assert not np.array_equal(clouds[i].points, clouds[i + 1].points)


# --- the corpus bytes ---------------------------------------------------------


@pytest.mark.parametrize("kind", SHAPE_KINDS)
@pytest.mark.parametrize("n_points", [8, 9, 1023, 1024])
def test_generate_shape_matches_column_oracle_byte_for_byte(kind, n_points):
    extras = [
        {},
        {"jitter": 0.02},
        {"orientation": (0.5, -0.1, 0.7, 0.3)},
        {"jitter": 0.01, "orientation": (-0.2, 0.9, 0.1, -0.4)},
    ]
    for seed in (0, 5, 2**63 + 11):
        for extra in extras:
            got = generate_shape(SyntheticShape(kind, n_points, seed, dict(extra)))
            want = shape_by_columns(kind, n_points, seed, extra)
            assert got.points.tobytes() == want.tobytes(), (seed, extra)


def test_make_dataset_matches_column_oracle_byte_for_byte():
    cfg = DataConfig(n_points=300, n_classes=5, instances_per_class=3, dataset_seed=4)
    clouds, labels = make_dataset(cfg)
    want = dataset_by_columns(cfg, SHAPE_KINDS)
    assert len(clouds) == len(want)
    for cloud, (points, _, source_id) in zip(clouds, want):
        assert cloud.points.tobytes() == points.tobytes(), source_id
        assert cloud.source_id == source_id
    np.testing.assert_array_equal(labels, [label for _, label, _ in want])


def test_normalize_matches_row_oracle_on_flat_and_degenerate_clouds():
    rng = np.random.default_rng(3)
    planar = rng.standard_normal((257, 3)) * 5
    planar[:, 1] = 0.1  # a flat axis whose mean would leave a residue
    line = np.zeros((64, 3))
    line[:, 2] = rng.uniform(-3.0, 7.0, 64)
    clouds = (
        planar, np.asfortranarray(planar), line, np.full((9, 3), 2.5), rng.standard_normal((1, 3)),
    )
    for points in clouds:
        got = normalize_unit_sphere(PointCloud(points.copy(order="K"))).points
        assert got.tobytes() == normalize_by_rows(points).tobytes()
