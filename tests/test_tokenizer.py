import numpy as np
import pytest
from scipy.special import erf

from mvmae.autodiff import Tensor, backward, ops
from mvmae.errors import ContractViolation
from mvmae.nn import ParamRegistry
from mvmae.rng import Rng
from mvmae.tokenizer import (
    MaskPlan,
    PatchEmbed,
    PosEmbed3D,
    apply_mask,
    build_patches,
    round_half_up,
)


def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def unit_cloud(seed, n=1024):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return pts / np.abs(pts).max()


def test_build_patches_desk_shapes():
    ps = build_patches(unit_cloud(0), 64, 32)
    assert ps.centers.shape == (64, 3)
    assert ps.patches.shape == (64, 32, 3)
    assert ps.center_indices.shape == (64,)


def test_build_patches_membership():
    # center-relative storage costs one subtract/add round trip, so
    # membership is checked to addition-level precision, not bit equality
    cloud = unit_cloud(1, 200)
    ps = build_patches(cloud, 16, 8)
    absolute = ps.absolute().reshape(-1, 3)
    d2 = np.sum((absolute[:, None, :] - cloud[None, :, :]) ** 2, axis=2)
    assert d2.min(axis=1).max() < 1e-24


def test_build_patches_self_center_k1():
    cloud = unit_cloud(2, 50)
    ps = build_patches(cloud, 50, 1)
    np.testing.assert_array_equal(ps.patches, np.zeros((50, 1, 3)))
    np.testing.assert_array_equal(np.sort(ps.center_indices), np.arange(50))


def test_build_patches_deterministic():
    cloud = unit_cloud(3, 300)
    a = build_patches(cloud, 32, 16)
    b = build_patches(cloud, 32, 16)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.patches, b.patches)
    np.testing.assert_array_equal(a.center_indices, b.center_indices)


def test_round_half_up_values():
    assert round_half_up(47.5) == 48
    assert round_half_up(48.0) == 48
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3


def test_mask_counts_desk_and_small():
    plan = apply_mask(64, 0.75, Rng(0))
    assert len(plan.masked_idx) == 48 and len(plan.visible_idx) == 16
    plan = apply_mask(4, 0.5, Rng(0))
    assert len(plan.masked_idx) == 2


@pytest.mark.parametrize("m", [0.25, 0.5, 0.6, 0.75, 0.9])
def test_mask_exactness_sweep(m):
    for n in range(4, 257, 7):
        want = round_half_up(m * n)
        if want == 0 or want == n:  # degenerate corner is a contract error
            with pytest.raises(ContractViolation):
                apply_mask(n, m, Rng(n))
            continue
        plan = apply_mask(n, m, Rng(n))
        assert len(plan.masked_idx) == want
        merged = np.concatenate([plan.visible_idx, plan.masked_idx])
        assert sorted(merged.tolist()) == list(range(n))
        assert np.all(np.diff(plan.visible_idx) > 0)
        assert np.all(np.diff(plan.masked_idx) > 0)


def test_mask_monte_carlo_frequency():
    hits = np.zeros(64)
    for seed in range(1000):
        hits[apply_mask(64, 0.75, Rng(seed)).masked_idx] += 1
    freq = hits / 1000.0
    assert np.all(np.abs(freq - 0.75) < 0.05)


def test_mask_deterministic_under_rng():
    a = apply_mask(64, 0.75, Rng(9))
    b = apply_mask(64, 0.75, Rng(9))
    np.testing.assert_array_equal(a.masked_idx, b.masked_idx)


def test_mask_rejects_degenerate_ratios():
    with pytest.raises(ContractViolation):
        apply_mask(64, 1.5, Rng(0))
    with pytest.raises(ContractViolation):
        apply_mask(4, 0.01, Rng(0))  # rounds to zero masked
    with pytest.raises(ContractViolation):
        apply_mask(4, 0.99, Rng(0))  # rounds to all masked


def test_mask_plan_partition_contract():
    with pytest.raises(ContractViolation):
        MaskPlan(visible_idx=np.array([0, 1]), masked_idx=np.array([1, 2]))


def test_patch_embed_shape_and_permutation_invariance():
    reg = ParamRegistry(Rng(5))
    embed = PatchEmbed(reg, "pe", 16)
    rng = np.random.default_rng(6)
    patches = rng.normal(size=(10, 7, 3))
    base = embed(Tensor(patches)).data
    assert base.shape == (10, 16)
    for trial in range(100):
        perm = np.random.default_rng(trial).permutation(7)
        shuffled = embed(Tensor(patches[:, perm, :])).data
        np.testing.assert_allclose(shuffled, base, atol=1e-9)


def test_patch_embed_duplicate_patch_duplicate_token():
    reg = ParamRegistry(Rng(7))
    embed = PatchEmbed(reg, "pe", 8)
    patch = np.random.default_rng(8).normal(size=(1, 5, 3))
    doubled = np.concatenate([patch, patch], axis=0)
    out = embed(Tensor(doubled)).data
    np.testing.assert_array_equal(out[0], out[1])


def test_patch_embed_zero_patch_follows_bias_path():
    reg = ParamRegistry(Rng(9))
    embed = PatchEmbed(reg, "pe", 12)
    embed.fc1.bias.data[...] = np.random.default_rng(10).normal(size=6)
    embed.fc2.bias.data[...] = np.random.default_rng(11).normal(size=12)
    want = gelu_np(embed.fc1.bias.data) @ embed.fc2.weight.data + embed.fc2.bias.data
    got = embed(Tensor(np.zeros((1, 4, 3)))).data[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_patch_embed_odd_width_rejected():
    with pytest.raises(ContractViolation):
        PatchEmbed(ParamRegistry(Rng(0)), "pe", 15)


def test_pos_embed_shape_and_consistency():
    reg = ParamRegistry(Rng(12))
    pos = PosEmbed3D(reg, "pos", 16)
    coords = np.random.default_rng(13).normal(size=(6, 3))
    out = pos(Tensor(coords)).data
    assert out.shape == (6, 16)
    dup = pos(Tensor(np.vstack([coords[:1], coords[:1]]))).data
    np.testing.assert_array_equal(dup[0], dup[1])


def test_pos_embed_gradient_reaches_weights():
    reg = ParamRegistry(Rng(14))
    pos = PosEmbed3D(reg, "pos", 8)
    out = pos(Tensor(np.random.default_rng(15).normal(size=(4, 3))))
    backward(ops.sum_(ops.mul(out, out)))
    for p in reg.params().values():
        assert p.grad is not None
    assert np.abs(pos.fc1.weight.grad).max() > 0
