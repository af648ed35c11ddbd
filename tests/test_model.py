import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvmae.autodiff import Tensor, backward, no_grad
from mvmae.config import ModelConfig, desk_config, tiny_config
from mvmae.data import SyntheticShape, generate_shape
from mvmae.errors import ContractViolation, TrainingAborted
from mvmae.geometry import PointCloud, farthest_point_sampling
from mvmae.model import (
    MultiviewMae,
    build_pretrain_plan,
    encode_plans,
    encoder_features,
    loss_2d,
    loss_3d,
    patchify,
    tile_images,
    total_loss,
    untile_images,
)
from mvmae.pipeline import step_gradients
from mvmae.projection import TokenGrouping
from mvmae.rng import Rng

from oracles import (
    chamfer_bruteforce,
    decoder_input_per_token,
    fd_gradcheck,
    mlp2,
    per_sample_front_end,
    per_sample_loss,
)


def tiny_model(seed=0):
    cfg = tiny_config().model
    return MultiviewMae(cfg, Rng(seed).derive("init"))


def torus_cloud(n=64, seed=1):
    return generate_shape(SyntheticShape(kind="torus", n_points=n, seed=seed))


# --- encoder -----------------------------------------------------------


def test_encode_output_shape():
    model = tiny_model()
    tokens = Tensor(np.random.default_rng(0).normal(size=(6, 16)))
    pos = Tensor(np.random.default_rng(1).normal(size=(6, 16)))
    assert model.encode(tokens, pos).shape == (6, 16)


def test_encode_permutation_equivariance():
    model = tiny_model()
    rng = np.random.default_rng(2)
    tokens = rng.normal(size=(6, 16))
    pos = rng.normal(size=(6, 16))
    perm = np.random.default_rng(3).permutation(6)
    base = model.encode(Tensor(tokens), Tensor(pos)).data
    moved = model.encode(Tensor(tokens[perm]), Tensor(pos[perm])).data
    np.testing.assert_allclose(moved, base[perm], atol=1e-9)


def test_encode_zero_depth_is_identity():
    cfg = ModelConfig(C=16, enc_depth=0, dec_depth=0, heads=2, n=8, k=4)
    model = MultiviewMae(cfg, Rng(0).derive("init"))
    tokens = np.random.default_rng(4).normal(size=(5, 16))
    pos = Tensor(np.random.default_rng(5).normal(size=(5, 16)))
    np.testing.assert_array_equal(model.encode(Tensor(tokens), pos).data, tokens)


def test_key_projections_have_no_bias():
    # softmax over keys cancels a key bias exactly, so none is registered;
    # each key weight keeps the init stream of its name
    model = tiny_model()
    assert not [name for name in model.params if name.endswith(".attn.wk.bias")]
    blocks = [f"enc.block{i}" for i in range(model.cfg.enc_depth)]
    blocks += [f"dec.block{i}" for i in range(model.cfg.dec_depth)]
    for block in blocks:
        name = f"{block}.attn.wk.weight"
        want = Rng(0).derive("init").derive("init", name).normal(0.0, 0.02, (16, 16))
        np.testing.assert_array_equal(model.params[name].data, want)


# --- fusion ------------------------------------------------------------


def test_fusion_singleton_group_is_mlp_of_double():
    model = tiny_model()
    token = np.random.default_rng(6).normal(size=(1, 16))
    grouping = TokenGrouping(groups={3: np.array([0])})
    fused = model.fuse_image_tokens(Tensor(token), [grouping])
    np.testing.assert_allclose(
        fused.data, mlp2(model.fuse_mlp, 2.0 * token), atol=1e-12
    )


def test_fusion_member_order_invariant():
    model = tiny_model()
    rows = np.random.default_rng(7).normal(size=(4, 16))
    for trial in range(100):
        perm = np.random.default_rng(trial).permutation(4)
        a = model.fuse_image_tokens(
            Tensor(rows), [TokenGrouping(groups={0: np.arange(4)})]
        ).data
        b = model.fuse_image_tokens(
            Tensor(rows[perm]), [TokenGrouping(groups={0: np.arange(4)})]
        ).data
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_fusion_two_vector_golden():
    model = tiny_model()
    rows = np.random.default_rng(8).normal(size=(2, 16))
    fused = model.fuse_image_tokens(
        Tensor(rows), [TokenGrouping(groups={7: np.array([0, 1])})]
    )
    want = mlp2(
        model.fuse_mlp, (np.maximum(rows[0], rows[1]) + rows.mean(axis=0))[None, :]
    )
    np.testing.assert_allclose(fused.data, want, atol=1e-12)


def test_fusion_stacks_views_in_order_with_shared_members():
    model = tiny_model()
    rows = np.random.default_rng(30).normal(size=(5, 16))
    groupings = [
        TokenGrouping(groups={1: np.array([0, 2]), 6: np.array([4])}),
        TokenGrouping(groups={}),
        TokenGrouping(groups={0: np.array([2, 3, 0])}),
    ]
    fused = model.fuse_image_tokens(Tensor(rows), groupings).data
    for i, members in enumerate([[0, 2], [4], [2, 3, 0]]):
        pooled = rows[members].max(axis=0) + rows[members].mean(axis=0)
        np.testing.assert_allclose(
            fused[i], mlp2(model.fuse_mlp, pooled[None, :])[0], atol=1e-12
        )
    assert model.fuse_image_tokens(Tensor(rows), [TokenGrouping()]).shape == (0, 16)


# --- decoder input assembly ---------------------------------------------


def assemble(model, plan, encoded, pos_all):
    fused = model.fuse_image_tokens(encoded, plan.groupings)
    return model.assemble_decoder_input(
        encoded, fused, plan.groupings, plan.mask, plan.poses, pos_all
    )


def test_assemble_empty_grouping_slots_follow_formula():
    model = tiny_model()
    cfg = model.cfg
    plan = build_pretrain_plan(torus_cloud(), cfg, Rng(0).derive("s"))
    plan.groupings = [TokenGrouping() for _ in plan.poses]
    pos_all = model.pos3d(Tensor(plan.patches.centers))
    encoded = Tensor(np.random.default_rng(9).normal(size=(len(plan.mask.visible_idx), cfg.C)))
    seq, _ = assemble(model, plan, encoded, pos_all)
    t = model.tokens_per_view
    for v, pose in enumerate(plan.poses):
        seg = seq.data[cfg.n + v * t : cfg.n + (v + 1) * t]
        want = (
            model.mask_token_image.data
            + mlp2(model.modality_mlp, np.array([[0.0, 1.0]]))
            + model.sincos.data
            + mlp2(model.pose_mlp, pose.feature()[None, :])
        )
        np.testing.assert_allclose(seg, want, atol=1e-12)


def test_assemble_desk_sequence_length():
    cfg = desk_config().model
    model = MultiviewMae(cfg, Rng(0).derive("init"))
    plan = build_pretrain_plan(torus_cloud(1024, 2), cfg, Rng(1).derive("s"))
    assert cfg.n + cfg.K * model.tokens_per_view == 256
    pos_all = model.pos3d(Tensor(plan.patches.centers))
    encoded = Tensor(np.zeros((len(plan.mask.visible_idx), cfg.C)))
    seq, pos = assemble(model, plan, encoded, pos_all)
    assert seq.shape == pos.shape == (256, cfg.C)


@pytest.mark.parametrize("preset,seed", [("tiny", 0), ("tiny", 1), ("desk", 2), ("desk", 3)])
def test_assemble_matches_per_token_oracle(preset, seed):
    cfg = (tiny_config() if preset == "tiny" else desk_config()).model
    model = MultiviewMae(cfg, Rng(seed).derive("init"))
    cloud = torus_cloud(1024 if preset == "desk" else 64, seed)
    plan = build_pretrain_plan(cloud, cfg, Rng(seed).derive("s"))
    assert any(g.g > 0 for g in plan.groupings)
    rng = np.random.default_rng(seed)
    encoded = rng.normal(size=(len(plan.mask.visible_idx), cfg.C))
    pos_all = rng.normal(size=(cfg.n, cfg.C))
    seq, pos = assemble(model, plan, Tensor(encoded), Tensor(pos_all))
    want_seq, want_pos = decoder_input_per_token(
        model, encoded, plan.groupings, plan.mask, plan.poses, pos_all
    )
    np.testing.assert_allclose(seq.data, want_seq, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pos.data, want_pos, rtol=1e-12, atol=1e-12)


def test_assemble_views_differ_only_by_pose_embedding():
    model = tiny_model()
    cfg = model.cfg
    far_cloud = PointCloud(np.full((64, 3), 50.0) + np.random.default_rng(10).normal(0, 0.1, (64, 3)))
    plan = build_pretrain_plan(far_cloud, cfg, Rng(2).derive("s"))
    assert all(g.g == 0 for g in plan.groupings)
    pos_all = model.pos3d(Tensor(plan.patches.centers))
    encoded = Tensor(np.random.default_rng(11).normal(size=(len(plan.mask.visible_idx), cfg.C)))

    seq, _ = assemble(model, plan, encoded, pos_all)
    t = model.tokens_per_view
    seg = lambda v: seq.data[cfg.n + v * t : cfg.n + (v + 1) * t]
    assert not np.allclose(seg(0), seg(1))  # pose embeddings separate views

    for p in (model.pose_mlp.fc1, model.pose_mlp.fc2):
        p.weight.data[...] = 0.0
        p.bias.data[...] = 0.0
    seq0, _ = assemble(model, plan, encoded, pos_all)
    seg0 = lambda v: seq0.data[cfg.n + v * t : cfg.n + (v + 1) * t]
    np.testing.assert_array_equal(seg0(0), seg0(1))


# --- joint decoding -------------------------------------------------------


def decode_batch(model, seq, pos):
    return model.joint_decode(Tensor(seq), Tensor(pos))


def test_decode_segment_shapes():
    model = tiny_model()
    cfg = model.cfg
    length = cfg.n + cfg.K * model.tokens_per_view
    rng = np.random.default_rng(12)
    decoded = decode_batch(
        model, rng.normal(size=(length, cfg.C)), rng.normal(size=(length, cfg.C))
    )
    # n point rows, then tokens_per_view image rows per view
    assert decoded.shape == (cfg.n + cfg.K * model.tokens_per_view, cfg.C)


def test_decode_points_attend_to_images():
    model = tiny_model()
    cfg = model.cfg
    length = cfg.n + cfg.K * model.tokens_per_view
    rng = np.random.default_rng(13)
    seq = rng.normal(size=(length, cfg.C))
    pos = rng.normal(size=(length, cfg.C))
    base = decode_batch(model, seq, pos).data
    zeroed = seq.copy()
    zeroed[cfg.n :] = 0.0
    other = decode_batch(model, zeroed, pos).data
    assert np.abs(base[: cfg.n] - other[: cfg.n]).max() > 1e-6


def test_decode_view_swap_equivariance():
    model = tiny_model()
    cfg = model.cfg
    t = model.tokens_per_view
    length = cfg.n + cfg.K * t
    rng = np.random.default_rng(14)
    seq = rng.normal(size=(length, cfg.C))
    pos = rng.normal(size=(length, cfg.C))
    swap = np.arange(length)
    swap[cfg.n : cfg.n + t], swap[cfg.n + t : cfg.n + 2 * t] = (
        np.arange(cfg.n + t, cfg.n + 2 * t),
        np.arange(cfg.n, cfg.n + t),
    )
    base = decode_batch(model, seq, pos).data
    swapped = decode_batch(model, seq[swap], pos[swap]).data
    view = lambda rows, v: rows[cfg.n + v * t : cfg.n + (v + 1) * t]
    np.testing.assert_allclose(swapped[: cfg.n], base[: cfg.n], atol=1e-9)
    np.testing.assert_allclose(view(swapped, 0), view(base, 1), atol=1e-9)
    np.testing.assert_allclose(view(swapped, 1), view(base, 0), atol=1e-9)


# --- heads ---------------------------------------------------------------


def test_heads_shapes_at_desk_scale():
    cfg = desk_config().model
    model = MultiviewMae(cfg, Rng(0).derive("init"))
    rng = np.random.default_rng(15)
    point_rows = rng.normal(size=(cfg.n, cfg.C))
    image_rows = rng.normal(size=(cfg.K * model.tokens_per_view, cfg.C))
    masked_idx = np.arange(48)
    decoded = Tensor(np.concatenate([point_rows, image_rows]))
    patches, tiles = model.project_heads(decoded, masked_idx)
    assert patches.shape == (48, 32, 3)
    assert tiles.shape == (cfg.K * 64, 8 * 8)


def test_head2d_tiling_layout():
    # the rows the depth head is scored against: row v·T + t is the block
    # of view v under token t, tokens row-major; non-square tiles on a
    # non-square token grid, so a swapped axis shows
    cfg = replace(tiny_config().model, H_i=6, W_i=8, H_t=3, W_t=2)
    ph, pw = 2, 4
    images = np.random.default_rng(16).normal(size=(3, cfg.H_i, cfg.W_i))
    tiles = tile_images(images, cfg)
    assert tiles.shape == (3 * cfg.H_t * cfg.W_t, ph * pw)
    for v in range(3):
        for token in range(cfg.H_t * cfg.W_t):
            r0, c0 = (token // cfg.W_t) * ph, (token % cfg.W_t) * pw
            np.testing.assert_array_equal(
                tiles[v * cfg.H_t * cfg.W_t + token],
                images[v, r0 : r0 + ph, c0 : c0 + pw].reshape(-1),
            )
    np.testing.assert_array_equal(untile_images(tiles, cfg), images)


def test_head2d_zero_input_gives_tiled_bias():
    # every depth row of a zero decoder output is head2d's bias, so each
    # untiled view repeats the bias's (ph, pw) block over the token grid
    model = tiny_model()
    cfg = model.cfg
    ppr, ppc = cfg.H_i // cfg.H_t, cfg.W_i // cfg.W_t
    model.head2d.bias.data[...] = np.random.default_rng(17).normal(size=ppr * ppc)
    decoded = Tensor(np.zeros((cfg.n + cfg.K * model.tokens_per_view, cfg.C)))
    _, tiles = model.project_heads(decoded, np.array([0]))
    want = np.tile(model.head2d.bias.data.reshape(ppr, ppc), (cfg.K, cfg.H_t, cfg.W_t))
    np.testing.assert_array_equal(untile_images(tiles.data, cfg), want)
    np.testing.assert_array_equal(tile_images(want, cfg), tiles.data)


# --- chamfer and losses -----------------------------------------------


def chamfer(p, q):
    """loss_3d of a single (k, 3) patch against an equal-size target."""
    return float(loss_3d(Tensor(p[None]), q[None]).data)


def test_chamfer_identical_sets_zero():
    pts = np.random.default_rng(18).normal(size=(10, 3))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_hand_case():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert chamfer(a, b) == 2.0


def test_chamfer_matches_bruteforce():
    rng = np.random.default_rng(19)
    for _ in range(50):
        k = rng.integers(1, 65)
        p = rng.normal(size=(k, 3))
        q = rng.normal(size=(k, 3))
        assert abs(chamfer(p, q) - chamfer_bruteforce(p, q)) < 1e-12


def test_chamfer_symmetry_exact():
    rng = np.random.default_rng(20)
    p = rng.normal(size=(17, 3))
    q = rng.normal(size=(17, 3))
    assert chamfer(p, q) == chamfer(q, p)


def test_chamfer_gradient_flows_to_prediction():
    p = Tensor(np.random.default_rng(21).normal(size=(1, 5, 3)), requires_grad=True)
    q = np.random.default_rng(22).normal(size=(1, 5, 3))
    backward(loss_3d(p, q))
    assert p.grad is not None and np.abs(p.grad).sum() > 0


def test_loss_3d_perfect_prediction_zero():
    target = np.random.default_rng(23).normal(size=(4, 6, 3))
    assert float(loss_3d(Tensor(target.copy()), target).data) == 0.0


def test_loss_3d_single_offset_patch_hand_value():
    # widely spaced points keep nearest neighbors paired after the shift
    base = np.zeros((48, 4, 3))
    base[:, :, 0] = np.arange(4) * 10.0
    pred = base.copy()
    pred[0, :, 0] += 1.0
    got = float(loss_3d(Tensor(pred), base).data)
    assert abs(got - 2.0 / 48.0) < 1e-15


def test_loss_3d_point_order_within_patch_irrelevant():
    rng = np.random.default_rng(24)
    target = rng.normal(size=(3, 5, 3))
    pred = rng.normal(size=(3, 5, 3))
    a = float(loss_3d(Tensor(pred), target).data)
    perm = rng.permutation(5)
    b = float(loss_3d(Tensor(pred[:, perm, :]), target).data)
    assert abs(a - b) < 1e-12


def test_loss_3d_equals_per_patch_chamfer_loop():
    rng = np.random.default_rng(25)
    target = rng.normal(size=(6, 8, 3))
    pred = rng.normal(size=(6, 8, 3))
    batched = float(loss_3d(Tensor(pred), target).data)
    looped = np.mean([chamfer_bruteforce(pred[i], target[i]) for i in range(6)])
    assert abs(batched - looped) < 1e-12


def test_loss_2d_identical_zero():
    img = np.random.default_rng(26).uniform(0, 1, (1, 16, 16))
    assert float(loss_2d(Tensor(img.copy()), img).data) == 0.0


def test_loss_2d_constant_offset():
    img = np.random.default_rng(27).uniform(0, 1, (1, 16, 16))
    got = float(loss_2d(Tensor(img + 0.1), img).data)
    assert abs(got - 0.01) < 1e-12


def test_loss_2d_averages_views():
    base = np.zeros((2, 8, 8))
    stack = np.stack([np.full((8, 8), 0.2), np.full((8, 8), 0.4)])  # mse 0.04, 0.16
    got = float(loss_2d(Tensor(stack), base).data)
    assert abs(got - 0.1) < 1e-12
    # random views: the stacked MSE is the mean of the per-view MSEs
    rng = np.random.default_rng(29)
    pred, target = rng.uniform(0, 1, (2, 3, 12, 16))
    want = np.mean([np.mean((p - q) ** 2) for p, q in zip(pred, target)])
    got = float(loss_2d(Tensor(pred), target).data)
    assert abs(got - want) <= 1e-15 * want


def test_loss_2d_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        loss_2d(Tensor(np.zeros((1, 4, 4))), np.zeros((1, 4, 5)))
    with pytest.raises(ContractViolation):
        loss_2d(Tensor(np.zeros((2, 4, 4))), np.zeros((3, 4, 4)))


def test_total_loss_values_and_nan_abort():
    assert float(total_loss(Tensor(0.0), Tensor(0.0)).data) == 0.0
    assert abs(float(total_loss(Tensor(0.5), Tensor(0.2)).data) - 0.7) < 1e-15
    with pytest.raises(TrainingAborted):
        total_loss(Tensor(np.nan), Tensor(0.0))


def test_loss_gradients_are_additive():
    model = tiny_model()
    plan = build_pretrain_plan(torus_cloud(), model.cfg, Rng(5).derive("s"))

    def grads_for(term_builder):
        for p in model.params.values():
            p.grad = None
        loss, recon, _ = per_sample_loss(model, plan)
        backward(term_builder(loss, recon))
        return {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in model.params.items()
        }

    total = grads_for(lambda loss, recon: loss)
    g3d = grads_for(
        lambda loss, recon: loss_3d(
            recon.predicted_patches, plan.patches.patches[plan.mask.masked_idx]
        )
    )
    g2d = grads_for(
        lambda loss, recon: loss_2d(recon.predicted_tiles, plan.target_tiles)
    )
    for name in total:
        np.testing.assert_allclose(
            total[name], g3d[name] + g2d[name], atol=1e-12, err_msg=name
        )


# --- pretraining forward ---------------------------------------------


def test_step_gradients_deterministic():
    model = tiny_model()
    plans = [
        build_pretrain_plan(torus_cloud(64, i), model.cfg, Rng(7).derive("s", i))
        for i in range(3)
    ]
    runs = []
    for _ in range(2):
        diags = step_gradients(model, plans, 1.0 / len(plans))
        runs.append((diags, [p.grad.copy() for p in model.params.values()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("preset,seed", [("tiny", 0), ("desk", 1)])
def test_batched_front_end_rows_are_the_one_plan_bytes(preset, seed):
    cfg = (tiny_config() if preset == "tiny" else desk_config()).model
    model = MultiviewMae(cfg, Rng(seed).derive("init"))
    n_points = 1024 if preset == "desk" else 64
    plans = [
        build_pretrain_plan(torus_cloud(n_points, seed + i), cfg, Rng(seed).derive("s", i))
        for i in range(4)
    ]
    encoded = encode_plans(model, plans)
    assert encoded.shape == (4, len(plans[0].mask.visible_idx), cfg.C)
    for i, plan in enumerate(plans):
        np.testing.assert_array_equal(encoded.data[i], per_sample_front_end(model, plan).data)


def test_desk_mask_leaves_sixteen_visible():
    cfg = desk_config().model
    plan = build_pretrain_plan(torus_cloud(1024, 3), cfg, Rng(8).derive("s"))
    assert len(plan.mask.visible_idx) == 16
    assert len(plan.mask.masked_idx) == 48


def test_step_gradients_single_point_cloud_finite():
    model = tiny_model()
    cloud = PointCloud(np.array([[0.1, -0.2, 0.05]]))
    plan = build_pretrain_plan(cloud, model.cfg, Rng(9).derive("s"))
    [diag] = step_gradients(model, [plan], 1.0)
    assert np.isfinite([diag["l3d"], diag["l2d"]]).all()
    assert all(np.isfinite(p.grad).all() for p in model.params.values())


def test_ensure_min_points_cycles():
    # a 2-point cloud is cycled up to max(n, k) = 5 points before patching
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    cfg = ModelConfig(n=5, k=3)
    patches = patchify(PointCloud(pts), cfg)
    assert patches.centers.shape == (5, 3)
    assert patches.patches.shape == (5, 3, 3)
    cycled = pts[[0, 1, 0, 1, 0]]
    np.testing.assert_array_equal(patches.centers, cycled[farthest_point_sampling(cycled, 5)[0]])
    np.testing.assert_array_equal(patches.centers, cycled)


def test_encoder_never_sees_masked_patch_contents():
    model = tiny_model()
    plan = build_pretrain_plan(torus_cloud(), model.cfg, Rng(10).derive("s"))
    _, recon_a, diag_a = per_sample_loss(model, plan)
    plan.patches.patches[plan.mask.masked_idx] += 5.0  # corrupt hidden content
    _, recon_b, diag_b = per_sample_loss(model, plan)
    np.testing.assert_array_equal(
        recon_a.predicted_patches.data, recon_b.predicted_patches.data
    )
    np.testing.assert_array_equal(
        recon_a.predicted_tiles.data, recon_b.predicted_tiles.data
    )
    assert diag_a["l3d"] != diag_b["l3d"]  # the corrupted content is the 3D target


def graph_nodes(loss):
    """Nodes the backward sweep visits: every node reachable from the loss
    that requires a gradient, parameters included."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def test_desk_graph_size_does_not_grow_with_fused_tokens():
    cfg = desk_config().model
    model = MultiviewMae(cfg, Rng(0).derive("init"))
    clouds = [
        generate_shape(SyntheticShape(kind=kind, n_points=1024, seed=i))
        for i, kind in enumerate(("torus", "cone", "sphere"))
    ] + [PointCloud(np.full((1024, 3), 50.0) + torus_cloud(1024, 4).points)]
    groups, counts = [], []
    for i, cloud in enumerate(clouds):
        plan = build_pretrain_plan(cloud, cfg, Rng(i).derive("s"))
        loss, _, diag = per_sample_loss(model, plan)
        groups.append(tuple(g.g for g in plan.groupings))
        counts.append(graph_nodes(loss))
    assert len(set(groups)) == len(groups)
    assert groups[-1] == (0, 0, 0)
    assert len(set(counts)) == 1, counts
    assert counts[0] == 238


# --- downstream features ------------------------------------------------


def test_encoder_features_width_and_determinism():
    model = tiny_model()
    cloud = torus_cloud()
    feats = encoder_features(model, cloud)
    assert feats.shape == (2 * model.cfg.C,)
    np.testing.assert_array_equal(feats, encoder_features(model, cloud))


def test_pooled_descriptor_invariant_to_token_order():
    model = tiny_model()
    rng = np.random.default_rng(28)
    tokens = rng.normal(size=(8, 16))
    pos = rng.normal(size=(8, 16))
    perm = np.random.default_rng(29).permutation(8)

    def pooled(t, p):
        enc = model.encode(Tensor(t), Tensor(p)).data
        return np.concatenate([enc.max(axis=0), enc.mean(axis=0)])

    np.testing.assert_allclose(
        pooled(tokens, pos), pooled(tokens[perm], pos[perm]), atol=1e-9
    )


# --- end-to-end gradient check at micro scale ---------------------------


def test_backward_frees_the_forward_graph():
    model = tiny_model()
    plan = build_pretrain_plan(torus_cloud(), tiny_config().model, Rng(2).derive("s"))
    for p in model.params.values():
        p.grad = np.zeros_like(p.data)  # backward adds into these in place
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = per_sample_loss(model, plan)[0]
        forward = tracemalloc.get_traced_memory()[0] - base
        backward(loss)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 0.05 * forward, (held, forward)
    with pytest.raises(ContractViolation, match="rebuild the graph"):
        backward(loss)


def test_micro_end_to_end_gradcheck():
    cfg = ModelConfig(
        C=8, enc_depth=1, dec_depth=1, heads=2, n=4, k=2, m=0.5,
        V=2, K=1, H_i=8, W_i=8, H_t=2, W_t=2,
    )
    model = MultiviewMae(cfg, Rng(1).derive("init"))
    cloud = generate_shape(SyntheticShape(kind="cone", n_points=16, seed=2))
    # two plans: a decoder on cut leaves and one on the batch's own rows
    plans = [build_pretrain_plan(cloud, cfg, Rng(2).derive("s", i)) for i in range(2)]

    step_gradients(model, plans, 0.5)
    for name, p in model.params.items():
        analytic = p.grad

        def f(flat, p=p):
            saved = p.data.copy()
            p.data[...] = flat.reshape(p.data.shape)
            with no_grad():
                out = sum(0.5 * float(per_sample_loss(model, plan)[0].data) for plan in plans)
            p.data[...] = saved
            return out

        err = fd_gradcheck(f, p.data.reshape(-1).copy(), analytic)
        assert err < 1e-5, f"{name}: rel err {err:.3g}"
