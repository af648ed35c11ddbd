import numpy as np
import pytest

from mvmae.autodiff import Tensor, backward, no_grad, ops
from mvmae.errors import ContractViolation
from mvmae.nn import (
    LayerNormAffine,
    Linear,
    Mlp2,
    MultiheadSelfAttention,
    ParamRegistry,
    TransformerBlock,
    sincos_table_2d,
)
from mvmae.rng import Rng

from oracles import finite_difference, gelu, grad_rel_error


def check_param_grads(params, loss_fn, tol=1e-5):
    """Analytic grads of loss_fn() vs central differences on every param."""
    loss = loss_fn()
    backward(loss)
    worst = 0.0
    for name, p in params.items():
        assert p.grad is not None, f"no grad reached {name}"

        def f(flat, p=p):
            saved = p.data.copy()
            p.data[...] = flat.reshape(p.data.shape)
            with no_grad():
                out = float(loss_fn().data)
            p.data[...] = saved
            return out

        fd = finite_difference(f, p.data.reshape(-1).copy())
        err = grad_rel_error(p.grad.reshape(-1), fd)
        worst = max(worst, err)
        assert err < tol, f"{name}: rel err {err}"
    return worst


def test_registry_rejects_duplicate_names():
    reg = ParamRegistry(Rng(0))
    reg.zeros("a", (2,))
    with pytest.raises(ContractViolation):
        reg.zeros("a", (3,))


def test_registry_init_is_name_keyed_not_order_keyed():
    reg1 = ParamRegistry(Rng(7))
    a1 = reg1.normal("a", (4, 4))
    b1 = reg1.normal("b", (4, 4))
    reg2 = ParamRegistry(Rng(7))
    b2 = reg2.normal("b", (4, 4))
    a2 = reg2.normal("a", (4, 4))
    np.testing.assert_array_equal(a1.data, a2.data)
    np.testing.assert_array_equal(b1.data, b2.data)
    assert not np.array_equal(a1.data, b1.data)


def test_registry_seed_changes_values():
    a = ParamRegistry(Rng(1)).normal("w", (8,))
    b = ParamRegistry(Rng(2)).normal("w", (8,))
    assert not np.array_equal(a.data, b.data)


def test_linear_matches_numpy():
    reg = ParamRegistry(Rng(3))
    lin = Linear(reg, "lin", 5, 7)
    x = np.random.default_rng(0).normal(size=(4, 5))
    got = lin(Tensor(x)).data
    np.testing.assert_allclose(got, x @ lin.weight.data + lin.bias.data, atol=1e-15)


def normalized(x, eps=1e-6):
    """Zero mean and unit variance over the last axis, in numpy."""
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps))


def test_layer_norm_affine_identity_params():
    reg = ParamRegistry(Rng(4))
    ln = LayerNormAffine(reg, "ln", 6)
    x = np.random.default_rng(1).normal(size=(3, 6))
    np.testing.assert_array_equal(ln(Tensor(x)).data, normalized(x))


def test_layer_norm_affine_scale_shift():
    reg = ParamRegistry(Rng(5))
    ln = LayerNormAffine(reg, "ln", 6)
    ln.gamma.data[...] = 2.0
    ln.beta.data[...] = 1.0
    x = np.random.default_rng(2).normal(size=(3, 6))
    np.testing.assert_allclose(ln(Tensor(x)).data, 2.0 * normalized(x) + 1.0, atol=1e-15)


def test_mlp2_matches_numpy():
    reg = ParamRegistry(Rng(6))
    mlp = Mlp2(reg, "m", 4, 9, 3)
    x = np.random.default_rng(3).normal(size=(5, 4))
    h = gelu(x @ mlp.fc1.weight.data + mlp.fc1.bias.data)
    want = h @ mlp.fc2.weight.data + mlp.fc2.bias.data
    np.testing.assert_allclose(mlp(Tensor(x)).data, want, atol=1e-12)


def test_attention_output_shape_and_determinism():
    reg = ParamRegistry(Rng(8))
    attn = MultiheadSelfAttention(reg, "a", 8, 2)
    x = Tensor(np.random.default_rng(4).normal(size=(5, 8)))
    out1 = attn(x).data
    out2 = attn(x).data
    assert out1.shape == (5, 8)
    np.testing.assert_array_equal(out1, out2)


def test_attention_head_count_must_divide_width():
    attn = MultiheadSelfAttention(ParamRegistry(Rng(0)), "a", 10, 3)
    with pytest.raises(ContractViolation, match="divisible by 3 heads"):
        attn(Tensor(np.zeros((4, 10))))


def test_attention_permutation_equivariance():
    reg = ParamRegistry(Rng(9))
    attn = MultiheadSelfAttention(reg, "a", 8, 2)
    x = np.random.default_rng(5).normal(size=(6, 8))
    perm = np.random.default_rng(6).permutation(6)
    base = attn(Tensor(x)).data
    permuted = attn(Tensor(x[perm])).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-9)


def test_attention_grads_match_finite_differences():
    reg = ParamRegistry(Rng(10))
    attn = MultiheadSelfAttention(reg, "a", 6, 2)
    x = Tensor(np.random.default_rng(7).normal(size=(4, 6)))
    probe = np.random.default_rng(8).normal(size=(4, 6))

    def loss_fn():
        return ops.sum_(ops.mul(attn(x), Tensor(probe)))

    check_param_grads(reg.params(), loss_fn)


def test_block_preserves_shape_and_grads():
    reg = ParamRegistry(Rng(11))
    block = TransformerBlock(reg, "b", 4, 2)
    x = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
    probe = np.random.default_rng(10).normal(size=(3, 4))
    assert block(x).shape == (3, 4)

    def loss_fn():
        return ops.sum_(ops.mul(block(x), Tensor(probe)))

    check_param_grads(reg.params(), loss_fn)


def test_block_param_name_inventory():
    reg = ParamRegistry(Rng(12))
    TransformerBlock(reg, "b", 8, 2)
    names = set(reg.params())
    assert "b.attn.wq.weight" in names
    assert "b.attn.wk.weight" in names
    assert "b.mlp.fc2.bias" in names
    assert "b.ln1.gamma" in names
    assert len(names) == 4 + 7 + 4  # the key projection has no bias


def test_sincos_table_shape_and_range():
    table = sincos_table_2d(4, 4, 16)
    assert table.shape == (16, 16)
    assert np.all(np.abs(table) <= 1.0)
    assert not table.flags.writeable


def test_sincos_table_rows_distinct():
    table = sincos_table_2d(8, 8, 64)
    assert len(np.unique(table.round(12), axis=0)) == 64


def test_sincos_table_separates_axes():
    table = sincos_table_2d(3, 5, 16)
    grid = table.reshape(3, 5, 16)
    # first half encodes the row index: constant along columns
    np.testing.assert_array_equal(grid[:, 0, :8], grid[:, 4, :8])
    # second half encodes the column index: constant along rows
    np.testing.assert_array_equal(grid[0, :, 8:], grid[2, :, 8:])

