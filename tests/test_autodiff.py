import functools
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmae.autodiff import Parameter, Tensor, backward, no_grad, ops
from mvmae.autodiff.tensor import make_node
from mvmae.errors import ContractViolation

from oracles import (
    StartedWorker,
    attention_by_normalized_map,
    finite_difference,
    grad_rel_error,
)

TOL = 1e-5


def check_op(build, x0, seed=0):
    """FD-check d(loss)/dx where loss = sum(op(x) * fixed random weights)."""
    rng = np.random.default_rng(seed)
    probe = None

    def loss_np(x):
        nonlocal probe
        t = Tensor(x, requires_grad=True)
        out = build(t)
        if probe is None:
            probe = rng.standard_normal(out.data.shape)
        return float(np.sum(out.data * probe)), t, out

    def f(x):
        with no_grad():
            return loss_np(x)[0]

    # analytic: weight the op output by the same probe and backprop
    _, t, out = loss_np(np.array(x0))
    weighted = ops.sum_(ops.mul(out, Tensor(probe)))
    backward(weighted)
    fd = finite_difference(f, np.array(x0))
    err = grad_rel_error(t.grad, fd)
    assert err < TOL, f"rel error {err:.3g}"


RNG = np.random.default_rng(42)
A23 = RNG.standard_normal((2, 3))
A34 = RNG.standard_normal((3, 4))
A234 = RNG.standard_normal((2, 3, 4))
VEC4 = RNG.standard_normal(4)
# two heads of width 3 over five rows, alone and in a batch of two
Q56, K56, V56 = (RNG.standard_normal((5, 6)) for _ in range(3))
Q256, K256, V256 = (RNG.standard_normal((2, 5, 6)) for _ in range(3))
P453 = RNG.standard_normal((4, 5, 3))
T463 = RNG.standard_normal((4, 6, 3))
# three segments over five rows; rows 0 and 2 belong to two segments each
SEG_IDX = [0, 2, 1, 2, 3, 4, 0]
SEG_STARTS = [0, 3, 5]
A54 = RNG.standard_normal((5, 4))
VEC3 = RNG.standard_normal(3)
BETA4 = RNG.standard_normal(4)
B34 = RNG.standard_normal((3, 4))


# each case's id is its name, so deleting a case renames no other
OP_CASES = [
    ("add_bcast", lambda t: ops.add(t, Tensor(VEC4)), A34),
    ("add_bcast_rev", lambda t: ops.add(Tensor(A34), ops.reshape(t, (1, 4))), VEC4),
    ("linear_x", lambda t: ops.linear(t, Tensor(A34), Tensor(VEC4)), A23),
    ("linear_w", lambda t: ops.linear(Tensor(A23), t, Tensor(VEC4)), A34),
    ("mul_bcast", lambda t: ops.mul(t, Tensor(VEC4)), A34),
    ("scale", lambda t: ops.scale(t, -2.5), A34),
    ("matmul_l", lambda t: ops.matmul(t, Tensor(A34)), A23),
    ("matmul_r", lambda t: ops.matmul(Tensor(A23), t), A34),
    ("matmul_stacked_l", lambda t: ops.matmul(t, Tensor(A34.T)), A234),
    ("matmul_stacked_r", lambda t: ops.matmul(Tensor(A234), t), A34.T),
    ("reshape", lambda t: ops.reshape(t, (6, 4)), A234),
    ("concat", lambda t: ops.concat([t, Tensor(A34)]), A34),
    ("gather_repeat", lambda t: ops.gather_rows(t, [0, 2, 2, 1, 0]), A34),
    ("sum_all", lambda t: ops.sum_(t), A234),
    # mul's second operand, broadcast along a missing and a size-1 axis
    ("mul_bcast_rev", lambda t: ops.mul(Tensor(A34), t), VEC4),
    ("mul_bcast_keep", lambda t: ops.mul(Tensor(A234), t), A34[:2, None]),
    ("linear_b", lambda t: ops.linear(Tensor(A23), Tensor(A34), t), VEC4),
    # PatchEmbed's layout: (groups, points per group, d_in)
    ("linear_x3d", lambda t: ops.linear(t, Tensor(A34.T), Tensor(VEC3)), A234),
    ("max", lambda t: ops.max_(t, axis=1), A234),
    ("chamfer", lambda t: ops.chamfer(t, T463), P453),
    ("attention_q", lambda t: ops.attention(t, Tensor(K56), Tensor(V56), 2), Q56),
    ("layer_norm_affine_x",
     lambda t: ops.layer_norm_affine(t, Tensor(VEC4), Tensor(BETA4)), A34),
    ("gelu", lambda t: ops.gelu(t), A34),
    ("mse", lambda t: ops.mse(t, A34), B34),
    ("attention_k", lambda t: ops.attention(Tensor(Q56), t, Tensor(V56), 2), K56),
    ("attention_v", lambda t: ops.attention(Tensor(Q56), Tensor(K56), t, 2), V56),
    ("segment_pool", lambda t: ops.segment_pool(t, SEG_IDX, SEG_STARTS), A54),
    ("linear_w3d", lambda t: ops.linear(Tensor(A234), t, Tensor(VEC3)), A34.T),
    ("linear_b3d", lambda t: ops.linear(Tensor(A234), Tensor(A34.T), t), VEC3),
    ("layer_norm_affine_gamma",
     lambda t: ops.layer_norm_affine(Tensor(A34), t, Tensor(BETA4)), VEC4),
    ("layer_norm_affine_beta",
     lambda t: ops.layer_norm_affine(Tensor(A34), Tensor(VEC4), t), BETA4),
    ("attention_batch_q", lambda t: ops.attention(t, Tensor(K256), Tensor(V256), 2), Q256),
    ("attention_batch_k", lambda t: ops.attention(Tensor(Q256), t, Tensor(V256), 2), K256),
    ("attention_batch_v", lambda t: ops.attention(Tensor(Q256), Tensor(K256), t, 2), V256),
]


@pytest.mark.parametrize("name,build,x0", OP_CASES, ids=[name for name, _, _ in OP_CASES])
def test_op_gradients_match_finite_differences(name, build, x0):
    check_op(build, x0)


def test_sum_gradient_is_ones():
    x = Parameter(np.array([1.0, 2.0, 3.0]), "x")
    backward(ops.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_square_sum_gradient_is_2x():
    x = Parameter(np.array([2.0, -1.0]), "x")
    backward(ops.sum_(ops.mul(x, x)))
    np.testing.assert_array_equal(x.grad, np.array([4.0, -2.0]))


def test_backward_rejects_non_scalar():
    x = Parameter(np.ones(3), "x")
    with pytest.raises(ContractViolation):
        backward(ops.mul(x, x))


def test_a_scalar_parameter_as_the_loss_gets_grad_one():
    # the loss is a leaf, so its seed is the only term it folds
    x = Parameter(np.array(2.5), "x")
    backward(x)
    assert x.grad.shape == () and x.grad == 1.0
    backward(x)  # a leaf is not consumed, so a second backward adds
    assert x.grad == 2.0


def test_unreached_leaf_keeps_zero_grad():
    used = Parameter(np.ones(2), "used")
    unused = Parameter(np.ones(2), "unused")
    used.grad = np.zeros(2)
    unused.grad = np.zeros(2)
    backward(ops.sum_(ops.mul(used, used)))
    np.testing.assert_array_equal(unused.grad, np.zeros(2))
    np.testing.assert_array_equal(used.grad, 2 * np.ones(2))


def test_grad_accumulates_on_reuse():
    # x feeds two branches; adjoints must add
    x = Parameter(np.array([1.5]), "x")
    y = ops.add(ops.mul(x, x), ops.scale(x, 3.0))  # x^2 + 3x
    backward(ops.sum_(y))
    np.testing.assert_allclose(x.grad, [2 * 1.5 + 3.0])


def test_backward_through_a_consumed_graph_raises():
    x = Parameter(np.array([2.0, -1.0]), "x")
    h = ops.mul(x, x)
    loss = ops.sum_(h)
    backward(loss)
    with pytest.raises(ContractViolation, match="rebuild the graph"):
        backward(loss)
    # a new root over a consumed node is refused too: the node must not
    # pass for a leaf and swallow the adjoint
    with pytest.raises(ContractViolation, match="rebuild the graph"):
        backward(ops.sum_(ops.scale(h, 3.0)))
    assert h.grad is None
    np.testing.assert_array_equal(x.grad, [4.0, -2.0])  # added once
    backward(ops.sum_(ops.mul(x, x)))  # a rebuilt graph runs
    np.testing.assert_array_equal(x.grad, [8.0, -4.0])


def test_matmul_rejects_3d_right_operand():
    with pytest.raises(ContractViolation, match="2-d right operand"):
        ops.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))


def test_linear_rejects_bad_weight_or_bias():
    x = Tensor(np.ones((2, 4)))
    for w, b in ((np.ones((2, 4, 5)), np.ones(5)), (np.ones((4, 5)), np.ones(4))):
        with pytest.raises(ContractViolation, match="linear needs"):
            ops.linear(x, Tensor(w), Tensor(b))


def merge_heads(a):
    """(heads, L, D) -> (L, heads * D), the layout attention takes."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def test_attention_rejects_mismatched_or_indivisible_operands():
    x = Tensor(np.ones((5, 6)))
    cases = [
        (Tensor(np.ones((1, 1, 5, 6))),) * 3 + (2,),
        (Tensor(np.ones(6)),) * 3 + (2,),
        (x, Tensor(np.ones((4, 6))), x, 2),
        (x, x, Tensor(np.ones((5, 4))), 2),
        (x, x, x, 4),
        (x, x, x, 0),
    ]
    for q, k, v, heads in cases:
        with pytest.raises(ContractViolation, match="attention needs"):
            ops.attention(q, k, v, heads)


def test_softmax_rows_sum_to_one():
    # attention against all-ones values returns each softmax row's sum;
    # two heads of width 17, logits scaled up to peak the softmax
    rng = np.random.default_rng(7)
    q = Tensor(rng.standard_normal((50, 34)) * 10 * np.sqrt(17))
    k = Tensor(rng.standard_normal((50, 34)))
    out = ops.attention(q, k, Tensor(np.ones((50, 34))), 2).data
    np.testing.assert_allclose(out, np.ones((50, 34)), atol=1e-12)


def test_attention_matches_unfused_composition():
    # three heads of width 4: scale 1/sqrt(4)
    rng = np.random.default_rng(10)
    q, k, v = (rng.standard_normal((3, 9, 4)) for _ in range(3))
    logits = 0.5 * q @ k.transpose(0, 2, 1)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want = merge_heads((e / e.sum(axis=-1, keepdims=True)) @ v)
    got = ops.attention(*(Tensor(merge_heads(a)) for a in (q, k, v)), 3).data
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "length,width,heads",
    [(256, 64, 4), (37, 24, 3)],
    ids=["256x64-4heads", "37x24-3heads"],
)
def test_attention_matches_normalized_map_oracle(length, width, heads):
    # the node never forms the normalized map: it divides e v by the row
    # sums and gets its adjoint from g / S, which moves results by rounding
    rng = np.random.default_rng(12)
    q, k, v, g = (rng.standard_normal((length, width)) * 3 for _ in range(4))
    leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    node = ops.attention(*leaves, heads)
    got = (node.data, *node._vjp(g))
    want = attention_by_normalized_map(q, k, v, heads, g)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize(
    "batch,length,width,heads",
    [(4, 16, 64, 4), (2, 256, 64, 4), (3, 5, 6, 1)],
    ids=["desk-encoder", "desk-decoder", "one-head"],
)
def test_attention_batch_rows_are_the_2d_bytes(batch, length, width, heads):
    rng = np.random.default_rng(13)
    q, k, v, g = (rng.standard_normal((batch, length, width)) for _ in range(4))
    node = ops.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), heads)
    got = (node.data, *node._vjp(g))
    for i in range(batch):
        row = ops.attention(*(Tensor(a[i], requires_grad=True) for a in (q, k, v)), heads)
        want = (row.data, *row._vjp(g[i]))
        for a, b in zip(got, want):
            assert a[i].tobytes() == b.tobytes()


@pytest.fixture
def split_heads(monkeypatch):
    """Every attention op with two heads or more shares them with a worker,
    and the two threads trade the interpreter lock as often as they can."""
    worker = StartedWorker()
    monkeypatch.setattr(ops, "_WORKER", worker)
    monkeypatch.setattr(ops, "_SPLIT_MIN_MAP", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield worker
    finally:
        sys.setswitchinterval(interval)
        worker.shutdown()


def test_head_ranges_run_every_head_once_across_two_threads(split_heads):
    # each thread waits on its first head until the other has one too
    barrier = threading.Barrier(2, timeout=60)
    ran = []

    def run(lo, hi):
        first = threading.get_ident() not in {t for *_, t in ran}
        ran.append((lo, hi, threading.get_ident()))
        if first:
            barrier.wait()

    ops._run_head_ranges(run, 5, 1)
    assert sorted((lo, hi) for lo, hi, _ in ran) == [(h, h + 1) for h in range(5)]
    assert len({t for *_, t in ran}) == 2


def attention_bytes(q, k, v, g, heads):
    node = ops.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), heads)
    return [a.tobytes() for a in (node.data, *node._vjp(g))]


@pytest.mark.parametrize(
    "shape,heads",
    [((256, 64), 4), ((2, 256, 64), 4), ((3, 128, 64), 1), ((128, 48), 3), ((128, 48), 6),
     ((256, 64), 1)],
    ids=["desk-decoder", "batch", "one-head-batch", "3heads", "6heads", "one-head"],
)
def test_split_attention_keeps_the_inline_bytes(shape, heads, split_heads, monkeypatch):
    rng = np.random.default_rng(14)
    q, k, v, g = (rng.standard_normal(shape) * 3 for _ in range(4))
    split = attention_bytes(q, k, v, g, heads)
    monkeypatch.setattr(ops, "_WORKER", None)
    assert split == attention_bytes(q, k, v, g, heads)
    # the forward and the VJP each shared their heads with the worker; a
    # lone head is never shared
    n = (shape[0] if len(shape) == 3 else 1) * heads
    assert split_heads.tasks == (2 if n > 1 else 0)


@pytest.mark.parametrize(
    "name,build,x0",
    [
        ("attention_split_q", lambda t: ops.attention(t, Tensor(K56), Tensor(V56), 3), Q56),
        ("attention_split_k", lambda t: ops.attention(Tensor(Q56), t, Tensor(V56), 3), K56),
        ("attention_split_v", lambda t: ops.attention(Tensor(Q256), Tensor(K256), t, 2), V256),
    ],
)
def test_split_attention_gradients_match_finite_differences(name, build, x0, split_heads):
    check_op(build, x0)
    assert split_heads.tasks


class FailingWorker(StartedWorker):
    """Runs its task, then raises."""

    def submit(self, fn, *args):
        def task():
            fn(*args)
            raise RuntimeError("raised in the worker")

        return super().submit(task)


def test_split_attention_raises_what_its_worker_raised(monkeypatch):
    rng = np.random.default_rng(15)
    q, k, v, g = (rng.standard_normal((64, 32)) for _ in range(4))
    node = ops.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), 4)
    worker = FailingWorker()
    monkeypatch.setattr(ops, "_WORKER", worker)
    monkeypatch.setattr(ops, "_SPLIT_MIN_MAP", 0)
    try:
        with pytest.raises(RuntimeError, match="raised in the worker"):
            ops.attention(Tensor(q), Tensor(k), Tensor(v), 4)
        with pytest.raises(RuntimeError, match="raised in the worker"):
            node._vjp(g)
    finally:
        worker.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_attention_worker(split_heads):
    q = Tensor(np.random.default_rng(16).standard_normal((64, 32)))
    ops.attention(q, q, q, 4)  # the parent's worker thread is running
    with warnings.catch_warnings():
        # Python 3.12 warns about a fork in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: the parent's executor has no thread here
        code = 1
        try:
            if ops._WORKER is not split_heads:
                ops.attention(q, q, q, 4)
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if waited[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert waited[0] == pid and os.waitstatus_to_exitcode(waited[1]) == 0


def huge_attention(rng):
    # squares of 1e200 overflow in q k^T, on whichever thread runs the head
    q = Tensor(rng.standard_normal((256, 64)) * 1e200)
    ops.attention(q, q, q, 4)


def huge_weight_adjoint(rng):
    # x^T g overflows in the weight adjoint, which the worker computes
    x = Tensor(rng.standard_normal((256, 64)) * 1e200)
    w = Parameter(rng.standard_normal((64, 64)), "w")
    b = Parameter(np.zeros(64), "b")
    probe = Tensor(rng.standard_normal((256, 64)) * 1e200)
    backward(ops.sum_(ops.mul(ops.linear(x, w, b), probe)))
    assert np.isinf(w.grad).any()


@pytest.mark.parametrize("run", [huge_attention, huge_weight_adjoint])
def test_worker_keeps_the_callers_numpy_error_state(run, split_heads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            run(np.random.default_rng(17))
    assert split_heads.tasks


def three_layer_x_grad(x0, g0, layers):
    """x's grad of sum(f3(f2(f1(x))) * g0), where f_i = gelu(linear(., w_i,
    b_i)) for the (w_i, b_i) of layers[i]."""
    x = Tensor(x0, requires_grad=True)
    out = x
    for w, b in layers:
        out = ops.gelu(ops.linear(out, w, b))
    backward(ops.sum_(ops.mul(out, Tensor(g0))))
    return x.grad


def test_deferred_weight_adjoints_keep_the_inline_bytes(split_heads, monkeypatch):
    # 256 rows of width 64: each weight adjoint is 2^20 multiply-adds, as in
    # the desk decoder's projections, so it goes to the worker
    rng = np.random.default_rng(18)
    x0, w0, b0, g0 = rng.standard_normal((256, 64)), rng.standard_normal((64, 64)) / 8, \
        rng.standard_normal(64), rng.standard_normal((256, 64))
    assert 256 * 64 * 64 >= ops._DEFER_MIN_PRODUCT
    # inline, with a w and b of its own in each layer, one term each
    monkeypatch.setattr(ops, "_WORKER", None)
    inline = [(Parameter(w0, f"w{i}"), Parameter(b0, f"b{i}")) for i in (1, 2, 3)]
    x_want = three_layer_x_grad(x0, g0, inline)
    # one w and b shared by the three layers, as by an Mlp2 run on several
    # inputs, with a grad already there: the sweep binds the last layer's
    # terms first, and adds them in that order before adding them to it
    w, b = Parameter(w0, "w"), Parameter(b0, "b")
    w.grad, b.grad = w0 * 0.5, b0 * 0.5
    (w_1, b_1), (w_2, b_2), (w_3, b_3) = inline
    w_want = w.grad + ((w_3.grad + w_2.grad) + w_1.grad)
    b_want = b.grad + ((b_3.grad + b_2.grad) + b_1.grad)
    monkeypatch.setattr(ops, "_WORKER", split_heads)
    x_got = three_layer_x_grad(x0, g0, [(w, b)] * 3)
    assert split_heads.tasks == 3
    assert x_got.tobytes() == x_want.tobytes()
    assert w.grad.tobytes() == w_want.tobytes()
    assert b.grad.tobytes() == b_want.tobytes()


def test_a_node_folds_its_terms_in_bind_order(split_heads, monkeypatch):
    # the three layers share a w and b that are nodes (scaled by 1.0, which
    # is exact), so the worker's Futures are terms of a node, which folds
    # them in the order the sweep binds them before its own VJP runs
    rng = np.random.default_rng(21)
    x0, w0, b0, g0 = rng.standard_normal((256, 64)), rng.standard_normal((64, 64)) / 8, \
        rng.standard_normal(64), rng.standard_normal((256, 64))
    monkeypatch.setattr(ops, "_WORKER", None)
    inline = [(Parameter(w0, f"w{i}"), Parameter(b0, f"b{i}")) for i in (1, 2, 3)]
    three_layer_x_grad(x0, g0, inline)
    (w_1, b_1), (w_2, b_2), (w_3, b_3) = inline
    w, b = Parameter(w0, "w"), Parameter(b0, "b")
    monkeypatch.setattr(ops, "_WORKER", split_heads)
    three_layer_x_grad(x0, g0, [(ops.scale(w, 1.0), ops.scale(b, 1.0))] * 3)
    assert split_heads.tasks == 3
    assert w.grad.tobytes() == ((w_3.grad + w_2.grad) + w_1.grad).tobytes()
    assert b.grad.tobytes() == ((b_3.grad + b_2.grad) + b_1.grad).tobytes()


def scaled_weight_grad(x0, w0, g0):
    """w's grad through matmul(x, 2 w): the weight operand is a node, so
    its adjoint must be resolved before scale's VJP runs."""
    w = Parameter(w0, "w")
    backward(ops.sum_(ops.mul(ops.matmul(Tensor(x0), ops.scale(w, 2.0)), Tensor(g0))))
    return w.grad


def test_deferred_adjoint_of_a_node_is_resolved_in_the_sweep(split_heads, monkeypatch):
    monkeypatch.setattr(ops, "_DEFER_MIN_PRODUCT", 0)
    rng = np.random.default_rng(19)
    args = rng.standard_normal((2, 9, 5)), rng.standard_normal((5, 4)), \
        rng.standard_normal((2, 9, 4))
    deferred = scaled_weight_grad(*args)
    assert split_heads.tasks == 1
    monkeypatch.setattr(ops, "_WORKER", None)
    assert deferred.tobytes() == scaled_weight_grad(*args).tobytes()


@pytest.mark.parametrize(
    "name,build,x0",
    [case for case in OP_CASES if case[0].startswith(("linear", "matmul"))],
    ids=[name for name, _, _ in OP_CASES if name.startswith(("linear", "matmul"))],
)
def test_deferred_weight_adjoints_match_finite_differences(name, build, x0, split_heads,
                                                           monkeypatch):
    monkeypatch.setattr(ops, "_DEFER_MIN_PRODUCT", 0)
    check_op(build, x0)
    assert split_heads.tasks


def test_a_product_that_raised_in_the_worker_leaves_every_grad(monkeypatch):
    worker = FailingWorker()
    monkeypatch.setattr(ops, "_WORKER", worker)
    monkeypatch.setattr(ops, "_DEFER_MIN_PRODUCT", 0)
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
    w, b = Parameter(rng.standard_normal((6, 6)), "w"), Parameter(rng.standard_normal(6), "b")
    w.grad, b.grad = np.ones((6, 6)), np.ones(6)
    out = ops.linear(ops.gelu(ops.linear(x, w, b)), w, b)
    try:
        with pytest.raises(RuntimeError, match="raised in the worker"):
            backward(ops.sum_(ops.mul(out, Tensor(rng.standard_normal((8, 6))))))
    finally:
        worker.shutdown()
    # x's adjoint came inline, b's too, but none was published
    assert x.grad is None
    assert (w.grad == 1).all() and (b.grad == 1).all()


def test_vjps_leave_incoming_adjoint_untouched():
    rng = np.random.default_rng(11)
    cases = [
        (lambda t: ops.attention(t, t, t, 2), rng.standard_normal((5, 6))),
        # one head: the split is a view of q, so only a copy may be scaled
        (lambda t: ops.attention(t, t, t, 1), rng.standard_normal((5, 6))),
        (lambda t: ops.attention(t, t, t, 2), rng.standard_normal((2, 5, 6))),
        (lambda t: ops.segment_pool(t, SEG_IDX, SEG_STARTS), rng.standard_normal((5, 4))),
        (lambda t: ops.chamfer(t, T463), rng.standard_normal((4, 5, 3))),
        (lambda t: ops.linear(t, t, Tensor(VEC3)), rng.standard_normal((3, 3))),
        (lambda t: ops.layer_norm_affine(t, ops.reshape(t, (4,)), ops.reshape(t, (4,))),
         rng.standard_normal((1, 4))),
        (lambda t: ops.mse(t, B34), rng.standard_normal((3, 4))),
        (lambda t: ops.max_(t, axis=1), rng.standard_normal((2, 3, 4))),
    ]
    for build, x in cases:
        t = Tensor(x.copy(), requires_grad=True)
        out = build(t)
        # max_ finds its argmax in the VJP: the input must still hold the
        # forward's bytes then, and no VJP may write into it either
        assert t.data.tobytes() == x.tobytes()
        g = rng.standard_normal(out.shape)
        before = g.copy()
        out._vjp(g)
        np.testing.assert_array_equal(g, before)
        assert t.data.tobytes() == x.tobytes()


# --- fused ops against the compositions they replaced -----------------------


def layer_norm_node(a, eps=1e-6):
    """The bare normalization node that layer_norm_affine absorbed."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gxn = (g * xn).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xn * gxn),)

    return make_node(xn, (a,), vjp)


def mean_node(a):
    """The all-element mean node that mse absorbed."""

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape) / a.data.size,)

    return make_node(a.data.mean(), (a,), vjp)


def chamfer_by_diff(pred, target):
    """chamfer with d2 summed over an (M, A, B, 3) difference array."""
    p = pred.data
    diff = p[:, :, None, :] - target[:, None, :, :]
    diff *= diff
    d2 = diff.sum(axis=-1)
    m, a, b = d2.shape
    near_q, near_p = d2.argmin(axis=2), d2.argmin(axis=1)
    out = (d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)).mean()
    patch = np.arange(m)[:, None]

    def vjp(g):
        gp = 2.0 * ((g / m / a) * (p - target[patch, near_q]))
        scatter = 2.0 * ((g / m / b) * (p[patch, near_p] - target))
        np.add.at(gp, (patch, near_p), scatter)
        return (gp,)

    return make_node(out, (pred,), vjp)


def mse_by_composition(a, target):
    d = ops.add(a, Tensor(-target))  # the bytes of a - target, and of its adjoint
    return mean_node(ops.mul(d, d))


def attention_heads_node(q, k, v, c):
    """The attention node over split (..., L, D) heads with a given scale,
    which the (L, heads * D) attention absorbed along with the head split
    and merge."""
    qs = q.data * c
    e = qs @ k.data.swapaxes(-1, -2)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    rowsum = e.sum(axis=-1, keepdims=True)
    out = e @ v.data
    out /= rowsum

    def vjp(g):
        gn = g / rowsum
        gv = e.swapaxes(-1, -2) @ gn
        ge = gn @ v.data.swapaxes(-1, -2)
        ge -= (gn * out).sum(axis=-1, keepdims=True)
        ge *= e
        gq = ge @ k.data
        gq *= c
        return gq, ge.swapaxes(-1, -2) @ qs, gv

    return make_node(out, (q, k, v), vjp)


def swap_leading_axes_node(a):
    """The (L, heads, D) <-> (heads, L, D) transpose node that attention
    absorbed."""

    def vjp(g):
        return (g.transpose(1, 0, 2),)

    return make_node(np.ascontiguousarray(a.data.transpose(1, 0, 2)), (a,), vjp)


def attention_by_composition(q, k, v, heads):
    """reshape + transpose into heads, the head node, transpose + reshape back."""
    length, width = q.shape
    d = width // heads

    def split(t):
        return swap_leading_axes_node(ops.reshape(t, (length, heads, d)))

    out = attention_heads_node(split(q), split(k), split(v), 1.0 / math.sqrt(d))
    return ops.reshape(swap_leading_axes_node(out), (length, width))


@pytest.mark.parametrize(
    "fused,composed,shapes",
    [
        (ops.linear, lambda x, w, b: ops.add(ops.matmul(x, w), b), [(17, 8), (8, 12), (12,)]),
        (ops.linear, lambda x, w, b: ops.add(ops.matmul(x, w), b), [(5, 7, 3), (3, 6), (6,)]),
        (
            ops.layer_norm_affine,
            lambda x, gamma, beta: ops.add(ops.mul(layer_norm_node(x), gamma), beta),
            [(17, 8), (8,), (8,)],
        ),
        # a shape is a leaf's, an array a constant operand
        (
            ops.mse,
            mse_by_composition,
            [(3, 6, 5), np.random.default_rng(15).standard_normal((3, 6, 5))],
        ),
        # the desk decoder's attention: 256 rows, 4 heads of width 16
        (
            lambda q, k, v: ops.attention(q, k, v, 4),
            lambda q, k, v: attention_by_composition(q, k, v, 4),
            [(256, 64)] * 3,
        ),
        (
            lambda q, k, v: ops.attention(q, k, v, 3),
            lambda q, k, v: attention_by_composition(q, k, v, 3),
            [(37, 24)] * 3,
        ),
    ],
)
def test_fused_op_matches_composition_byte_for_byte(fused, composed, shapes):
    rng = np.random.default_rng(13)
    arrays = [rng.standard_normal(s) * 3 if isinstance(s, tuple) else s for s in shapes]
    results = []
    for build in (fused, composed):
        args = [
            Parameter(a.copy(), f"p{i}") if isinstance(s, tuple) else a
            for i, (s, a) in enumerate(zip(shapes, arrays))
        ]
        leaves = [a for a in args if isinstance(a, Parameter)]
        out = build(*args)
        probe = np.random.default_rng(14).standard_normal(out.shape)
        backward(ops.sum_(ops.mul(out, Tensor(probe))))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_chamfer_matches_difference_array_form_byte_for_byte():
    # one patch per call: a batch mean would round most d2 differences away
    rng = np.random.default_rng(13)
    for _ in range(32):
        p0, target = rng.standard_normal((1, 32, 3)) * 3, rng.standard_normal((1, 32, 3))
        results = []
        for build in (ops.chamfer, chamfer_by_diff):
            p = Parameter(p0.copy(), "p")
            out = build(p, target)
            backward(out)
            results.append((out.data, p.grad))
        (fused, fused_grad), (by_diff, by_diff_grad) = results
        np.testing.assert_array_equal(fused, by_diff)
        np.testing.assert_array_equal(fused_grad, by_diff_grad)


# --- segment pooling --------------------------------------------------------


def segment_pool_by_loop(a, idx, starts):
    """gather_rows + max_ + mean per segment, the unfused composition; the
    mean's sum adds the members one at a time, in the order reduceat does."""
    bounds = list(starts) + [len(idx)]
    rows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = ops.gather_rows(a, idx[lo:hi])
        total = functools.reduce(ops.add, [ops.gather_rows(a, [i]) for i in idx[lo:hi]])
        rows.append(
            ops.add(
                ops.reshape(ops.max_(members, axis=0), (1, a.shape[1])),
                ops.scale(total, 1.0 / (hi - lo)),
            )
        )
    return ops.concat(rows)


@st.composite
def segment_layouts(draw):
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 3))
    segments = draw(
        st.lists(
            st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=5),
            min_size=1, max_size=5,
        )
    )
    # small integers make equal maxima within a segment common
    values = draw(
        st.lists(st.integers(-2, 2), min_size=n_rows * width, max_size=n_rows * width)
    )
    weights = draw(
        st.lists(
            st.integers(-3, 3),
            min_size=len(segments) * width, max_size=len(segments) * width,
        )
    )
    a = np.array(values, dtype=np.float64).reshape(n_rows, width)
    idx = np.array([m for seg in segments for m in seg])
    starts = np.cumsum([0] + [len(seg) for seg in segments])[:-1]
    g = np.array(weights, dtype=np.float64).reshape(len(segments), width)
    return a, idx, starts, g


@settings(max_examples=200, deadline=None)
@given(segment_layouts())
def test_segment_pool_matches_gather_max_mean_loop(layout):
    a0, idx, starts, g = layout
    results = []
    for pool in (ops.segment_pool, segment_pool_by_loop):
        a = Parameter(a0.copy(), "a")
        out = pool(a, idx, starts)
        backward(ops.sum_(ops.mul(out, Tensor(g))))
        results.append((out.data, a.grad))
    (fused, fused_grad), (looped, looped_grad) = results
    np.testing.assert_allclose(fused, looped, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fused_grad, looped_grad, rtol=1e-12, atol=1e-12)


def test_segment_pool_tie_routes_to_first_maximal_member():
    # rows 3 and 1 are equal and maximal in the segment [2, 3, 1]
    a = Parameter(np.array([[0.0], [5.0], [1.0], [5.0]]), "a")
    backward(ops.sum_(ops.segment_pool(a, [2, 3, 1], [0])))
    np.testing.assert_array_equal(a.grad, [[0.0], [1 / 3], [1 / 3], [1 + 1 / 3]])


def test_segment_pool_rejects_empty_or_misplaced_segments():
    a = Tensor(np.ones((3, 2)))
    for idx, starts in (([0, 1], [0, 2]), ([0, 1], [1]), ([0, 1], [0, 1, 1]), ([0], [])):
        with pytest.raises(ContractViolation):
            ops.segment_pool(a, idx, starts)


# --- chamfer ------------------------------------------------------------------


def test_chamfer_tie_routes_to_first_nearest_point():
    # the predicted point is equidistant from both target points: side p
    # pulls it toward the first; side q's two pulls cancel
    p = Parameter(np.zeros((1, 1, 3)), "p")
    backward(ops.chamfer(p, np.array([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])))
    np.testing.assert_array_equal(p.grad, [[[-2.0, 0.0, 0.0]]])
    # the target point is equidistant from both predicted points: side q
    # pushes only the first
    p = Parameter(np.array([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]]), "p")
    backward(ops.chamfer(p, np.zeros((1, 1, 3))))
    np.testing.assert_array_equal(p.grad, [[[3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])


def test_chamfer_adjoint_matches_the_tuple_index_scatter():
    # 16 predicted points against 64 targets: most predicted points are the
    # nearest of several targets, so the scatter adds into the same rows
    rng = np.random.default_rng(15)
    p0, target = rng.standard_normal((3, 16, 3)), rng.standard_normal((3, 64, 3))
    p = Parameter(p0.copy(), "p")
    backward(ops.chamfer(p, target))
    d2 = ((p0[:, :, None, :] - target[:, None, :, :]) ** 2).sum(axis=-1)
    near_p = np.argmin(d2, axis=1)  # (M, B)
    assert all(len(np.unique(row)) < len(row) for row in near_p)
    # the adjoint as the tuple-index scatter writes it
    m, a, b = 3, 16, 64
    patch = np.arange(m)[:, None]
    gp = 2.0 * ((1.0 / m / a) * (p0 - target[patch, np.argmin(d2, axis=2)]))
    np.add.at(gp, (patch, near_p), 2.0 * ((1.0 / m / b) * (p0[patch, near_p] - target)))
    assert p.grad.tobytes() == gp.tobytes()


def test_layer_norm_moments():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((40, 64)) * 5 + 3)
    y = ops.layer_norm_affine(x, Tensor(np.ones(64)), Tensor(np.zeros(64))).data
    assert np.max(np.abs(y.mean(axis=-1))) < 1e-9
    # variance ~25 in, so the eps shifts the normalized variance by ~4e-8
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) < 1e-6


def test_forward_and_backward_deterministic():
    def run():
        rng = np.random.default_rng(3)
        x = Parameter(rng.standard_normal((8, 8)), "x")
        h = ops.gelu(ops.matmul(x, Tensor(rng.standard_normal((8, 8)))))
        loss = ops.mse(h, np.zeros((8, 8)))
        backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_no_grad_skips_graph():
    x = Parameter(np.ones(3), "x")
    with no_grad():
        y = ops.mul(x, x)
    assert y._vjp is None and not y.requires_grad


def test_backward_of_a_loss_built_under_no_grad_changes_no_grad():
    # the loss has no graph, so it must not pass for a leaf and take the seed
    x = Parameter(np.array([2.0, -1.0]), "x")
    x.grad = np.array([0.5, 0.5])
    with no_grad():
        loss = ops.sum_(ops.mul(x, x))
    backward(loss)
    assert loss.grad is None
    np.testing.assert_array_equal(x.grad, [0.5, 0.5])


def test_max_under_no_grad_records_no_parents():
    x = Parameter(np.arange(24.0).reshape(2, 3, 4), "x")
    with no_grad():
        y = ops.max_(x, axis=1)
    assert y._parents == () and y._vjp is None and not y.requires_grad
    np.testing.assert_array_equal(y.data, x.data.max(axis=1))


def test_max_gradient_goes_to_first_maximum():
    # ties along axis 1 in every column, at rows 0 and 2, or 1 and 2
    data = np.array([[[5.0, 1.0], [2.0, 7.0], [5.0, 7.0]]])
    x = Parameter(data, "x")
    backward(ops.sum_(ops.mul(ops.max_(x, axis=1), Tensor([[2.0, 3.0]]))))
    np.testing.assert_array_equal(
        x.grad, [[[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]]
    )


def test_forward_ops_stay_finite():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((30, 30)) * 100)
    # scaled by sqrt(30) so the logits are x x^T, as large as they come
    att = ops.attention(ops.scale(x, np.sqrt(30)), x, x, 1)
    norm = ops.layer_norm_affine(x, Tensor(np.ones(30)), Tensor(np.zeros(30)))
    for out in (att, ops.gelu(x), norm):
        assert np.all(np.isfinite(out.data))
