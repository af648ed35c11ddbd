import math

import numpy as np
import pytest

from mvmae.autodiff import AdamWState, Parameter, adamw_step, cosine_lr
from mvmae.autodiff.optim import BETAS, EPS
from mvmae.errors import ContractViolation


def make_param(value, name="p"):
    p = Parameter(np.array(value, dtype=float), name)
    return p


def test_zero_grad_zero_decay_leaves_parameter_unchanged():
    p = make_param([1.0, -2.0])
    p.grad = np.zeros(2)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_single_step_hand_value():
    # p=1, g=1, lr=0.1, wd=0, step 1:
    # mhat=1, vhat=1 -> p' = 1 - 0.1/(1+eps)
    assert BETAS == (0.9, 0.999) and EPS == 1e-8
    p = make_param([1.0])
    p.grad = np.array([1.0])
    state = AdamWState()
    adamw_step({"p": p}, state, lr=0.1, weight_decay=0.0)
    expected = 1.0 - 0.1 * (1.0 / (math.sqrt(1.0) + EPS))
    np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
    assert abs(p.data[0] - 0.9) < 1e-8


def test_second_step_hand_value():
    # two steps with g=1 then g=-1, lr=0.1, wd=0: the bias-corrected
    # moments after step 2 are mhat=(b1(1-b1) - (1-b1))/(1-b1^2) and
    # vhat=(b2(1-b2) + (1-b2))/(1-b2^2) = 1
    b1, b2 = BETAS
    p = make_param([1.0])
    state = AdamWState()
    for g in (1.0, -1.0):
        p.grad = np.array([g])
        adamw_step({"p": p}, state, lr=0.1, weight_decay=0.0)
    first = 1.0 - 0.1 / (1.0 + EPS)
    mhat = (b1 * (1 - b1) - (1 - b1)) / (1 - b1**2)
    vhat = (b2 * (1 - b2) + (1 - b2)) / (1 - b2**2)
    expected = first - 0.1 * mhat / (math.sqrt(vhat) + EPS)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-15)


def test_decoupled_decay_arithmetic():
    # wd=0.05, g=0, lr=2e-4 -> p' = p * (1 - 1e-5)
    p = make_param([3.0, -7.0])
    p.grad = np.zeros(2)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=2e-4, weight_decay=0.05)
    np.testing.assert_allclose(p.data, np.array([3.0, -7.0]) * (1 - 1e-5), rtol=1e-14)


def test_shape_mismatch_raises():
    p = make_param([1.0, 2.0])
    p.grad = np.zeros(3)
    with pytest.raises(ContractViolation):
        adamw_step({"p": p}, AdamWState(), lr=0.1, weight_decay=0.05)


def test_missing_grad_raises():
    p = make_param([1.0])
    with pytest.raises(ContractViolation):
        adamw_step({"p": p}, AdamWState(), lr=0.1, weight_decay=0.05)


def test_step_counter_strictly_increases():
    p = make_param([1.0])
    state = AdamWState()
    for expected in (1, 2, 3):
        p.grad = np.array([0.5])
        adamw_step({"p": p}, state, lr=1e-3, weight_decay=0.0)
        assert state.step == expected


def test_moment_shapes_mirror_parameters():
    p = make_param(np.ones((3, 4)))
    p.grad = np.full((3, 4), 0.1)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=1e-3, weight_decay=0.05)
    assert state.m["p"].shape == (3, 4)
    assert state.v["p"].shape == (3, 4)


def test_cosine_lr_endpoints_and_midpoint():
    lr0, lr_min = 2e-4, 0.0
    assert cosine_lr(10, 100, lr0, lr_min, warmup_steps=10) == pytest.approx(lr0)
    assert cosine_lr(100, 100, lr0, lr_min, warmup_steps=10) == pytest.approx(lr_min)
    # midpoint of the decay span: cos(pi/2) = 0 -> (lr0+lr_min)/2
    assert cosine_lr(50, 100, lr0, lr_min, warmup_steps=0) == pytest.approx(1e-4)


def test_cosine_lr_warmup_ramp():
    assert cosine_lr(0, 100, 1.0, 0.0, warmup_steps=4) == 0.0
    assert cosine_lr(2, 100, 1.0, 0.0, warmup_steps=4) == pytest.approx(0.5)
