import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from privemb.numkit import (
    Adam,
    Rng,
    ShapeError,
    bce_with_logits,
    derive_seed,
    grad_check,
    relu,
    relu_backward,
    sigmoid,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
    softplus,
    spmm,
)
from conftest import adam_reference, assert_close


def test_spmm_matches_dense():
    rng = Rng(3)
    dense = rng.random((7, 5)) * (rng.random((7, 5)) < 0.4)
    s = sp.csr_matrix(dense)
    b = rng.random((5, 4))
    assert_close(spmm(s, b), s.toarray() @ b, tol=1e-12)


def test_spmm_rejects_dense_left():
    with pytest.raises(ShapeError):
        spmm(np.ones((2, 2)), np.ones((2, 2)))


def test_relu_and_backward():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert_close(relu(x), [[0.0, 0.0, 2.0]])
    cot = np.array([[5.0, 7.0, 11.0]])
    # subgradient at the kink is zero
    assert_close(relu_backward(cot, x), [[0.0, 0.0, 11.0]])


def test_sigmoid_values_and_extremes():
    assert_close(sigmoid(0.0), 0.5)
    assert_close(sigmoid(np.array([0.0]))[0], 0.5)
    # stable far into the tails
    assert sigmoid(700.0) == 1.0
    assert sigmoid(-700.0) > 0.0
    assert sigmoid(-700.0) < 1e-300 or sigmoid(-700.0) < 1e-200


def _masked_sigmoid(x):
    """The logistic function as it was computed before the branch-free form:
    a boolean-mask gather and scatter per sign."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


_EDGE_VALUES = [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308,
                np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]


@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(-40.0, 40.0), st.sampled_from(_EDGE_VALUES)),
                min_size=1, max_size=40))
def test_sigmoid_is_bitwise_the_masked_form(values):
    x = np.array(values + _EDGE_VALUES)
    with np.errstate(all="ignore"):
        want = _masked_sigmoid(x)
        got = sigmoid(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for v in values[:3] + _EDGE_VALUES:
        with np.errstate(all="ignore"):
            s = sigmoid(v)
            ref = _masked_sigmoid(v)
        assert type(s) is float
        assert np.array([s]).view(np.uint64)[0] == np.array([ref]).view(np.uint64)[0]


def test_softplus_known_values():
    assert_close(softplus(0.0), math.log(2.0))
    assert_close(softplus(-2.0), math.log(1 + math.exp(-2.0)))
    # linear regime for large inputs
    assert_close(softplus(800.0), 800.0, tol=1e-9)
    assert type(softplus(0.0)) is float


@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-40.0, 40.0),
                          st.floats(-1e-6, 1e-6)), min_size=1, max_size=60))
def test_softplus_kernel_is_within_4_eps_of_logaddexp(values):
    x = np.array(values)
    ref = np.logaddexp(0.0, x)
    got = softplus(x)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(got - ref) <= 4 * eps * np.maximum(1.0, np.abs(ref)))
    # out= the input itself and a scratch array give the same values
    inplace = x.copy()
    softplus(inplace, out=inplace, scratch=np.empty_like(x))
    assert np.array_equal(inplace, got)


def test_softplus_special_values():
    got = softplus(np.array([np.inf, -np.inf, np.nan, -1e308, 1e308]))
    assert got[0] == np.inf
    assert got[1] == 0.0
    assert np.isnan(got[2])
    assert got[3] == 0.0 and got[4] == 1e308
    assert math.isnan(softplus(float("nan")))


def test_bce_known_values():
    # logit 0, target 1: softplus(0) = ln 2
    loss, _ = bce_with_logits(np.array([[0.0]]), np.array([[1.0]]))
    assert_close(loss, math.log(2.0))
    # logit 2, target 1: softplus(-2)
    loss, _ = bce_with_logits(np.array([[2.0]]), np.array([[1.0]]))
    assert_close(loss, 0.12692801104297263)


def test_bce_pos_weight_scales_positive_term():
    x = np.array([[0.3]])
    t = np.array([[1.0]])
    l1, g1 = bce_with_logits(x, t, pos_weight=1.0)
    l3, g3 = bce_with_logits(x, t, pos_weight=3.0)
    assert_close(l3, 3.0 * l1)
    assert_close(g3, 3.0 * g1)


def test_bce_gradient_finite_difference():
    rng = Rng(7)
    x0 = rng.randn(4, 3)
    t = (rng.random((4, 3)) < 0.5).astype(np.float64)

    def fn(p):
        loss, grad = bce_with_logits(p["x"], t, pos_weight=2.5)
        return loss, {"x": grad}

    assert grad_check(fn, {"x": x0}) < 1e-9


def test_cross_entropy_uniform_logits():
    # zero logits, K classes: loss = ln K
    k = 5
    y = np.eye(k)
    loss, _ = softmax_cross_entropy(np.zeros((k, k)), y, np.arange(k))
    assert_close(loss, math.log(k))


def test_cross_entropy_hand_value():
    # single row, p(correct) = 0.75 -> loss = -ln 0.75
    x = np.array([[math.log(3.0), 0.0]])
    y = np.array([[1.0, 0.0]])
    loss, _ = softmax_cross_entropy(x, y, [0])
    assert_close(loss, 0.2876820724517809)


def test_cross_entropy_mask_zeroes_gradient_outside():
    rng = Rng(9)
    x = rng.randn(6, 3)
    codes = rng.integers(0, 3, size=6)
    y = np.zeros((6, 3))
    y[np.arange(6), codes] = 1.0
    mask = np.array([1, 4])
    _, grad = softmax_cross_entropy(x, y, mask)
    outside = np.setdiff1d(np.arange(6), mask)
    assert np.all(grad[outside] == 0.0)
    assert np.any(grad[mask] != 0.0)


def test_cross_entropy_empty_mask_raises():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 2)), np.eye(2), [])


@pytest.mark.parametrize("n,m", [(7, 2), (12, 4)])
def test_cross_entropy_grad_kernel_matches_full_mask(n, m):
    rng = Rng(31 + m)
    x = rng.randn(n, m) * 30.0
    y = np.zeros((n, m))
    y[np.arange(n), rng.integers(0, m, size=n)] = 1.0
    _, want = softmax_cross_entropy(x, y, np.arange(n))
    out = np.empty((n, m))
    got = softmax_cross_entropy_grad(x.copy(), y, out, n)
    assert got is out
    assert np.array_equal(got, want)



def _old_cross_entropy_grad(logits, onehot, rows):
    """The kernel as it was before the running row max: one max reduction."""
    x = logits.copy()
    x -= x.max(axis=1, keepdims=True)
    out = np.exp(x)
    x -= np.log(out.sum(axis=1, keepdims=True))
    np.exp(x, out=out)
    out -= onehot
    out /= rows
    return out


@given(data=st.data(), n=st.integers(1, 12), m=st.integers(2, 9))
def test_cross_entropy_grad_kernel_matches_old_row_max(data, n, m):
    # few distinct values make ties; +-700 nearly overflows exp
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 700.0, -700.0, 699.5]),
                      st.floats(-700.0, 700.0))
    x = np.array(data.draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    y = np.zeros((n, m))
    y[np.arange(n), data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))] = 1.0
    want = _old_cross_entropy_grad(x, y, n)
    got = softmax_cross_entropy_grad(x.copy(), y, np.empty((n, m)), n)
    assert np.array_equal(got, want)
    # a block of rows scaled by the whole row count gives those rows' gradient
    s = data.draw(st.integers(0, n - 1))
    block = softmax_cross_entropy_grad(x[s:].copy(), y[s:], np.empty((n - s, m)), n)
    assert np.array_equal(block, want[s:])


def test_cross_entropy_grad_kernel_checks():
    with pytest.raises(ShapeError):
        softmax_cross_entropy_grad(np.zeros((2, 3)), np.eye(2), np.empty((2, 3)), 2)


def test_adam_in_place_matches_expression():
    rng = Rng(37)
    p = {"w": rng.randn(5, 3), "b": rng.randn(1, 3).ravel()}
    ref = {k: v.copy() for k, v in p.items()}
    opt = Adam(p, lr=0.03)
    step = adam_reference(ref, lr=0.03)
    for _ in range(5):
        grads = {"w": rng.randn(5, 3) * 1e-3, "b": rng.randn(1, 3).ravel() * 1e4}
        opt.step(p, grads)
        step(grads)
        for k in p:
            assert np.array_equal(p[k], ref[k])


def test_adam_one_step_hand_trace():
    # theta=0, g=1, lr=1e-3: after one step theta = -lr * 1/(1+eps)
    p = {"w": np.zeros(1)}
    opt = Adam(p, lr=1e-3)
    opt.step(p, {"w": np.ones(1)})
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert_close(p["w"], [expected], tol=1e-15)


def test_adam_zero_gradient_is_noop():
    p = {"w": np.full(3, 7.0)}
    opt = Adam(p, lr=0.1)
    opt.step(p, {"w": np.zeros(3)})
    assert_close(p["w"], np.full(3, 7.0))


def test_adam_deterministic():
    def run():
        rng = Rng(21)
        p = {"w": rng.randn(4, 4)}
        opt = Adam(p, lr=0.01)
        for i in range(10):
            opt.step(p, {"w": p["w"] * 0.5 + i})
        return p["w"]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_adam_state_mismatch():
    p = {"w": np.zeros(2)}
    opt = Adam(p, lr=0.1)
    with pytest.raises(ShapeError):
        opt.step({"q": np.zeros(2)}, {"q": np.zeros(2)})
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, {"w": np.zeros(3)})


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, "edges")
    assert a == derive_seed(0, "edges")
    assert a != derive_seed(0, "prior")
    assert a != derive_seed(1, "edges")
    assert 0 <= a < 2 ** 64


def test_glorot_bounds():
    rng = Rng(13)
    w = rng.glorot(2, 4)
    assert w.shape == (2, 4)
    bound = math.sqrt(6.0 / 6.0)
    assert np.all(np.abs(w) <= bound)
    with pytest.raises(ShapeError):
        rng.glorot(0, 4)


def test_randn_moments():
    rng = Rng(17)
    x = rng.randn(100000, 1).ravel()
    assert abs(x.mean()) < 0.02
    assert 0.98 < x.std() < 1.02
    # same seed, same bits
    y = Rng(17).randn(100000, 1).ravel()
    assert np.array_equal(x, y)


def test_randn_rejects_bad_shape():
    with pytest.raises(ShapeError):
        Rng(1).randn(0, 3)


def test_grad_check_quadratic_exact():
    def fn(p):
        x = p["x"]
        return float((x * x).sum()), {"x": 2.0 * x}

    rng = Rng(23)
    assert grad_check(fn, {"x": rng.randn(3, 3)}) < 1e-8


def test_grad_check_relu_away_from_kink():
    rng = Rng(29)
    x0 = rng.randn(4, 4)
    x0 = np.where(np.abs(x0) < 1e-2, x0 + 3e-2, x0)
    cot = rng.randn(4, 4)

    def fn(p):
        return float((cot * relu(p["x"])).sum()), {"x": relu_backward(cot, p["x"])}

    assert grad_check(fn, {"x": x0}) < 1e-6


def test_grad_check_catches_wrong_gradient():
    def fn(p):
        x = p["x"]
        return float((x * x).sum()), {"x": 2.5 * x}  # wrong by 25 percent

    assert grad_check(fn, {"x": np.ones((2, 2))}) > 1e-2
