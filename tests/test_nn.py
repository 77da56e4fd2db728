"""Neural toolkit unit tests: layer math, losses, SGD, gradient checking."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evrac import nn
from evrac.errors import DomainError, ShapeError
from evrac.seeding import rng_for


# ---------------------------------------------------------------------------
# Softmax and losses
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_softmax_is_distribution(logits):
    p = nn.softmax(np.array(logits))
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-100, 100))
@example([0.0, 2.220446049250313e-16], 2.0)
def test_softmax_is_monotone(logits, shift):
    # Ranking by probability must agree with ranking by logit. Adding a shift
    # can merge logits closer than an ulp of the shift (2.0 + 2.2e-16 == 2.0),
    # so the property is checked within each row, before and after shifting.
    for row in (np.array(logits), np.array(logits) + shift):
        p = nn.softmax(row)
        for i, j in itertools.product(range(row.size), repeat=2):
            if row[i] > row[j]:
                assert p[i] >= p[j]
            elif row[i] == row[j]:
                assert p[i] == p[j]


def test_cross_entropy_uniform_logits():
    logits = np.zeros(4)
    target = np.array([0.0, 1.0, 0.0, 0.0])
    loss, grad = nn.softmax_cross_entropy(logits, target)
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)
    assert grad == pytest.approx(nn.softmax(logits) - target)


def test_cross_entropy_exact_match_is_zero():
    # Drive the softmax to (numerically) exactly the target.
    logits = np.array([500.0, 0.0])
    target = np.array([1.0, 0.0])
    loss, grad = nn.softmax_cross_entropy(logits, target)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_cross_entropy_closed_form():
    loss, _ = nn.softmax_cross_entropy(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)


def test_cross_entropy_rejects_non_one_hot():
    with pytest.raises(DomainError):
        nn.softmax_cross_entropy(np.zeros(3), np.array([0.5, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# SGD and clipping
# ---------------------------------------------------------------------------

def test_sgd_zero_gradient_is_identity():
    p = {"w": np.array([1.0, 2.0])}
    nn.sgd_step(p, {"w": np.zeros(2)}, 0.1)
    assert np.array_equal(p["w"], [1.0, 2.0])


def test_sgd_plugin_value():
    p = {"w": np.array([1.0])}
    nn.sgd_step(p, {"w": np.array([0.5])}, 0.001)
    assert p["w"][0] == pytest.approx(0.9995, abs=1e-15)


def test_sgd_linearity_two_steps():
    g = np.array([0.3, -0.7])
    p1 = {"w": np.array([1.0, 1.0])}
    nn.sgd_step(p1, {"w": g}, 0.01)
    nn.sgd_step(p1, {"w": g}, 0.01)
    p2 = {"w": np.array([1.0, 1.0])}
    nn.sgd_step(p2, {"w": 2.0 * g}, 0.01)
    assert p1["w"] == pytest.approx(p2["w"], abs=1e-15)


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        nn.sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.1)


def test_clip_global_norm():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = nn.clip_global_norm(g, 2.5)
    assert norm == pytest.approx(5.0)
    assert nn.global_norm(g) == pytest.approx(2.5)
    g2 = {"a": np.array([0.3])}
    nn.clip_global_norm(g2, 2.5)
    assert g2["a"][0] == pytest.approx(0.3)
    g3 = {"a": np.array([100.0])}
    nn.clip_global_norm(g3, 0.0)  # 0 disables
    assert g3["a"][0] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# LSTM forward
# ---------------------------------------------------------------------------

def _zero_layer(in_dim, h):
    layer = nn.LstmLayer(in_dim, h)
    layer.b[:] = 0.0
    return layer


def test_lstm_zero_parameters_zero_output():
    layer = _zero_layer(3, 4)
    rng = np.random.default_rng(0)
    hs, _ = layer.forward(rng.normal(size=(2, 5, 3)))
    assert np.array_equal(hs, np.zeros((2, 5, 4)))


def test_lstm_single_cell_hand_computed():
    # 1-dim everything with hand-set gate parameters; recompute the five
    # recurrences with plain floats as the oracle.
    layer = nn.LstmLayer(1, 1)
    wi, wf, wg, wo = 0.4, -0.3, 0.8, 0.2
    bi, bf, bg, bo = 0.1, 1.0, -0.2, 0.05
    layer.W[0] = [wi, wf, wg, wo]
    layer.U[0] = [0.0, 0.0, 0.0, 0.0]
    layer.b[:] = [bi, bf, bg, bo]
    x = 0.7
    hs, _ = layer.forward(np.array([[[x]]]))

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = sig(wi * x + bi)
    f = sig(wf * x + bf)
    g = math.tanh(wg * x + bg)
    o = sig(wo * x + bo)
    c = f * 0.0 + i * g
    expected = o * math.tanh(c)
    assert hs[0, 0, 0] == pytest.approx(expected, abs=1e-15)


def test_lstm_is_order_sensitive():
    rng = np.random.default_rng(3)
    layer = nn.LstmLayer(2, 3, rng)
    seq = rng.normal(size=(1, 4, 2))
    out1, _ = layer.forward(seq)
    out2, _ = layer.forward(seq[:, ::-1].copy())
    assert not np.allclose(out1[:, -1], out2[:, -1])


def test_lstm_forward_deterministic():
    rng = np.random.default_rng(1)
    layer = nn.LstmLayer(3, 4, rng)
    x = rng.normal(size=(2, 3, 3))
    a, _ = layer.forward(x)
    b, _ = layer.forward(x)
    assert np.array_equal(a, b)


def test_lstm_rejects_non_finite():
    layer = nn.LstmLayer(2, 2)
    bad = np.array([[[1.0, np.nan]]])
    with pytest.raises(DomainError):
        layer.forward(bad)


def test_lstm_shape_error():
    layer = nn.LstmLayer(2, 2)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 3, 5)))


def test_stacked_lstm_param_count():
    net = nn.StackedLstm(7, 5, num_layers=2, rng=np.random.default_rng(0))
    expected = 4 * 5 * (7 + 5 + 1) + 4 * 5 * (5 + 5 + 1)
    assert net.num_params() == expected


# ---------------------------------------------------------------------------
# LSTM backward
# ---------------------------------------------------------------------------

def test_lstm_backward_zero_upstream():
    rng = np.random.default_rng(2)
    layer = nn.LstmLayer(3, 4, rng)
    x = rng.normal(size=(2, 3, 3))
    _, cache = layer.forward(x)
    dxs, grads = layer.backward(cache, np.zeros((2, 3, 4)))
    assert np.array_equal(dxs, np.zeros_like(x))
    for g in grads.values():
        assert np.array_equal(g, np.zeros_like(g))


def test_lstm_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    layer = nn.LstmLayer(3, 3, rng)
    x = rng.normal(size=(1, 4, 3))
    clean, _ = layer.forward(x)
    target = clean + 0.3 * rng.normal(size=clean.shape)

    def loss_fn():
        hs, _ = layer.forward(x)
        return 1e-4 * float(np.sum(0.5 * (hs - target) ** 2))

    def grads_fn():
        hs, cache = layer.forward(x)
        _, grads = layer.backward(cache, 1e-4 * (hs - target))
        return grads

    assert nn.grad_check(layer.params, loss_fn, grads_fn) < 1e-5


def test_lstm_gradient_sums_per_step_contributions():
    # A parameter used at every step accumulates the per-step gradients.
    rng = np.random.default_rng(5)
    layer = nn.LstmLayer(2, 2, rng)
    x = rng.normal(size=(1, 2, 2))
    up = rng.normal(size=(1, 2, 2))
    _, cache = layer.forward(x)
    _, full = layer.backward(cache, up)

    only0 = up.copy()
    only0[:, 1] = 0.0
    only1 = up.copy()
    only1[:, 0] = 0.0
    _, g0 = layer.backward(cache, only0)
    _, g1 = layer.backward(cache, only1)
    for name in full:
        assert full[name] == pytest.approx(g0[name] + g1[name], abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient checking harness
# ---------------------------------------------------------------------------

def test_grad_check_linear_model_is_exact():
    # Quadratic loss on a linear model: central differences have no truncation
    # error. Positive inputs and a uniform residual keep every gradient entry
    # bounded away from zero, so only float rounding remains.
    rng = np.random.default_rng(6)
    dense = nn.Dense(3, 2, rng)
    x = 0.5 + rng.random(size=(2, 3))
    clean, _ = dense.forward(x)
    target = clean - 0.2

    def loss_fn():
        y, _ = dense.forward(x)
        return 1e-3 * float(np.sum(0.5 * (y - target) ** 2))

    def grads_fn():
        y, cache = dense.forward(x)
        _, grads = dense.backward(cache, 1e-3 * (y - target))
        return grads

    assert nn.grad_check(dense.params, loss_fn, grads_fn) < 1e-9


def test_grad_check_detects_sign_flip():
    rng = np.random.default_rng(7)
    dense = nn.Dense(3, 2, rng)
    x = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 2))

    def loss_fn():
        y, _ = dense.forward(x)
        return float(np.sum(0.5 * (y - target) ** 2))

    def corrupted_grads():
        y, cache = dense.forward(x)
        _, grads = dense.backward(cache, y - target)
        grads["W"] = -grads["W"]  # the mutation
        return grads

    assert nn.grad_check(dense.params, loss_fn, corrupted_grads) > 1e-2


# ---------------------------------------------------------------------------
# Seeded initialization
# ---------------------------------------------------------------------------

def test_seeded_init_bitwise_identical():
    a = nn.StackedLstm(4, 3, 2, rng_for(9, "init"))
    b = nn.StackedLstm(4, 3, 2, rng_for(9, "init"))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_forget_gate_bias_starts_open():
    layer = nn.LstmLayer(2, 3, np.random.default_rng(0))
    assert np.array_equal(layer.b[3:6], np.ones(3))
    assert np.array_equal(layer.b[:3], np.zeros(3))
    assert np.array_equal(layer.b[6:], np.zeros(6))


def test_mlp_output_activations():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    soft = nn.Mlp([4, 5, 3], rng, output_activation="softmax")
    y, _ = soft.forward(x)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    sig = nn.Mlp([4, 3], rng, output_activation="sigmoid")
    y2, _ = sig.forward(x)
    assert np.all((y2 > 0) & (y2 < 1))
    with pytest.raises(DomainError):
        nn.Mlp([4, 3], rng, output_activation="softplus")


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_sample_categorical_in_range(seed):
    rng = np.random.default_rng(seed)
    probs = nn.softmax(rng.normal(size=(6, 4)))
    idx = nn.sample_categorical(rng, probs)
    assert idx.shape == (6,)
    assert np.all((idx >= 0) & (idx < 4))
