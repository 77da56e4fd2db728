"""Neural toolkit unit tests: layer math, losses, SGD, gradient checking."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_forecast_rows
from evrac import agent, nn
from evrac import reward as rw
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


# The cross-entropy the trainers use is agent._ce_loss over the policy, with
# its logits gradient the negated softmax_ce preference ascent.

def _ce(logits, action):
    pi = nn.softmax(np.array([logits]))
    target = np.zeros_like(pi)
    target[0, action] = 1.0
    ascent = agent._preference_ascent(pi, target, "softmax_ce")
    return agent._ce_loss(pi, np.array([action])), -ascent[0]


def test_cross_entropy_uniform_logits():
    loss, grad = _ce([0.0, 0.0, 0.0, 0.0], 1)
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)
    # softmax(logits) - target
    assert grad == pytest.approx(np.array([0.25, -0.75, 0.25, 0.25]))


def test_cross_entropy_exact_match_is_zero():
    # Drive the softmax to (numerically) exactly the target.
    loss, grad = _ce([500.0, 0.0], 0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_cross_entropy_closed_form():
    loss, _ = _ce([2.0, 0.0], 0)
    assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# Sigmoid
# ---------------------------------------------------------------------------

def _two_branch_sigmoid(x):
    # The sign-split exp form evrac used before the tanh identity.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_sigmoid(x):
    with np.errstate(all="raise"):
        y = nn.sigmoid(x)
    with np.errstate(under="ignore"):
        ref = _two_branch_sigmoid(x)
    assert np.all(np.abs(y - ref) <= 2.3e-16)
    assert np.all((y >= 0.0) & (y <= 1.0))
    assert np.all(np.diff(y[np.argsort(x, kind="stable")]) >= 0.0)


@given(
    st.lists(
        st.floats(-1e308, 1e308, allow_nan=False, allow_subnormal=False),
        min_size=1,
        max_size=32,
    )
)
@example([0.0, -0.0, 1e308, -1e308, 2.2250738585072014e-308, 36.7, -36.7, 745.2, -745.2])
@example([2.293648586092602e-308, -2.293648586092602e-308])  # halving is inexact
def test_sigmoid_matches_two_branch_form(xs):
    _check_sigmoid(np.array(xs))


def test_sigmoid_dense_grid():
    _check_sigmoid(np.linspace(-800.0, 800.0, 400_001))


def test_sigmoid_subnormal_inputs_give_one_half():
    # Halving a subnormal is inexact; sigmoid nudges tiny inputs away from
    # the subnormals first, so not even the underflow flag is set.
    x = np.array([5e-324, -5e-324, 1e-310, -2e-308])
    with np.errstate(all="raise"):
        assert np.array_equal(nn.sigmoid(x), np.full(4, 0.5))


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


def test_named_joins_group_and_key_in_order():
    groups = {"b": {"y": 1, "x": 2}, "a": {"z": 3}}
    assert list(nn.named(groups).items()) == [("b.y", 1), ("b.x", 2), ("a.z", 3)]
    assert nn.named({}) == {} and nn.named({"a": {}}) == {}


def test_parameter_and_gradient_key_orders():
    """Parameters are named first layer first; gradients come back in
    backward order, last layer first. A gradient dict's order is the
    summation order of `global_norm`, so it is pinned here."""
    rng = np.random.default_rng(0)
    mlp = nn.Mlp([3, 4, 2], rng)
    assert list(mlp.params) == ["l0.W", "l0.b", "l1.W", "l1.b"]
    y, cache = mlp.forward(rng.normal(size=(2, 3)))
    assert list(mlp.backward(cache, np.ones_like(y))[1]) == ["l1.W", "l1.b", "l0.W", "l0.b"]
    lstm = nn.StackedLstm(3, 2, 2, rng)
    assert list(lstm.params) == ["l0.W", "l0.U", "l0.b", "l1.W", "l1.U", "l1.b"]
    hs, cache = lstm.forward(rng.normal(size=(2, 4, 3)))
    assert list(lstm.backward(cache, np.ones_like(hs))[1]) == ["l1.W", "l1.U", "l1.b", "l0.W", "l0.U", "l0.b"]


# ---------------------------------------------------------------------------
# LSTM forward
# ---------------------------------------------------------------------------

def _zero_layer(in_dim, h):
    layer = nn.LstmLayer(in_dim, h, np.random.default_rng(0))
    for value in layer.params.values():
        value[:] = 0.0
    return layer


def test_lstm_zero_parameters_zero_output():
    layer = _zero_layer(3, 4)
    rng = np.random.default_rng(0)
    hs, _ = layer.forward(rng.normal(size=(2, 5, 3)))
    assert np.array_equal(hs, np.zeros((2, 5, 4)))


def test_lstm_single_cell_hand_computed():
    # 1-dim everything with hand-set gate parameters; recompute the five
    # recurrences with plain floats as the oracle.
    layer = nn.LstmLayer(1, 1, np.random.default_rng(0))
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
    layer = nn.LstmLayer(2, 2, np.random.default_rng(0))
    bad = np.array([[[1.0, np.nan]]])
    with pytest.raises(DomainError):
        layer.forward(bad)


def test_lstm_shape_error():
    layer = nn.LstmLayer(2, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 3, 5)))


def test_stacked_lstm_param_count():
    net = nn.StackedLstm(7, 5, num_layers=2, rng=np.random.default_rng(0))
    expected = 4 * 5 * (7 + 5 + 1) + 4 * 5 * (5 + 5 + 1)
    assert sum(v.size for v in net.params.values()) == expected


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
# LSTM kernel against a per-gate reference
# ---------------------------------------------------------------------------

def _reference_lstm_forward(layer, xs):
    # The per-gate loop evrac used before the fused kernel.
    B, T, _ = xs.shape
    h = layer.hidden_dim
    hs = np.zeros((B, T, h))
    cs = np.zeros((B, T, h))
    gates = np.zeros((B, T, 4 * h))
    h_prev = np.zeros((B, h))
    c_prev = np.zeros((B, h))
    for t in range(T):
        z = xs[:, t] @ layer.W + h_prev @ layer.U + layer.b
        i = _two_branch_sigmoid(z[:, :h])
        f = _two_branch_sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = _two_branch_sigmoid(z[:, 3 * h :])
        c = f * c_prev + i * g
        h_t = o * np.tanh(c)
        gates[:, t, :h] = i
        gates[:, t, h : 2 * h] = f
        gates[:, t, 2 * h : 3 * h] = g
        gates[:, t, 3 * h :] = o
        cs[:, t] = c
        hs[:, t] = h_t
        h_prev, c_prev = h_t, c
    return hs, {"xs": xs, "hs": hs, "cs": cs, "gates": gates}


def _reference_lstm_backward(layer, cache, dhs):
    xs, hs, cs, gates = cache["xs"], cache["hs"], cache["cs"], cache["gates"]
    B, T, _ = xs.shape
    h = layer.hidden_dim
    dW = np.zeros_like(layer.W)
    dU = np.zeros_like(layer.U)
    db = np.zeros_like(layer.b)
    dxs = np.zeros_like(xs)
    dh_carry = np.zeros((B, h))
    dc_carry = np.zeros((B, h))
    for t in range(T - 1, -1, -1):
        i = gates[:, t, :h]
        f = gates[:, t, h : 2 * h]
        g = gates[:, t, 2 * h : 3 * h]
        o = gates[:, t, 3 * h :]
        c = cs[:, t]
        c_prev = cs[:, t - 1] if t > 0 else np.zeros((B, h))
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, h))
        tanh_c = np.tanh(c)
        dh = dhs[:, t] + dh_carry
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_carry
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dW += xs[:, t].T @ dz
        dU += h_prev.T @ dz
        db += dz.sum(axis=0)
        dxs[:, t] = dz @ layer.W.T
        dh_carry = dz @ layer.U.T
        dc_carry = dc * f
    return dxs, {"W": dW, "U": dU, "b": db}


def _assert_rel_close(actual, expected, rel=1e-12):
    # Relative to the array's scale, so entries that cancel to ~0 do not
    # demand digits the float64 sum never had.
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 7),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 1, 1, 0)
@example(1, 1, 3, 1, 1)
@example(4, 9, 5, 8, 2)
def test_lstm_kernel_matches_per_gate_reference(B, T, in_dim, hidden, seed):
    rng = np.random.default_rng(seed)
    layer = nn.LstmLayer(in_dim, hidden, rng)
    layer.b += rng.normal(size=layer.b.shape)
    xs = 2.0 * rng.normal(size=(B, T, in_dim))
    dhs = rng.normal(size=(B, T, hidden))

    hs, cache = layer.forward(xs)
    ref_hs, ref_cache = _reference_lstm_forward(layer, xs)
    _assert_rel_close(hs, ref_hs)
    _assert_rel_close(cache["cs"].swapaxes(0, 1), ref_cache["cs"])
    _assert_rel_close(cache["gates"].swapaxes(0, 1), ref_cache["gates"])
    assert cache["xs"] is xs

    dxs, grads = layer.backward(cache, dhs)
    ref_dxs, ref_grads = _reference_lstm_backward(layer, ref_cache, dhs)
    _assert_rel_close(dxs, ref_dxs)
    for name in ("W", "U", "b"):
        _assert_rel_close(grads[name], ref_grads[name])


def test_lstm_backward_ignores_earlier_backward_calls():
    rng = np.random.default_rng(11)
    layer = nn.LstmLayer(3, 4, rng)
    xs = rng.normal(size=(3, 5, 3))
    dhs = rng.normal(size=(3, 5, 4))
    _, cache = layer.forward(xs)
    saved = {k: v.copy() for k, v in cache.items()}
    first_dxs, first = layer.backward(cache, dhs)

    # Other backward passes, on this cache and on another, in between.
    layer.backward(cache, rng.normal(size=dhs.shape))
    _, other = layer.forward(rng.normal(size=(2, 7, 3)))
    layer.backward(other, rng.normal(size=(2, 7, 4)))
    for k, v in saved.items():
        assert np.array_equal(cache[k], v)

    _, fresh = layer.forward(xs)
    again_dxs, again = layer.backward(fresh, dhs)
    assert np.array_equal(again_dxs, first_dxs)
    for name in first:
        assert np.array_equal(again[name], first[name])
    assert again["W"] is not first["W"]


# ---------------------------------------------------------------------------
# Time-major step state against the batch-major kernel
# ---------------------------------------------------------------------------

class _BatchMajorDense:
    """`nn.DenseInput` as it was when the LSTM kept its step state batch-first."""

    def __init__(self, xs):
        self.xs = xs
        self.shape = xs.shape

    def project(self, W):
        nn._require_finite("lstm input", self.xs)
        B, T, _ = self.shape
        return (self.xs.reshape(B * T, -1) @ W).reshape(B, T, W.shape[1])

    def backward(self, W, dW, steps):
        dxs = np.empty_like(self.xs)
        for t, dz in steps:
            dW += self.xs[:, t].T @ dz
            np.matmul(dz, W.T, out=dxs[:, t])
        return dxs


def _allocating_lookup(table, idx, W):
    # `reward._lookup` as it was before it wrote into a given array.
    if idx.size < table.shape[0]:
        return (table[idx.ravel()] @ W).reshape(idx.shape + W.shape[1:])
    return (table @ W)[idx]


class _BatchMajorRows(rw.ForecastRows):
    """`reward.ForecastRows` with the batch-major projection it had then; its
    backward has not changed."""

    def project(self, W):
        nn._require_finite("lstm input", self.lags)
        width = self.index.context_width()
        gates = _allocating_lookup(rw._WEEK_FEATURES, self._week_slots(), W[1 + width :])
        gates += _allocating_lookup(self.index.contexts, self.cols, W[1 : 1 + width])[:, None, :]
        gates += self.lags[:, :, None] * W[0]
        return gates


def _batch_major_forward(layer, inputs):
    # `LstmLayer.forward` with batch-first (B, T, ·) step state, verbatim but
    # for the cache-free branch it also had.
    B, T, _ = inputs.shape
    h = layer.hidden_dim
    scale, shift, _ = nn._gate_affine(h)
    U = layer.U * scale
    gates = np.ascontiguousarray(inputs.project(layer.W * scale))
    gates += layer.b * scale
    hs = np.empty((B, T, h))
    cs = np.empty((B, T, h))
    acts, cells = gates.swapaxes(0, 1), cs.swapaxes(0, 1)
    blocks = gates.reshape(B, T, 4, h).transpose(1, 2, 0, 3)
    ig = np.empty((B, h))
    steps = zip(gates.swapaxes(0, 1), acts, blocks, cells, hs.swapaxes(0, 1))
    for t, (z, a, (i, f, g, o), c, h_t) in enumerate(steps):
        if t:
            np.add(z, h_prev @ U, out=a)
            np.tanh(a, out=a)
        else:
            np.tanh(z, out=a)
        a *= scale
        a += shift
        if t:
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=ig)  # c_t = f * c_prev + i * g
        else:
            np.multiply(i, g, out=c)
        np.tanh(c, out=h_t)
        h_t *= o  # h_t = o * tanh(c_t)
        h_prev, c_prev = h_t, c
    return hs, {"inputs": inputs, "hs": hs, "cs": cs, "gates": gates}


def _batch_major_steps(layer, cache, dhs, dU, db):
    # `LstmLayer._steps` with batch-first step state, verbatim.
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    B, T, h = hs.shape
    _, _, tanh_cols = nn._gate_affine(h)
    dz = np.empty((B, 4 * h))
    di, df, dg, do = dz[:, :h], dz[:, h : 2 * h], dz[:, 2 * h : 3 * h], dz[:, 3 * h :]
    dh_carry = dc_carry = None
    for t in range(T - 1, -1, -1):
        a = gates[:, t]
        i, f, g, o = a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]
        tanh_c = np.tanh(cs[:, t])
        dh = dhs[:, t] if dh_carry is None else dhs[:, t] + dh_carry
        np.multiply(dh, tanh_c, out=do)
        dc = dh * o
        tanh_c *= tanh_c
        dc *= np.subtract(1.0, tanh_c, out=tanh_c)
        if dc_carry is not None:
            dc += dc_carry
        np.multiply(dc, g, out=di)
        if t:
            np.multiply(dc, cs[:, t - 1], out=df)
        else:
            df.fill(0.0)  # c_{-1} = 0
        np.multiply(dc, i, out=dg)
        dz *= (1.0 - a) * (a + tanh_cols)
        yield t, dz
        if t:
            dU += hs[:, t - 1].T @ dz
        db += dz.sum(axis=0)
        dh_carry = dz @ layer.U.T
        dc_carry = dc
        dc_carry *= f


def _batch_major_stack(net, inputs, dhs):
    """Every layer's hidden sequence, the input gradient and the parameter
    gradients of the batch-major stacked forward and backward."""
    seqs, caches = [], []
    for layer in net.layers:
        seq, cache = _batch_major_forward(layer, inputs)
        seqs.append(seq)
        caches.append(cache)
        inputs = _BatchMajorDense(seq)
    grads, d = {}, dhs
    for l in range(len(net.layers) - 1, -1, -1):
        layer, cache = net.layers[l], caches[l]
        dW, dU, db = np.zeros_like(layer.W), np.zeros_like(layer.U), np.zeros_like(layer.b)
        d = cache["inputs"].backward(layer.W, dW, _batch_major_steps(layer, cache, d, dU, db))
        grads.update({f"l{l}.W": dW, f"l{l}.U": dU, f"l{l}.b": db})
    return seqs, d, grads


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    B=st.sampled_from([1, 3, 129]),
    T=st.integers(1, 10),
    layers=st.integers(1, 3),
    source=st.sampled_from(["array", "dense", "rows"]),
    in_dim=st.integers(1, 6),
    hidden=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(B=3, T=10, layers=2, source="rows", in_dim=5, hidden=4, seed=0)  # a `recommend` pricing pass
@example(B=129, T=10, layers=3, source="array", in_dim=6, hidden=8, seed=1)
def test_time_major_lstm_has_the_bits_of_batch_major(B, T, layers, source, in_dim, hidden, seed):
    """The time-major stack gives the hidden sequence of every layer, the
    input gradient and every parameter gradient of the batch-major kernel
    bit for bit, over an array, a `DenseInput` and `ForecastRows` (where
    `in_dim` is the station count), through `backward` and `backward_last`.
    The input projection and the BPTT weight gradients run as GEMMs over
    rows in another order, which BLAS does not promise to sum alike. A
    width-1 layer's gradients are compared within rel 1e-12 (see below)."""
    rng = np.random.default_rng(seed)
    if source == "rows":
        xs = random_forecast_rows(rng, in_dim, T, B, first_hour=-200)
        reference = _BatchMajorRows(xs.index, xs.lags, xs.cols, xs.hours)
        given_xs = xs
    else:
        xs = 2.0 * rng.normal(size=(B, T, in_dim))
        reference = _BatchMajorDense(xs)
        given_xs = xs if source == "array" else nn.DenseInput(xs)
    net = nn.StackedLstm(xs.shape[2], hidden, layers, rng)
    for layer in net.layers:
        layer.b += rng.normal(size=layer.b.shape)
    dhs = rng.normal(size=(B, T, hidden))
    dh_last = rng.normal(size=(B, hidden))
    last_only = np.zeros((B, T, hidden))
    last_only[:, -1] = dh_last

    top, cache = net.forward(given_xs)
    want_seqs, _, _ = _batch_major_stack(net, reference, dhs)
    _assert_same_bits(top, want_seqs[-1])
    for layer_cache, want in zip(cache["caches"], want_seqs):
        _assert_same_bits(layer_cache["hs"].swapaxes(0, 1), want)
    for got, upstream in ((net.backward(cache, dhs), dhs), (net.backward_last(cache, dh_last), last_only)):
        _, want_dxs, want_grads = _batch_major_stack(net, reference, upstream)
        dxs, grads = got
        if source == "rows":
            assert dxs is None and want_dxs is None
        else:
            _assert_same_bits(dxs, want_dxs)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            # A width-1 layer's hidden row at step t is a (1, B) operand of
            # its U gradient and of the next layer's W gradient. Time-major,
            # it has unit stride and numpy hands it to BLAS gemv, where the
            # strided batch-major row ran numpy's own loop; for some B the
            # sums then differ in the last bits.
            (_assert_rel_close if hidden == 1 else _assert_same_bits)(grads[name], g)


@settings(max_examples=60, deadline=None)
@given(
    B=st.sampled_from([1, 3, 129]),
    T=st.integers(1, 10),
    layers=st.integers(1, 3),
    source=st.sampled_from(["array", "dense", "rows"]),
    in_dim=st.integers(1, 6),
    hidden=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(B=3, T=10, layers=2, source="rows", in_dim=5, hidden=4, seed=0)  # 30 lag steps: rows of the hour table
@example(B=129, T=10, layers=2, source="rows", in_dim=5, hidden=4, seed=1)  # 1,290 lag steps: the whole table
def test_workspace_path_has_the_bits_of_allocating_path(B, T, layers, source, in_dim, hidden, seed):
    """A forward through a workspace, after a 512-row pass through the same
    workspace, gives every layer's hidden sequence, cells and gates, and
    `backward` and `backward_last` give the gradients, of the forward that
    allocates, bit for bit, over an array, a `DenseInput` and `ForecastRows`.
    The smaller pass runs in views of the 512-row pass's arrays. An input
    side's `project(W, out)` writes the bits of the projection that
    allocated its result, for `ForecastRows` on both sides of the 168-row
    hour-of-week table and with its lag term added all at once, in blocks
    of steps and step by step."""
    rng = np.random.default_rng(seed)
    if source == "rows":
        xs = random_forecast_rows(rng, in_dim, T, B, first_hour=-200)
        larger = random_forecast_rows(rng, in_dim, T, 512)
    else:
        xs = 2.0 * rng.normal(size=(B, T, in_dim))
        larger = rng.normal(size=(512, T, in_dim))
    given_xs = nn.DenseInput(xs) if source == "dense" else xs
    net = nn.StackedLstm(xs.shape[2], hidden, layers, rng)
    for layer in net.layers:
        layer.b += rng.normal(size=layer.b.shape)

    W = net.layers[0].W
    for given in (xs, larger):  # a full 512-row chunk adds its lag term step by step
        if source == "rows":
            inputs, width = given, given.index.context_width()
            projected = _allocating_lookup(rw._WEEK_FEATURES, given._week_slots().T, W[1 + width :])
            projected += _allocating_lookup(given.index.contexts, given.cols, W[1 : 1 + width])
            projected += given.lags.T[:, :, None] * W[0]
        else:
            inputs = nn.DenseInput(given)
            projected = (given.swapaxes(0, 1).reshape(T * len(given), -1) @ W).reshape(T, len(given), -1)
        out = np.full(projected.shape, np.nan)
        assert inputs.project(W, out) is out
        _assert_same_bits(out, projected)

    work = nn.Workspace()
    _, big = net.forward(larger, work)
    top, cache = net.forward(given_xs, work)
    want_top, want = net.forward(given_xs)
    _assert_same_bits(top, want_top)
    for got_layer, want_layer, big_layer in zip(cache["caches"], want["caches"], big["caches"]):
        for key in ("hs", "cs", "gates"):
            _assert_same_bits(got_layer[key], want_layer[key])
            assert np.shares_memory(got_layer[key], big_layer[key])
    dhs = rng.normal(size=(B, T, hidden))
    dh_last = rng.normal(size=(B, hidden))
    for run in (lambda c: net.backward(c, dhs), lambda c: net.backward_last(c, dh_last)):
        (dxs, grads), (want_dxs, want_grads) = run(cache), run(want)
        if source == "rows":
            assert dxs is None and want_dxs is None
        else:
            _assert_same_bits(dxs, want_dxs)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            _assert_same_bits(grads[name], g)


def test_live_caches_need_their_own_workspaces():
    """Two forwards through two workspaces, then their backwards in reverse
    order: each forward/backward pair gives the bits of the pair that
    allocates. Through one workspace, the second forward writes over the
    first one's cache."""
    rng = np.random.default_rng(5)
    net = nn.StackedLstm(3, 4, 2, rng)
    xs = [rng.normal(size=(7, 5, 3)), rng.normal(size=(4, 5, 3))]
    dhs = [rng.normal(size=(7, 5, 4)), rng.normal(size=(4, 5, 4))]
    wants = [net.backward(net.forward(x)[1], d) for x, d in zip(xs, dhs)]

    caches = [net.forward(x, nn.Workspace())[1] for x in xs]
    got = {i: net.backward(caches[i], dhs[i]) for i in (1, 0)}
    for i, (want_dxs, want_grads) in enumerate(wants):
        dxs, grads = got[i]
        _assert_same_bits(dxs, want_dxs)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            _assert_same_bits(grads[name], g)

    shared = nn.Workspace()
    _, cache = net.forward(xs[0], shared)
    net.forward(xs[1], shared)
    assert not np.array_equal(cache["caches"][-1]["hs"].swapaxes(0, 1), net.forward(xs[0])[0])


@settings(max_examples=40, deadline=None)
@given(
    bad=st.sampled_from(["width", "rank", "nan", "inf", "-inf"]),
    B=st.sampled_from([1, 3, 129]),
    T=st.integers(1, 10),
    layers=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_lstm_rejects_bad_input(bad, B, T, layers, seed):
    """A wrong width or rank raises ShapeError and a non-finite input
    DomainError."""
    rng = np.random.default_rng(seed)
    net = nn.StackedLstm(3, 4, layers, rng)
    xs = rng.normal(size=(B, T, 3))
    if bad == "width":
        xs = rng.normal(size=(B, T, 4))
    elif bad == "rank":
        xs = xs[0]
    else:
        xs[rng.integers(B), rng.integers(T), rng.integers(3)] = float(bad)
    with pytest.raises(ShapeError if bad in ("width", "rank") else DomainError):
        net.forward(xs)


@settings(max_examples=60, deadline=None)
@given(
    B=st.sampled_from([1, 3, 129]),
    T=st.integers(1, 10),
    layers=st.integers(1, 3),
    in_dim=st.integers(1, 6),
    hidden=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(B=3, T=10, layers=2, in_dim=5, hidden=8, seed=0)
def test_cache_free_pass_has_the_bits_of_forward(B, T, layers, in_dim, hidden, seed):
    """What an inference caller keeps of `forward`, its cache dropped, is
    the hidden sequence of the forward that keeps its cache, bit for bit:
    over an array or a `DenseInput`, stacked or layer by layer, and through
    `final_hidden`. A later pass does not write over an earlier output."""
    rng = np.random.default_rng(seed)
    net = nn.StackedLstm(in_dim, hidden, layers, rng)
    for layer in net.layers:
        layer.b += rng.normal(size=layer.b.shape)
    xs = 2.0 * rng.normal(size=(B, T, in_dim))
    want, cache = net.forward(xs)
    assert len(cache["caches"]) == layers
    kept = want.copy()
    for given_xs in (xs, nn.DenseInput(xs)):
        _assert_same_bits(net.forward(given_xs)[0], kept)
    _assert_same_bits(net.final_hidden(xs)[0], kept[:, -1])
    seq = xs
    for layer in net.layers:
        seq = layer.forward(seq)[0]
    _assert_same_bits(seq, kept)
    _assert_same_bits(want, kept)


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
    for head in ("softplus", "softmax"):
        with pytest.raises(DomainError):
            nn.Mlp([4, 3], rng, output_activation=head)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_sample_categorical_in_range(seed):
    rng = np.random.default_rng(seed)
    probs = nn.softmax(rng.normal(size=(6, 4)))
    idx = nn.sample_categorical(rng, probs)
    assert idx.shape == (6,)
    assert np.all((idx >= 0) & (idx < 4))
