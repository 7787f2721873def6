"""Stable helpers, init, forward pass, backprop, SGD training, model files."""

import numpy as np
import pytest

from maskforge.mlp import (
    _BLOCK,
    LOSS_CROSS_ENTROPY,
    LOSS_MSE,
    MlpModel,
    TrainConfig,
    forward_batch,
    init_model,
    load_model,
    loss_and_gradient,
    predict_masks,
    save_model,
    sgd_epoch,
    sigmoid_stable,
    softplus_stable,
    train_sgd,
)
from maskforge.patching import KIND_PREDICTION, PatchConfig, extract_patches


def _zero_model(sizes):
    return MlpModel(
        list(sizes),
        [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [np.zeros(o) for o in sizes[1:]],
    )


# ---------------------------------------------------------------------------
# stable helpers
# ---------------------------------------------------------------------------

def test_sigmoid_matches_naive_in_safe_range(rng):
    z = rng.uniform(-30, 30, size=200)
    naive = 1.0 / (1.0 + np.exp(-z))
    assert np.allclose(sigmoid_stable(z), naive, rtol=1e-15, atol=0)


def test_sigmoid_extremes_do_not_overflow():
    z = np.array([-1e308, -1e4, 0.0, 1e4, 1e308])
    out = sigmoid_stable(z)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5


def _sigmoid_with_where(z):
    """The earlier form of sigmoid_stable, a reference for the select by maximum."""
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def test_sigmoid_equals_where_form_bit_for_bit(rng):
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                        1e-310, -1e-310, 745.2, -745.2, 1e308, -1e308])
    z = np.concatenate([special, rng.standard_normal(20000) * 30, rng.uniform(-1, 1, 5000)])
    got, expect = sigmoid_stable(z), _sigmoid_with_where(z)
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_forward_batch_equals_out_of_place_bias(rng):
    model = init_model([12, 7, 12], seed=3)
    for b in model.biases[:-1]:
        b[:] = rng.standard_normal(b.shape)
    X = rng.uniform(0, 1, (9, 12))
    A = X
    for W, b in zip(model.weights, model.biases):
        A = _sigmoid_with_where(A @ W.T + b)
    assert np.array_equal(forward_batch(model, X), A)


def test_softplus_matches_naive_in_safe_range(rng):
    z = rng.uniform(-30, 30, size=200)
    naive = np.log1p(np.exp(z))
    assert np.allclose(softplus_stable(z), naive, rtol=1e-12, atol=1e-15)


def test_softplus_extremes():
    z = np.array([-1e308, 0.0, 1e308])
    out = softplus_stable(z)
    assert out[0] == 0.0
    assert abs(out[1] - np.log(2.0)) < 1e-15
    assert out[2] == 1e308


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_shapes_and_bounds():
    model = init_model([4, 4, 4], seed=3)
    assert [W.shape for W in model.weights] == [(4, 4), (4, 4)]
    assert [b.shape for b in model.biases] == [(4,), (4,)]
    a = np.sqrt(6.0 / 8.0)
    for W in model.weights:
        assert np.max(np.abs(W)) < a
    for b in model.biases:
        assert not np.any(b)


def test_init_deterministic():
    m1 = init_model([6, 5, 6], seed=42)
    m2 = init_model([6, 5, 6], seed=42)
    for W1, W2 in zip(m1.weights, m2.weights):
        assert np.array_equal(W1, W2)
    m3 = init_model([6, 5, 6], seed=43)
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_model([4])
    with pytest.raises(ValueError):
        init_model([4, 0, 4])


def test_model_validation():
    with pytest.raises(ValueError, match="weight shape"):
        MlpModel([2, 3], [np.zeros((2, 2))], [np.zeros(3)])
    with pytest.raises(ValueError, match="non-finite"):
        MlpModel([2, 2], [np.full((2, 2), np.inf)], [np.zeros(2)])


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_zero_parameters_give_half():
    model = _zero_model([3, 4, 3])
    out = forward_batch(model, np.array([[0.2, -0.7, 1.0]]))[0]
    assert np.array_equal(out, np.full(3, 0.5))


def test_large_preactivation_saturates():
    model = MlpModel([1, 1], [np.array([[40.0]])], [np.zeros(1)])
    out = forward_batch(model, np.array([[1.0]]))[0]
    assert abs(out[0] - 1.0) < 1e-12
    out = forward_batch(model, np.array([[-1.0]]))[0]
    assert abs(out[0]) < 1e-12


def test_outputs_stay_in_unit_interval_for_huge_inputs():
    model = init_model([4, 8, 4], seed=0)
    for scale in (1.0, 1e3, 1e6, -1e6):
        out = forward_batch(model, np.full((1, 4), scale))[0]
        assert np.all(np.isfinite(out))
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_forward_batch_matches_single(rng):
    model = init_model([5, 7, 5], seed=9)
    X = rng.standard_normal((11, 5))
    batch = forward_batch(model, X)
    for i in range(11):
        single = forward_batch(model, X[i:i + 1])[0]
        assert np.allclose(batch[i], single, rtol=1e-12, atol=0)


def test_forward_input_length_checked():
    model = init_model([3, 3], seed=0)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros(3))  # one row must still be a matrix
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def test_single_unit_cross_entropy_gradient():
    # sigmoid(0) = 0.5 and y = 1 make dL/dw = (p - y) * x = -0.5
    model = MlpModel([1, 1], [np.array([[0.0]])], [np.zeros(1)])
    value, grads = loss_and_gradient(model, np.array([1.0]), np.array([1.0]))
    assert abs(value - np.log(2.0)) < 1e-15
    assert grads[0][0][0, 0] == -0.5
    assert not np.any(grads[0][1])  # output bias frozen


def test_cross_entropy_matches_direct_formula(rng):
    model = init_model([4, 6, 4], seed=5)
    x = rng.standard_normal(4)
    y = (rng.uniform(size=4) > 0.5).astype(np.float64)
    value, _ = loss_and_gradient(model, x, y, loss=LOSS_CROSS_ENTROPY)
    p = forward_batch(model, x[None])[0]
    direct = -np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    assert abs(value - direct) < 1e-12


def test_mse_matches_direct_formula(rng):
    model = init_model([4, 6, 4], seed=5)
    x = rng.standard_normal(4)
    y = (rng.uniform(size=4) > 0.5).astype(np.float64)
    value, _ = loss_and_gradient(model, x, y, loss=LOSS_MSE)
    p = forward_batch(model, x[None])[0]
    assert abs(value - 0.5 * np.sum((p - y) ** 2)) < 1e-15


def test_gradient_matches_finite_differences(rng):
    # central differences on every free parameter, both losses
    eps = 1e-5
    for loss in (LOSS_CROSS_ENTROPY, LOSS_MSE):
        model = init_model([4, 3, 4], seed=11)
        x = rng.standard_normal(4)
        y = (rng.uniform(size=4) > 0.5).astype(np.float64)
        _, grads = loss_and_gradient(model, x, y, loss=loss)

        def loss_at(m):
            v, _ = loss_and_gradient(m, x, y, loss=loss)
            return v

        for l in range(model.n_layers):
            W = model.weights[l]
            for idx in np.ndindex(W.shape):
                probe = model.copy()
                probe.weights[l][idx] += eps
                up = loss_at(probe)
                probe.weights[l][idx] -= 2 * eps
                down = loss_at(probe)
                fd = (up - down) / (2 * eps)
                an = grads[l][0][idx]
                assert abs(an - fd) / max(abs(an), abs(fd), 1e-8) < 1e-4
            if l < model.n_layers - 1:  # output bias is frozen, skip it
                for j in range(model.biases[l].size):
                    probe = model.copy()
                    probe.biases[l][j] += eps
                    up = loss_at(probe)
                    probe.biases[l][j] -= 2 * eps
                    down = loss_at(probe)
                    fd = (up - down) / (2 * eps)
                    an = grads[l][1][j]
                    assert abs(an - fd) / max(abs(an), abs(fd), 1e-8) < 1e-4


def test_targets_must_be_binary():
    model = init_model([2, 2], seed=0)
    with pytest.raises(ValueError, match="binary"):
        loss_and_gradient(model, np.zeros(2), np.array([0.5, 0.0]))


def test_unknown_loss_rejected():
    model = init_model([2, 2], seed=0)
    with pytest.raises(ValueError, match="loss"):
        loss_and_gradient(model, np.zeros(2), np.zeros(2), loss="hinge")
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _run_sgd(seed, lr=0.1, loss=LOSS_CROSS_ENTROPY, epochs=3):
    rng = np.random.default_rng(seed)
    sizes = [5, 4, 5]
    Ws = [rng.uniform(-0.5, 0.5, size=(o, i))
          for i, o in zip(sizes[:-1], sizes[1:])]
    bs = [np.zeros(o) for o in sizes[1:]]
    X = rng.uniform(size=(12, 5))
    Y = (rng.uniform(size=(12, 5)) > 0.5).astype(np.float64)
    losses = []
    order_rng = np.random.default_rng(99)
    for _ in range(epochs):
        order = order_rng.permutation(12).astype(np.int64)
        losses.append(sgd_epoch(Ws, bs, X, Y, order, lr, loss))
    return Ws, bs, losses


def test_sgd_epoch_learns():
    _, _, losses = _run_sgd(seed=1, epochs=30, lr=0.5)
    assert losses[-1] < losses[0]


def test_sgd_epoch_keeps_output_bias_zero():
    _, bs, _ = _run_sgd(seed=2)
    assert not np.any(bs[-1])
    assert np.any(bs[0])  # hidden bias does move


def test_sgd_epoch_mse_loss():
    _, _, losses = _run_sgd(seed=3, loss=LOSS_MSE, epochs=30, lr=1.0)
    assert losses[-1] < losses[0]


def _reference_epoch(weights, biases, X, Y, order, lr, loss):
    """Per-example SGD that writes each update to the weights at once: the
    epoch that sgd_epoch reproduces up to rounding."""
    last = len(weights) - 1
    total = 0.0
    for i in order:
        acts = [X[i]]
        for W, b in zip(weights, biases):
            z = W @ acts[-1] + b
            acts.append(sigmoid_stable(z))
        p, y = acts[-1], Y[i]
        if loss == LOSS_CROSS_ENTROPY:
            total += np.sum(softplus_stable(z) - y * z)
            delta = p - y
        else:
            total += 0.5 * np.sum((p - y) ** 2)
            delta = (p - y) * p * (1.0 - p)
        for l in range(last, -1, -1):
            g = lr * delta
            a_prev = acts[l]
            delta = (weights[l].T @ delta) * a_prev * (1.0 - a_prev)
            weights[l] -= np.outer(g, a_prev)
            if l < last:
                biases[l] -= g
    return total / order.shape[0]


@pytest.mark.parametrize("loss", [LOSS_CROSS_ENTROPY, LOSS_MSE])
@pytest.mark.parametrize("sizes", [[6, 5], [6, 7, 5], [6, 7, 4, 5]])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
def test_sgd_epoch_matches_per_example_updates(sizes, loss, n):
    # same SGD as writing every update at once; only the rounding may differ,
    # so the tolerance is a few dozen ulps of the total weight change
    rng = np.random.default_rng(n)
    Ws = [rng.uniform(-0.5, 0.5, size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    bs = [rng.uniform(-0.1, 0.1, size=o) for o in sizes[1:]]
    bs[-1][:] = 0.0
    X = rng.uniform(size=(n, sizes[0]))
    Y = (rng.uniform(size=(n, sizes[-1])) > 0.5).astype(np.float64)
    ref_W, ref_b = [W.copy() for W in Ws], [b.copy() for b in bs]
    got_W, got_b = [W.copy() for W in Ws], [b.copy() for b in bs]
    for _ in range(2):
        order = rng.permutation(n).astype(np.int64)
        expect = _reference_epoch(ref_W, ref_b, X, Y, order, 0.5, loss)
        got = sgd_epoch(got_W, got_b, X, Y, order, 0.5, loss)
        assert abs(got - expect) <= 64 * np.finfo(float).eps * abs(expect)
    eps = np.finfo(float).eps
    step = max(np.max(np.abs(R - W)) for R, W in zip(ref_W, Ws))
    assert step > 0.0
    for R, G in zip(ref_W + ref_b, got_W + got_b):
        assert np.max(np.abs(G - R)) <= 64 * eps * step
    assert not np.any(got_b[-1])


def test_single_example_sgd_step_oracle(rng):
    model = init_model([3, 4, 3], seed=2)
    x = rng.standard_normal((1, 3))
    y = np.array([[1.0, 0.0, 1.0]])
    lr = 0.1
    value, grads = loss_and_gradient(model, x[0], y[0])
    trained, trace = train_sgd(model, x, y, TrainConfig(epochs=1, learning_rate=lr))
    assert abs(trace[0] - value) < 1e-12
    for l in range(model.n_layers):
        expect_W = model.weights[l] - lr * grads[l][0]
        expect_b = model.biases[l] - lr * grads[l][1]
        assert np.allclose(trained.weights[l], expect_W, rtol=1e-12, atol=1e-15)
        assert np.allclose(trained.biases[l], expect_b, rtol=1e-12, atol=1e-15)
    # output bias stays pinned at zero
    assert not np.any(trained.biases[-1])


def test_zero_learning_rate_changes_nothing(rng):
    model = init_model([4, 5, 4], seed=6)
    X = rng.uniform(size=(8, 4))
    Y = (rng.uniform(size=(8, 4)) > 0.5).astype(np.float64)
    trained, trace = train_sgd(model, X, Y, TrainConfig(epochs=5, learning_rate=0.0))
    for l in range(model.n_layers):
        assert np.array_equal(trained.weights[l], model.weights[l])
        assert np.array_equal(trained.biases[l], model.biases[l])
    # each epoch's shuffle reorders the loss summation, so the trace is flat
    # only to within last-bit rounding
    assert np.allclose(trace, trace[0], rtol=1e-12, atol=0)


def test_training_is_deterministic(rng):
    X = rng.uniform(size=(10, 8))
    Y = (rng.uniform(size=(10, 8)) > 0.5).astype(np.float64)
    cfg = TrainConfig(epochs=3, learning_rate=0.1, shuffle_seed=4)
    m1, t1 = train_sgd(init_model([8, 6, 8], seed=1), X, Y, cfg)
    m2, t2 = train_sgd(init_model([8, 6, 8], seed=1), X, Y, cfg)
    assert np.array_equal(t1, t2)
    for W1, W2 in zip(m1.weights, m2.weights):
        assert np.array_equal(W1, W2)


def test_training_leaves_input_model_untouched(rng):
    model = init_model([3, 3], seed=0)
    before = [W.copy() for W in model.weights]
    X = rng.uniform(size=(4, 3))
    Y = np.zeros((4, 3))
    train_sgd(model, X, Y, TrainConfig(epochs=2, learning_rate=0.5))
    for W, W0 in zip(model.weights, before):
        assert np.array_equal(W, W0)


def test_overfits_small_set_cross_entropy(rng):
    X = rng.uniform(size=(10, 8))
    Y = (rng.uniform(size=(10, 8)) > 0.5).astype(np.float64)
    cfg = TrainConfig(epochs=200, learning_rate=0.5, loss=LOSS_CROSS_ENTROPY)
    _, trace = train_sgd(init_model([8, 16, 8], seed=0), X, Y, cfg)
    assert trace[-1] < 0.01 * trace[0]


def test_overfits_small_set_mse(rng):
    X = rng.uniform(size=(10, 8))
    Y = (rng.uniform(size=(10, 8)) > 0.5).astype(np.float64)
    cfg = TrainConfig(epochs=200, learning_rate=1.0, loss=LOSS_MSE)
    _, trace = train_sgd(init_model([8, 16, 8], seed=0), X, Y, cfg)
    assert trace[-1] < 0.05 * trace[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_divergence_raises():
    model = MlpModel([2, 2], [np.full((2, 2), 1e308)], [np.zeros(2)])
    X = np.full((3, 2), 10.0)
    Y = np.zeros((3, 2))
    with pytest.raises(FloatingPointError, match="diverged"):
        train_sgd(model, X, Y, TrainConfig(epochs=1, learning_rate=0.1))


def test_train_shape_validation(rng):
    model = init_model([3, 3], seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_sgd(model, np.zeros((0, 3)), np.zeros((0, 3)), TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="do not match model"):
        train_sgd(model, np.zeros((2, 4)), np.zeros((2, 4)), TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# patch prediction
# ---------------------------------------------------------------------------

def test_predict_masks_round_trips_patch_geometry(rng):
    grid = rng.uniform(0, 1, size=(4, 12))
    patches = extract_patches(grid, PatchConfig(width=3), stride=1)
    model = init_model([12, 6, 12], seed=8)
    preds = predict_masks(model, patches)
    assert preds.kind == KIND_PREDICTION
    assert preds.patch_shape == (4, 3)
    assert preds.total_frames == 12
    assert np.array_equal(preds.offsets, patches.offsets)
    rows = forward_batch(model, patches.rows)
    assert np.allclose(preds.rows, rows, rtol=0, atol=1e-15)


def test_predict_masks_dimension_mismatch(rng):
    patches = extract_patches(rng.uniform(0, 1, (4, 8)), PatchConfig(width=2), stride=2)
    model = init_model([9, 9], seed=0)
    with pytest.raises(ValueError, match="does not match model input"):
        predict_masks(model, patches)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    model = init_model([5, 7, 5], seed=123)
    path = tmp_path / "m.mlp"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    assert back.seed == 123
    for W1, W2 in zip(model.weights, back.weights):
        assert np.array_equal(W1, W2)
    for b1, b2 in zip(model.biases, back.biases):
        assert np.array_equal(b1, b2)


def test_model_file_errors(tmp_path):
    model = init_model([3, 3], seed=0)
    path = tmp_path / "m.mlp"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)
    path.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated header"):
        load_model(path)
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload size mismatch"):
        load_model(path)
