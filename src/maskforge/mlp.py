"""Feed-forward sigmoid network trained with per-example gradient descent.

Every layer computes sigmoid(Wx + b); the output layer's bias is pinned at
zero. The network maps a flattened mixture-magnitude window to a same-sized
vector of per-element vocal probabilities. Training is plain SGD, one update
per example, one seeded shuffle per epoch; the weight updates are applied in
blocks of examples, which changes only the rounding. The forward pass keeps
each layer's product whole, as a product split by rows rounds differently, and
runs the bias and sigmoid a cache-sized chunk of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model_file import DNN, FrontEnd, write_model
from .patching import PatchSet

LOSS_CROSS_ENTROPY = "cross_entropy"
LOSS_MSE = "mse"
_LOSSES = (LOSS_CROSS_ENTROPY, LOSS_MSE)


def sigmoid_stable(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, safe against overflow for any finite input; `out`,
    which may be `z` itself, receives the result."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)                    # exp(-z) where z >= 0, exp(z) elsewhere
    out = np.maximum(e, z >= 0, out=out)  # 1 where z >= 0 (e <= 1), e elsewhere; NaN stays
    e += 1.0
    out /= e
    return out


def softplus_stable(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow; used for cross-entropy from logits."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]       # weights[l]: (sizes[l+1], sizes[l])
    biases: list[np.ndarray]        # biases[l]: (sizes[l+1],); last stays zero
    front_end: FrontEnd | None = None   # None: a bare network, which no file holds

    def __post_init__(self):
        sizes = [int(s) for s in self.layer_sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer transition")
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (sizes[l + 1], sizes[l]):
                raise ValueError(
                    f"layer {l}: weight shape {W.shape} != ({sizes[l + 1]}, {sizes[l]})"
                )
            if b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l}: bias shape {b.shape}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: non-finite parameters")
        fe = self.front_end
        if fe is not None and not sizes[0] == sizes[-1] == fe.window_size:
            raise ValueError(f"a network of {sizes[0]} inputs and {sizes[-1]} outputs does "
                             f"not fit the front end's {fe.window_size}-element windows")
        self.layer_sizes = sizes

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    def predictor(self, n_windows: int, iterations: int, seed: int):
        """Block predictor for one mixture's windows: each window's predicted
        vocal probabilities. The forward pass is deterministic and rows are
        independent, so the arguments are unused."""
        return lambda windows, first: predict_masks(self, windows)

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_sizes),
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
            self.front_end,
        )


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float
    loss: str = LOSS_CROSS_ENTROPY
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {sorted(_LOSSES)}")


def init_model(layer_sizes: list[int], seed: int = 0,
               front_end: FrontEnd | None = None) -> MlpModel:
    """Uniform(-a, a) weights with a = sqrt(6/(fan_in+fan_out)), zero biases."""
    sizes = [int(s) for s in layer_sizes]
    if any(s < 1 for s in sizes):       # MlpModel checks the rest, but after the draw
        raise ValueError("layer sizes must be positive")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases, front_end)


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Row-per-example forward pass: one whole matmul per layer, then the bias
    and sigmoid in place, _CHUNK elements' worth of rows at a time. Overflow
    gives NaN, which `PatchSet.predictions` refuses."""
    A = np.ascontiguousarray(X, dtype=np.float64)   # matmul needs plain rows for BLAS
    if A.ndim != 2 or A.shape[1] != model.input_size:
        raise ValueError(f"expected (n, {model.input_size}) inputs, got {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        for W, b in zip(model.weights, model.biases):
            A = A @ W.T
            rows = max(1, _CHUNK // A.shape[1])
            for z in np.split(A, range(rows, A.shape[0], rows)):
                z += b
                sigmoid_stable(z, out=z)
    return A


def _loss_and_delta(z_out: np.ndarray, p: np.ndarray, y: np.ndarray,
                    loss: str) -> tuple[float, np.ndarray]:
    """Per-example loss, summed over output units, and the output-layer delta."""
    if loss == LOSS_CROSS_ENTROPY:
        return float(np.sum(softplus_stable(z_out) - y * z_out)), p - y
    return float(0.5 * np.sum((p - y) ** 2)), (p - y) * p * (1.0 - p)


# Examples per SGD block; a block's weight updates are applied as one product
# per layer.
_BLOCK = 32
# Elements per chunk of forward_batch's bias and sigmoid: 256 kB of float64,
# so the sigmoid's passes over a chunk stay in cache.
_CHUNK = 1 << 15


class _Pending:
    """The SGD steps of one block whose weight updates are not yet applied.

    After steps 0..i-1, layer l's weights are W_l - G[l][:i].T @ A[l][:i].
    """

    def __init__(self, weights: list[np.ndarray], X_blk: np.ndarray):
        m = X_blk.shape[0]
        # G[l][j]: learning rate times layer l's delta at step j
        self.G = [np.empty((m, W.shape[0])) for W in weights]
        # A[l][j]: layer l's input at step j; A[0] is the block's inputs
        self.A = [X_blk] + [np.empty((m, W.shape[1])) for W in weights[1:]]
        self.Z0 = X_blk @ weights[0].T      # layer 0 under the block's starting weights
        self.gram = X_blk @ X_blk.T


def _step(weights: list[np.ndarray], biases: list[np.ndarray], p: _Pending, i: int,
          y: np.ndarray, lr: float, loss: str) -> tuple[float, list[np.ndarray]]:
    """Backpropagate the block's example i through the weights as updated by
    the block's steps 0..i-1, and record it as step i of `p`.

    Returns the example's loss and every layer's pre-activation. Layer 0 takes
    its earlier steps' correction through the block's input Gram matrix.
    """
    G, A = p.G, p.A
    z = p.Z0[i] - G[0][:i].T @ p.gram[:i, i] + biases[0]
    zs = [z]
    for l in range(1, len(weights)):
        a = A[l][i] = sigmoid_stable(z)
        z = weights[l] @ a - G[l][:i].T @ (A[l][:i] @ a) + biases[l]
        zs.append(z)
    value, delta = _loss_and_delta(z, sigmoid_stable(z), y, loss)
    for l in range(len(weights) - 1, 0, -1):
        a = A[l][i]
        back = weights[l].T @ delta - A[l][:i].T @ (G[l][:i] @ delta)
        G[l][i] = lr * delta
        delta = back * a * (1.0 - a)
    G[0][i] = lr * delta
    return value, zs


def loss_and_gradient(model: MlpModel, x: np.ndarray, y: np.ndarray,
                      loss: str = LOSS_CROSS_ENTROPY):
    """Backpropagated gradients; returns (loss, [(dW, db) per layer]).

    The output layer's bias gradient is reported as zero to match the frozen
    parameter.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_size,):
        raise ValueError(f"input length {x.shape} != ({model.input_size},)")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (model.output_size,):
        raise ValueError(f"target length {y.shape} != ({model.output_size},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be binary")
    if loss not in _LOSSES:
        raise ValueError(f"loss must be one of {sorted(_LOSSES)}")
    p = _Pending(model.weights, x[None, :])
    value, zs = _step(model.weights, model.biases, p, 0, y, 1.0, loss)
    if not all(np.all(np.isfinite(z)) for z in zs):
        raise FloatingPointError("non-finite pre-activation")
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for l, (G, A) in enumerate(zip(p.G, p.A)):
        delta = G[0]  # recorded at a learning rate of 1
        db = delta.copy() if l < model.n_layers - 1 else np.zeros_like(delta)
        grads.append((np.outer(delta, A[0]), db))
    return value, grads


def sgd_epoch(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray,
              Y: np.ndarray, order: np.ndarray, lr: float, loss: str) -> float:
    """One sweep of per-example SGD in visit order; updates weights/biases in place.

    Weight updates are applied once per block of _BLOCK examples, as one
    product; within a block each step sees the earlier steps' updates through
    a low-rank correction. This is per-example SGD up to rounding. Biases are
    updated after every example; the output layer's is not updated. Returns
    the mean per-example loss measured at visit time, or the running sum as
    soon as it is not finite.
    """
    total = 0.0
    for start in range(0, order.shape[0], _BLOCK):
        rows = order[start:start + _BLOCK]
        p = _Pending(weights, X[rows])
        for i, r in enumerate(rows):
            value, _ = _step(weights, biases, p, i, Y[r], lr, loss)
            total += value
            if not math.isfinite(total):
                return total
            for b, G in zip(biases[:-1], p.G):
                b -= G[i]
        for W, G, A in zip(weights, p.G, p.A):
            W -= G.T @ A
    return total / order.shape[0]


def train_sgd(model: MlpModel, inputs: np.ndarray, targets: np.ndarray,
              cfg: TrainConfig) -> tuple[MlpModel, np.ndarray]:
    """Per-example SGD over shuffled sweeps; returns (trained copy, loss trace)."""
    X = np.ascontiguousarray(inputs, dtype=np.float64)
    Y = np.ascontiguousarray(targets, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("inputs/targets must be matching (n, d) matrices")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    if X.shape[1] != model.input_size or Y.shape[1] != model.output_size:
        raise ValueError(
            f"example shapes {X.shape[1]}/{Y.shape[1]} do not match model "
            f"{model.input_size}/{model.output_size}"
        )
    trained = model.copy()
    rng = np.random.default_rng(cfg.shuffle_seed)
    trace = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(X.shape[0]).astype(np.int64)
        # a diverging run overflows on its way to the non-finite loss checked next
        with np.errstate(over="ignore", invalid="ignore"):
            mean_loss = sgd_epoch(trained.weights, trained.biases, X, Y, order,
                                  cfg.learning_rate, cfg.loss)
        if not np.isfinite(mean_loss):
            raise FloatingPointError(
                f"training diverged: non-finite loss at epoch {epoch}"
            )
        trace[epoch] = mean_loss
    return trained, trace


def predict_masks(model: MlpModel, patches: PatchSet) -> PatchSet:
    """Forward every window's row into the windows' prediction set."""
    F, T = patches.patch_shape
    if F * T != model.input_size:
        raise ValueError(f"patch size {F}x{T} does not match model input {model.input_size}")
    return patches.predictions(forward_batch(model, patches.rows))


# model file (model_file.py): dims are the layer sizes, and the arrays each
# layer's weights, then its biases

def save_model(model: MlpModel, path: str | Path) -> None:
    write_model(path, DNN, model.front_end, model.layer_sizes,
                [a for layer in zip(model.weights, model.biases) for a in layer])


def from_file(front_end: FrontEnd, sizes: list[int], arrays: list[np.ndarray]) -> MlpModel:
    return MlpModel(sizes, arrays[0::2], arrays[1::2], front_end)
