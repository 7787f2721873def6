"""Non-negative matrix factorization baseline with KL multiplicative updates.

Training factorizes a matrix whose columns are flattened class-spectrogram
windows, once per class, keeping only the dictionaries. Separation
(`NmfModel.predictor`) stacks the dictionaries once, freezes them and fits
each block's activations to its mixture windows (`infer_activations`); each
element's vocal share of the per-class reconstructions (`vocal_share`),
averaged over the windows covering it, is its confidence.

Each fit is one loop of update steps through one reused buffer; a step ends
by forming the floored product that the next step divides by, and a scored
step reads the divergence off it. `nmf_factorize` and `infer_activations`
score every step by default; training and separation skip it (trace None).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model_file import NMF, FrontEnd, write_model
from .patching import PatchSet

KL_EPS = 1e-12


@dataclass
class NmfModel:
    w_vocal: np.ndarray        # (window elements, r_v)
    w_nonvocal: np.ndarray     # (window elements, r_nv)
    front_end: FrontEnd

    def __post_init__(self):
        self.w_vocal = np.asarray(self.w_vocal, dtype=np.float64)
        self.w_nonvocal = np.asarray(self.w_nonvocal, dtype=np.float64)
        d = self.front_end.window_size
        for name, W in (("vocal", self.w_vocal), ("non-vocal", self.w_nonvocal)):
            if W.ndim != 2 or W.shape[0] != d:
                raise ValueError(f"{name} dictionary must be ({d}, r), got {W.shape}")
            if W.shape[1] == 0:
                raise ValueError(f"{name} dictionary has no columns")
            if not np.all(np.isfinite(W)):
                raise ValueError(f"{name} dictionary has non-finite entries")
            if W.min(initial=0.0) < 0.0:
                raise ValueError(f"{name} dictionary has negative entries")
            if np.any(W.sum(axis=0) == 0.0):
                raise ValueError(f"{name} dictionary has an all-zero column")

    @property
    def rank_vocal(self) -> int:
        return self.w_vocal.shape[1]

    @property
    def rank_nonvocal(self) -> int:
        return self.w_nonvocal.shape[1]

    def predictor(self, n_windows: int, iterations: int, seed: int):
        """Block predictor for one mixture's `n_windows` windows: each window's
        vocal share. Each block's activations start from its columns of one
        draw for all windows from `seed`, drawn for that block alone, so the
        columns of a block's fit equal the whole-mixture fit's up to rounding
        (the H update is column-separable for a fixed W)."""
        W, r_v = np.concatenate([self.w_vocal, self.w_nonvocal], axis=1), self.rank_vocal

        def predict(windows: PatchSet, first: int) -> PatchSet:
            H0 = initial_activations(W.shape[1], n_windows, seed, first, windows.n_patches)
            H, _ = infer_activations(windows.rows.T, W, iterations, H0=H0, trace=False)
            share = vocal_share(self.w_vocal @ H[:r_v], self.w_nonvocal @ H[r_v:])
            return windows.predictions(share.T)
        return predict


def vocal_share(v: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """Elementwise v / (v + nv) for non-negative arrays; 0/0 becomes 0.5."""
    total = v + nv
    return np.divide(v, total, out=np.full(total.shape, 0.5), where=total > 0.0)


@dataclass
class Factorization:
    W: np.ndarray
    H: np.ndarray
    trace: np.ndarray | None   # KL(V || max(W @ H, KL_EPS)) per iteration; None if unscored


def kl_divergence(V: np.ndarray, V_hat: np.ndarray) -> float:
    """Generalized KL: sum(V*log(V/V_hat) - V + V_hat), 0*log0 = 0."""
    V = np.asarray(V, dtype=np.float64)
    V_hat = np.asarray(V_hat, dtype=np.float64)
    if V.shape != V_hat.shape:
        raise ValueError("shapes differ")
    if V.min(initial=0.0) < 0.0 or V_hat.min(initial=0.0) < 0.0:
        raise ValueError("divergence needs non-negative matrices")
    return _kl_floored(V, np.maximum(V_hat, KL_EPS), _kl_constant(V))


def _kl_constant(V):
    """The V-only part of the divergence, sum(V*log V - V). The floor is the
    smallest positive double, so it moves no positive entry and a zero entry
    adds 0 * log(floor) = 0."""
    return float(np.vdot(V, np.log(np.maximum(V, np.nextafter(0.0, 1.0)))) - np.sum(V))


def _kl_floored(V, V_hat, c_V):
    """Divergence as c_V - <V, log V_hat> + sum(V_hat), V_hat floored at eps."""
    return c_V - float(np.vdot(V, np.log(V_hat))) + float(np.sum(V_hat))


def _fit(V, W, H, iterations, update_w, score):
    """`iterations` steps on H (and on W, if update_w) in place; returns the
    divergence trace, or None unless `score`. Each step updates H, then W,
    forms the next step's floored product (the last unscored step has none),
    scores the divergence from it if `score`, else checks H and W finite."""
    buf = np.empty(V.shape)
    np.maximum(np.matmul(W, H, out=buf), KL_EPS, out=buf)
    trace = np.empty(iterations) if score else None
    c_V = _kl_constant(V) if score else 0.0
    for k in range(iterations):
        if update_w or k == 0:   # W's column sums, formed once while W stays fixed
            w_sums = np.maximum(W.sum(axis=0)[:, None], KL_EPS)
        H *= (W.T @ np.divide(V, buf, out=buf)) / w_sums
        if update_w:
            np.maximum(np.matmul(W, H, out=buf), KL_EPS, out=buf)
            W *= (np.divide(V, buf, out=buf) @ H.T) / np.maximum(H.sum(axis=1)[None, :], KL_EPS)
        if score or k + 1 < iterations:
            np.maximum(np.matmul(W, H, out=buf), KL_EPS, out=buf)
        if score:
            trace[k] = _kl_floored(V, buf, c_V)
            finite = np.isfinite(trace[k])
        else:
            finite = np.isfinite(H).all() and (not update_w or np.isfinite(W).all())
        if not finite:
            raise FloatingPointError(f"divergence became non-finite at iteration {k}")
    return trace


def _checked_v(V, iterations):
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("V must be a matrix")
    if V.min(initial=0.0) < 0.0:
        raise ValueError("V must be non-negative")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    return V


def nmf_factorize(V: np.ndarray, r: int, iterations: int = 200,
                  seed: int = 0, *, trace: bool = True) -> Factorization:
    """Alternating multiplicative updates from a seeded uniform(0,1] start;
    the divergence is scored after each iteration only if `trace`."""
    V = _checked_v(V, iterations)
    if r < 1:
        raise ValueError("rank must be >= 1")
    rng = np.random.default_rng(seed)
    W = 1.0 - rng.random((V.shape[0], r))
    H = 1.0 - rng.random((r, V.shape[1]))
    return Factorization(W, H, _fit(V, W, H, iterations, update_w=True, score=trace))


def initial_activations(rank: int, n_columns: int, seed: int, first: int = 0,
                        count: int | None = None) -> np.ndarray:
    """Columns first..first+count-1 (all by default) of a seeded uniform(0,1]
    start for the activations of `n_columns` windows. Row k of the draw holds
    the seeded stream's values k*n_columns onwards, so a block of columns is
    drawn without the rest, bit for bit as the whole draw has it."""
    count = n_columns - first if count is None else count
    bits = np.random.PCG64(seed)
    draws = np.random.Generator(bits)
    bits.advance(first)
    H = np.empty((rank, count))
    for k in range(rank):
        H[k] = 1.0 - draws.random(count)
        bits.advance(n_columns - count)
    return H


def infer_activations(V: np.ndarray, W: np.ndarray, iterations: int = 200,
                      seed: int = 0, H0: np.ndarray | None = None, *,
                      trace: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Fit H for fixed W from H0, or from a start drawn from `seed`;
    returns (H, divergence trace), the trace None unless `trace`."""
    V = _checked_v(V, iterations)
    W = np.asarray(W, dtype=np.float64)
    if V.shape[0] != W.shape[0]:
        raise ValueError(f"V rows {V.shape[0]} != dictionary rows {W.shape[0]}")
    if H0 is None:
        H = initial_activations(W.shape[1], V.shape[1], seed)
    else:
        H = np.array(H0, dtype=np.float64)   # a copy: the caller's start is kept
    return H, _fit(V, W, H, iterations, update_w=False, score=trace)


def nmf_train_class(V_class: np.ndarray, r: int, iterations: int = 200,
                    seed: int = 0) -> np.ndarray:
    """Dictionary for one class, columns rescaled to unit sum."""
    V_class = np.asarray(V_class, dtype=np.float64)
    if V_class.ndim != 2 or V_class.shape[1] == 0:
        raise ValueError("class patch matrix is empty")
    fac = nmf_factorize(V_class, r, iterations, seed, trace=False)
    sums = fac.W.sum(axis=0)
    if np.any(sums == 0.0):
        raise FloatingPointError("training produced an all-zero dictionary column")
    return fac.W / sums[None, :]


# model file (model_file.py): dims are the two ranks, and the arrays the two
# dictionaries transposed, so that they read back in column order

def save_nmf(model: NmfModel, path: str | Path) -> None:
    write_model(path, NMF, model.front_end, [model.rank_vocal, model.rank_nonvocal],
                [model.w_vocal.T, model.w_nonvocal.T])


def from_file(front_end: FrontEnd, ranks: list[int], arrays: list[np.ndarray]) -> NmfModel:
    return NmfModel(arrays[0].T, arrays[1].T, front_end)
