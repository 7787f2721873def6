"""KL divergence, multiplicative updates, dictionaries, and the confidence grid."""

import struct

import numpy as np
import pytest
from scipy.special import xlogy

from maskforge.nmf import (
    KL_EPS,
    MAGIC,
    NmfModel,
    infer_activations,
    initial_activations,
    kl_divergence,
    load_nmf,
    nmf_factorize,
    nmf_separate,
    nmf_train_class,
    save_nmf,
)
from maskforge.patching import PatchConfig, extract_patches, repack_mean


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_kl_single_element_example():
    # d(1 || e) = 1*log(1/e) - 1 + e = e - 2
    val = kl_divergence(np.array([[1.0]]), np.array([[np.e]]))
    assert abs(val - (np.e - 2.0)) < 1e-12


def test_kl_zero_at_equality(rng):
    V = rng.uniform(0, 5, size=(6, 7))
    assert abs(kl_divergence(V, V)) < 1e-12


def test_kl_nonnegative_on_random_pairs(rng):
    for _ in range(1000):
        V = rng.uniform(0, 3, size=(3, 4))
        W = rng.uniform(0.01, 3, size=(3, 4))
        assert kl_divergence(V, W) >= -1e-12


def test_kl_zero_times_log_zero_is_zero():
    # rows with V = 0 contribute only +V_hat
    val = kl_divergence(np.array([[0.0, 0.0]]), np.array([[0.5, 2.0]]))
    assert abs(val - 2.5) < 1e-12


def test_kl_floors_reconstruction():
    # V_hat of 0 is floored, so the divergence stays finite
    val = kl_divergence(np.array([[1.0]]), np.array([[0.0]]))
    assert np.isfinite(val)
    expect = KL_EPS - 1.0 + np.log(1.0 / KL_EPS)
    assert abs(val - expect) < 1e-12


def test_kl_validation():
    with pytest.raises(ValueError, match="shapes differ"):
        kl_divergence(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        kl_divergence(np.array([[-1.0]]), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorize_monotone_descent(rng):
    for trial in range(10):
        V = rng.uniform(0.01, 2.0, size=(8, 10))
        fac = nmf_factorize(V, r=3, iterations=60, seed=trial)
        diffs = np.diff(fac.trace)
        assert np.all(diffs <= 1e-9 * np.maximum(fac.trace[:-1], 1.0))


def test_factorize_planted_rank_one(rng):
    w = rng.uniform(0.5, 2.0, size=(6, 1))
    h = rng.uniform(0.5, 2.0, size=(1, 9))
    V = w @ h
    fac = nmf_factorize(V, r=1, iterations=500, seed=0)
    assert fac.trace[-1] < 1e-8


def test_factorize_full_rank_drives_divergence_down(rng):
    V = rng.uniform(0.1, 1.0, size=(10, 8))
    fac = nmf_factorize(V, r=8, iterations=3000, seed=1)
    assert fac.trace[-1] < 1e-6


def test_factorize_warns_on_overcomplete_rank(rng):
    V = rng.uniform(0.1, 1.0, size=(10, 8))
    with pytest.warns(UserWarning, match="exceeds min dimension"):
        nmf_factorize(V, r=9, iterations=2, seed=1)


def test_factorize_deterministic(rng):
    V = rng.uniform(0.1, 1.0, size=(5, 6))
    f1 = nmf_factorize(V, r=2, iterations=50, seed=7)
    f2 = nmf_factorize(V, r=2, iterations=50, seed=7)
    assert np.array_equal(f1.W, f2.W)
    assert np.array_equal(f1.H, f2.H)
    assert np.array_equal(f1.trace, f2.trace)
    f3 = nmf_factorize(V, r=2, iterations=50, seed=8)
    assert not np.array_equal(f1.W, f3.W)


def test_factorize_init_is_strictly_positive():
    # uniform(0,1] start: one iteration must not hit a zero column
    V = np.full((4, 4), 1.0)
    fac = nmf_factorize(V, r=2, iterations=1, seed=0)
    assert fac.W.min() > 0.0
    assert fac.H.min() > 0.0


def test_factorize_validation(rng):
    V = rng.uniform(0.1, 1, size=(4, 4))
    with pytest.raises(ValueError, match="non-negative"):
        nmf_factorize(-V, r=2)
    with pytest.raises(ValueError, match="rank"):
        nmf_factorize(V, r=0)
    with pytest.raises(ValueError, match="iteration"):
        nmf_factorize(V, r=2, iterations=0)
    with pytest.raises(ValueError, match="matrix"):
        nmf_factorize(np.zeros(4), r=1)


# ---------------------------------------------------------------------------
# inference with frozen dictionary
# ---------------------------------------------------------------------------

def test_infer_leaves_dictionary_untouched(rng):
    V = rng.uniform(0.1, 1.0, size=(6, 5))
    W = rng.uniform(0.1, 1.0, size=(6, 3))
    W_before = W.copy()
    H, trace = infer_activations(V, W, iterations=40, seed=0)
    assert np.array_equal(W, W_before)
    assert H.shape == (3, 5)
    assert len(trace) == 40


def test_infer_monotone_descent(rng):
    V = rng.uniform(0.1, 1.0, size=(6, 5))
    W = rng.uniform(0.1, 1.0, size=(6, 3))
    _, trace = infer_activations(V, W, iterations=80, seed=2)
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * np.maximum(trace[:-1], 1.0))


def test_infer_exact_fit_when_v_in_dictionary_span(rng):
    W = rng.uniform(0.1, 1.0, size=(8, 2))
    H_true = rng.uniform(0.1, 1.0, size=(2, 4))
    V = W @ H_true
    H, trace = infer_activations(V, W, iterations=500, seed=0)
    assert trace[-1] < 1e-8


def test_infer_row_mismatch(rng):
    with pytest.raises(ValueError, match="dictionary rows"):
        infer_activations(np.ones((4, 2)), np.ones((5, 2)))


def test_infer_validation(rng):
    W = rng.uniform(0.1, 1.0, size=(4, 2))
    with pytest.raises(ValueError, match="matrix"):
        infer_activations(np.ones(4), W)
    with pytest.raises(ValueError, match="non-negative"):
        infer_activations(-np.ones((4, 3)), W)
    with pytest.raises(ValueError, match="iteration"):
        infer_activations(np.ones((4, 3)), W, iterations=0)


# ---------------------------------------------------------------------------
# updates and trace against a loop written out from the update formulas
# ---------------------------------------------------------------------------

def _reference_iterates(V, W, H, iterations, update_w):
    """(W, H) after each multiplicative update, each step formed afresh."""
    iterates = []
    for _ in range(iterations):
        ratio = V / np.maximum(W @ H, KL_EPS)
        H = H * ((W.T @ ratio) / np.maximum(W.sum(axis=0)[:, None], KL_EPS))
        if update_w:
            ratio = V / np.maximum(W @ H, KL_EPS)
            W = W * ((ratio @ H.T) / np.maximum(H.sum(axis=1)[None, :], KL_EPS))
        iterates.append((W, H))
    return iterates


def _masked_kl(V, V_hat):
    """sum(V*log(V/V_hat) - V + V_hat) over V > 0 only, V_hat floored."""
    V_hat = np.maximum(V_hat, KL_EPS)
    pos = V > 0
    return float(np.sum(V[pos] * np.log(V[pos] / V_hat[pos])) - V.sum() + V_hat.sum())


def _sparse_v(rng, rows, cols):
    V = rng.uniform(0.0, 3.0, size=(rows, cols))
    V[rng.random((rows, cols)) < 0.2] = 0.0
    return V


def _assert_trace_matches(V, iterates, trace):
    assert len(trace) == len(iterates)
    for k in (1, 2, 5, len(iterates)):
        W, H = iterates[k - 1]
        V_hat = np.maximum(W @ H, KL_EPS)
        scale = np.sum(np.abs(xlogy(V, V))) + V.sum() + V_hat.sum()
        assert abs(trace[k - 1] - _masked_kl(V, V_hat)) <= 1e-12 * scale, k


def test_infer_matches_reference_loop(rng):
    V = _sparse_v(rng, 60, 40)
    W = rng.uniform(0.05, 1.0, size=(60, 7))
    H, trace = infer_activations(V, W, iterations=12, seed=5)
    H0 = 1.0 - np.random.default_rng(5).random((7, 40))
    iterates = _reference_iterates(V, W, H0, 12, update_w=False)
    assert np.array_equal(H, iterates[-1][1])
    _assert_trace_matches(V, iterates, trace)


def test_factorize_matches_reference_loop(rng):
    V = _sparse_v(rng, 50, 45)
    fac = nmf_factorize(V, r=6, iterations=12, seed=9)
    init = np.random.default_rng(9)
    W0 = 1.0 - init.random((50, 6))
    H0 = 1.0 - init.random((6, 45))
    iterates = _reference_iterates(V, W0, H0, 12, update_w=True)
    assert np.array_equal(fac.W, iterates[-1][0])
    assert np.array_equal(fac.H, iterates[-1][1])
    _assert_trace_matches(V, iterates, fac.trace)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_v_names_iteration_zero(rng, bad):
    V = rng.uniform(0.1, 1.0, size=(6, 5))
    V[2, 3] = bad
    W = rng.uniform(0.1, 1.0, size=(6, 2))
    with pytest.raises(FloatingPointError, match="at iteration 0$"):
        nmf_factorize(V, r=2, iterations=5, seed=0)
    with pytest.raises(FloatingPointError, match="at iteration 0$"):
        infer_activations(V, W, iterations=5, seed=0)
    model = NmfModel(W[:, :1], W[:, 1:], n_bins=3, width=2)
    with pytest.raises(FloatingPointError, match="at iteration 0$"):
        nmf_separate(V, model, iterations=5, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_unscored_training_names_iteration_zero(rng, bad):
    V = rng.uniform(0.1, 1.0, size=(6, 5))
    V[2, 3] = bad
    with pytest.raises(FloatingPointError, match="at iteration 0$"):
        nmf_train_class(V, r=2, iterations=5, seed=0)


def test_unscored_fits_equal_scored_fits(rng):
    V = _sparse_v(rng, 40, 30)
    scored = nmf_factorize(V, r=4, iterations=15, seed=2)
    unscored = nmf_factorize(V, r=4, iterations=15, seed=2, trace=False)
    assert unscored.trace is None and len(scored.trace) == 15
    assert np.array_equal(unscored.W, scored.W)
    assert np.array_equal(unscored.H, scored.H)
    W = rng.uniform(0.05, 1.0, size=(40, 5))
    H, trace = infer_activations(V, W, iterations=15, seed=3)
    H_unscored, no_trace = infer_activations(V, W, iterations=15, seed=3, trace=False)
    assert no_trace is None and len(trace) == 15
    assert np.array_equal(H_unscored, H)


def test_training_and_separation_equal_the_public_fits(rng):
    V = _sparse_v(rng, 24, 30)
    fac = nmf_factorize(V, r=3, iterations=20, seed=4)
    W = nmf_train_class(V, r=3, iterations=20, seed=4)
    assert np.array_equal(W, fac.W / fac.W.sum(axis=0)[None, :])
    model = NmfModel(W[:, :2], rng.uniform(0.1, 1.0, size=(24, 2)), n_bins=4, width=6)
    H, _ = infer_activations(V, np.concatenate([model.w_vocal, model.w_nonvocal], axis=1),
                             iterations=20, seed=5)
    v, nv = nmf_separate(V, model, iterations=20, seed=5)
    assert np.array_equal(v, model.w_vocal @ H[:2])
    assert np.array_equal(nv, model.w_nonvocal @ H[2:])


# ---------------------------------------------------------------------------
# class dictionaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("first, count", [(0, 1037), (0, 512), (512, 512), (1024, 13),
                                          (1036, 1), (7, 100)])
def test_block_of_initial_activations_is_slice_of_whole_draw(first, count):
    whole = 1.0 - np.random.default_rng(11).random((9, 1037))
    block = initial_activations(9, 1037, 11, first, count)
    assert np.array_equal(block, whole[:, first:first + count])
    assert np.array_equal(initial_activations(9, 1037, 11), whole)


def test_predictor_draws_only_its_block(rng, monkeypatch):
    model = NmfModel(rng.uniform(0.1, 1, (12, 2)), rng.uniform(0.1, 1, (12, 3)),
                     n_bins=4, width=3)
    shapes = []

    def recording(*args):
        H = initial_activations(*args)
        shapes.append(H.shape)
        return H
    monkeypatch.setattr("maskforge.nmf.initial_activations", recording)
    predict = model.predictor(100000, 2, seed=0)
    windows = extract_patches(rng.uniform(0, 1, (4, 10)), PatchConfig(3, 3), 1)
    predict(windows, 5000)
    assert shapes == [(5, windows.n_patches)]


def test_train_class_single_patch_dictionary(rng):
    patch = rng.uniform(0.1, 1.0, size=(12, 1))
    W = nmf_train_class(patch, r=1, iterations=50, seed=0)
    assert np.allclose(W, patch / patch.sum(), rtol=0, atol=1e-15)


def test_train_class_identical_columns(rng):
    col = rng.uniform(0.1, 1.0, size=(10, 1))
    V = np.tile(col, (1, 6))
    W = nmf_train_class(V, r=1, iterations=200, seed=0)
    assert np.allclose(W, col / col.sum(), rtol=0, atol=1e-12)


def test_train_class_columns_unit_sum(rng):
    V = rng.uniform(0.05, 1.0, size=(9, 14))
    W = nmf_train_class(V, r=4, iterations=100, seed=3)
    assert W.shape == (9, 4)
    assert np.allclose(W.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert W.min() >= 0.0


def test_train_class_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        nmf_train_class(np.zeros((4, 0)), r=1)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_separate_planted_sources(rng):
    # mixture windows built from one class's dictionary should land nearly
    # all reconstruction energy on that class
    F, T, r = 4, 3, 2
    d = F * T
    W_v = rng.uniform(0.1, 1.0, size=(d, r))
    W_v /= W_v.sum(axis=0)
    W_nv = rng.uniform(0.1, 1.0, size=(d, r))
    W_nv /= W_nv.sum(axis=0)
    # make the classes distinguishable
    W_v[: d // 2] *= 0.05
    W_v /= W_v.sum(axis=0)
    W_nv[d // 2:] *= 0.05
    W_nv /= W_nv.sum(axis=0)
    model = NmfModel(W_v, W_nv, n_bins=F, width=T)
    h = rng.uniform(0.5, 1.5, size=(r, 6))
    V_u = W_v @ h
    V_v_hat, V_nv_hat = nmf_separate(V_u, model, iterations=500, seed=0)
    energy_v = V_v_hat.sum()
    energy_nv = V_nv_hat.sum()
    assert energy_v / (energy_v + energy_nv) >= 0.99


def test_separate_shapes(rng):
    F, T = 3, 2
    d = F * T
    model = NmfModel(rng.uniform(0.1, 1, (d, 2)), rng.uniform(0.1, 1, (d, 3)),
                     n_bins=F, width=T)
    V_u = rng.uniform(0.1, 1.0, size=(d, 5))
    V_v_hat, V_nv_hat = nmf_separate(V_u, model, iterations=30, seed=0)
    assert V_v_hat.shape == (d, 5)
    assert V_nv_hat.shape == (d, 5)
    assert V_v_hat.min() >= 0.0 and V_nv_hat.min() >= 0.0


def test_model_validation(rng):
    with pytest.raises(ValueError, match="must be \\(6, r\\)"):
        NmfModel(np.ones((5, 2)), np.ones((6, 2)), n_bins=3, width=2)
    with pytest.raises(ValueError, match="negative"):
        NmfModel(-np.ones((6, 2)), np.ones((6, 2)), n_bins=3, width=2)
    with pytest.raises(ValueError, match="all-zero column"):
        W = np.ones((6, 2))
        W[:, 1] = 0.0
        NmfModel(W, np.ones((6, 2)), n_bins=3, width=2)


# ---------------------------------------------------------------------------
# confidence: each window's soft mask (the vocal share of the two
# reconstructions), averaged over the windows covering each element
# ---------------------------------------------------------------------------

def _windows(grid, width):
    return extract_patches(grid, PatchConfig(width=width), stride=1)


def _confidence(model, patches, iterations, seed):
    """The model's block predictor run on all of `patches` as one block, then
    averaged: the single-block case of pipeline.confidence_grid."""
    predict = model.predictor(patches.n_patches, iterations, seed)
    return repack_mean(predict(patches, 0))


def test_soft_mask_patches_layout(rng):
    # one dictionary atom per window element: the vocal dictionary owns the
    # elements where `owner` is 1, so every window's soft mask is exactly
    # `owner`, read back from flat row t*F + f
    F, T, N = 3, 2, 6
    owner = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rows = owner.reshape(-1, order="F")
    eye = np.eye(F * T)
    model = NmfModel(eye[:, rows == 1.0], eye[:, rows == 0.0], n_bins=F, width=T)
    patches = _windows(rng.uniform(0.1, 1.0, size=(F, N)), T)
    mp = _confidence(model, patches, iterations=5, seed=0)
    expect = np.zeros((F, N))
    for n in range(N):
        covering = [o for o in patches.offsets if o <= n < o + T]
        expect[:, n] = np.mean([owner[:, n - o] for o in covering], axis=0)
    assert np.allclose(mp.values, expect, rtol=0, atol=1e-15)


def test_soft_mask_patches_zero_total_is_half(rng):
    # silent windows are reconstructed as silence by both classes: 0/0 -> 0.5
    model = NmfModel(rng.uniform(0.1, 1, (4, 2)), rng.uniform(0.1, 1, (4, 3)),
                     n_bins=2, width=2)
    mp = _confidence(model, _windows(np.zeros((2, 5)), 2), iterations=3, seed=0)
    assert np.all(mp.values == 0.5)


def test_repack_soft_mask_against_manual_average(rng):
    F, T, N = 2, 3, 5
    model = NmfModel(rng.uniform(0.1, 1, (F * T, 2)), rng.uniform(0.1, 1, (F * T, 3)),
                     n_bins=F, width=T)
    patches = _windows(rng.uniform(0.1, 1.0, size=(F, N)), T)
    offsets = patches.offsets
    assert offsets.tolist() == [0, 1, 2]
    mp = _confidence(model, patches, iterations=20, seed=3)
    V = np.stack([w.reshape(-1, order="F") for w in patches.patches], axis=1)
    v, nv = nmf_separate(V, model, iterations=20, seed=3)
    acc = np.zeros((F, offsets[-1] + T))
    cnt = np.zeros(offsets[-1] + T)
    for p, o in enumerate(offsets):
        for t in range(T):
            for f in range(F):
                flat = t * F + f
                acc[f, o + t] += v[flat, p] / (v[flat, p] + nv[flat, p])
            cnt[o + t] += 1
    assert np.array_equal(mp.values, (acc / cnt[None, :])[:, :N])
    assert mp.counts[0].tolist() == [1, 2, 3, 2, 1]


# ---------------------------------------------------------------------------
# dictionary files
# ---------------------------------------------------------------------------

def test_nmf_file_round_trip(tmp_path, rng):
    F, T = 5, 4
    d = F * T
    model = NmfModel(rng.uniform(0.01, 1, (d, 3)), rng.uniform(0.01, 1, (d, 7)),
                     n_bins=F, width=T)
    path = tmp_path / "d.nmf"
    save_nmf(model, path)
    back = load_nmf(path)
    assert (back.n_bins, back.width) == (F, T)
    assert (back.rank_vocal, back.rank_nonvocal) == (3, 7)
    assert np.array_equal(back.w_vocal, model.w_vocal)
    assert np.array_equal(back.w_nonvocal, model.w_nonvocal)


def test_nmf_file_errors(tmp_path, rng):
    model = NmfModel(rng.uniform(0.01, 1, (4, 1)), rng.uniform(0.01, 1, (4, 1)),
                     n_bins=2, width=2)
    path = tmp_path / "d.nmf"
    save_nmf(model, path)
    raw = path.read_bytes()
    path.write_bytes(b"ABCD" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_nmf(path)
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="size mismatch"):
        load_nmf(path)


@pytest.mark.parametrize("flaw, message", [
    ("nan", "vocal dictionary has non-finite entries"),
    ("inf", "non-vocal dictionary has non-finite entries"),
    ("rank0", "vocal dictionary has no columns"),
    ("rank0-nonvocal", "non-vocal dictionary has no columns"),
])
def test_load_nmf_rejects_unusable_dictionary(tmp_path, rng, flaw, message):
    # save_nmf cannot write these (the model refuses them), so build the file
    w_v = rng.uniform(0.1, 1, (6, 2))
    w_nv = rng.uniform(0.1, 1, (6, 2))
    if flaw == "nan":
        w_v[4, 1] = np.nan
    elif flaw == "inf":
        w_nv[0, 0] = np.inf
    elif flaw == "rank0":
        w_v = w_v[:, :0]
    else:
        w_nv = w_nv[:, :0]
    path = tmp_path / "d.nmf"
    path.write_bytes(MAGIC + struct.pack("<IIII", 3, 2, w_v.shape[1], w_nv.shape[1])
                     + w_v.astype("<f8").tobytes(order="F")
                     + w_nv.astype("<f8").tobytes(order="F"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_nmf(path)
