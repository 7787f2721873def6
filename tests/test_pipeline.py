"""End-to-end pipeline: training sets, separation, sweep, CSV emission."""

import tracemalloc

import numpy as np
import pytest

from maskforge.audio_io import NON_VOCAL, VOCAL, AudioBuffer, StemSet, load_song
from maskforge.masking import ideal_binary_mask
from maskforge import pipeline
from maskforge.mlp import MlpModel, init_model
from maskforge.nmf import NmfModel
from maskforge.patching import (
    MeanPrediction,
    PatchConfig,
    extract_patches,
    normalize_unit_scale,
    repack_mean,
)
from maskforge.pipeline import (
    FIG2_HEADER,
    FIG3_HEADER,
    METHOD_DNN,
    METHOD_IDEAL,
    METHOD_MIXTURE,
    METHOD_NMF,
    PER_SONG_HEADER,
    ExperimentConfig,
    _mean_and_ci,
    build_class_matrices,
    build_training_set,
    confidence_grid,
    fig2_rows,
    fig3_rows,
    ideal_mask_separate,
    per_song_rows,
    run_sweep_to_csv,
    separate_song,
    song_training_pairs,
    sweep_alpha,
    threshold_and_invert,
    train_dnn,
    train_nmf,
)
from maskforge.stft import StftConfig, istft, magnitude, stft
from maskforge.audio_io import pool_and_mix


def _small_cfg(**overrides):
    """Config sized for sub-second unit tests."""
    defaults = dict(
        stft=StftConfig(frame_len=256, hop=64),
        patch=PatchConfig(width=5, train_stride=5),
        alphas=(0.3, 0.5),
        hidden=(16,),
        epochs=2,
        learning_rate=0.01,
        nmf_rank=6,
        nmf_train_iters=25,
        nmf_infer_iters=25,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _toy_stems(n=2944, sr=22050, seed=0):
    rng = np.random.default_rng(seed)
    vocal = rng.uniform(-0.8, 0.8, n)
    accomp = rng.uniform(-0.8, 0.8, n)
    return StemSet(stems=[(AudioBuffer(vocal, sr), VOCAL),
                          (AudioBuffer(accomp, sr), NON_VOCAL)], song_id="toy")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_and_layer_sizes():
    cfg = ExperimentConfig()
    assert cfg.stft.frame_len == 512 and cfg.stft.hop == 128
    assert cfg.patch.width == 10
    assert cfg.alphas == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    # 257 bins x 10-frame window on both ends of one hidden layer
    assert cfg.layer_sizes == [2570, 1024, 2570]


def test_config_alpha_validation():
    with pytest.raises(ValueError, match="at least one alpha"):
        _small_cfg(alphas=())
    with pytest.raises(ValueError, match="strictly inside"):
        _small_cfg(alphas=(0.0, 0.5))


# ---------------------------------------------------------------------------
# training-set construction
# ---------------------------------------------------------------------------

def test_song_training_pairs_tiling():
    # 2944 samples at frame 512 / hop 128 -> exactly 20 frames, so a
    # 10-frame window at stride 10 cuts exactly two pairs
    stems = _toy_stems(n=2944)
    stft_cfg = StftConfig(frame_len=512, hop=128)
    patch_cfg = PatchConfig(width=10, train_stride=10)
    X, Y = song_training_pairs(stems, stft_cfg, patch_cfg)
    assert X.shape == (2, 2570)
    assert Y.shape == (2, 2570)
    assert np.all((Y == 0.0) | (Y == 1.0))
    assert X.max() <= 1.0 and X.min() >= 0.0
    assert X.max() == 1.0  # peak-normalized mixture magnitudes


def test_song_training_pairs_target_is_oracle_mask():
    stems = _toy_stems(n=2944, seed=3)
    stft_cfg = StftConfig(frame_len=512, hop=128)
    patch_cfg = PatchConfig(width=20, train_stride=20)
    X, Y = song_training_pairs(stems, stft_cfg, patch_cfg)
    vocal_mix, nonvocal_mix, _ = pool_and_mix(stems)
    mag_v = magnitude(stft(vocal_mix, stft_cfg))
    mag_nv = magnitude(stft(nonvocal_mix, stft_cfg))
    ibm = ideal_binary_mask(mag_v, mag_nv)
    assert np.array_equal(Y[0], ibm.values.reshape(-1, order="F"))


def test_build_training_set_stacks_songs(tiny_corpus):
    stft_cfg = StftConfig(frame_len=256, hop=64)
    patch_cfg = PatchConfig(width=5, train_stride=5)
    X, Y = build_training_set(tiny_corpus["train_songs"], stft_cfg, patch_cfg)
    x0, y0 = song_training_pairs(load_song(tiny_corpus["train_songs"][0]),
                                 stft_cfg, patch_cfg)
    x1, y1 = song_training_pairs(load_song(tiny_corpus["train_songs"][1]),
                                 stft_cfg, patch_cfg)
    assert np.array_equal(X, np.concatenate([x0, x1]))
    assert np.array_equal(Y, np.concatenate([y0, y1]))


def test_build_training_set_rejects_empty():
    with pytest.raises(ValueError, match="empty manifest"):
        build_training_set([], StftConfig(256, 64), PatchConfig(5, 5))
    with pytest.raises(ValueError, match="empty manifest"):
        build_class_matrices([], StftConfig(256, 64), PatchConfig(5, 5))


def test_build_class_matrices_shapes(tiny_corpus):
    stft_cfg = StftConfig(frame_len=256, hop=64)
    patch_cfg = PatchConfig(width=5, train_stride=5)
    V_v, V_nv = build_class_matrices(tiny_corpus["train_songs"], stft_cfg, patch_cfg)
    d = stft_cfg.n_bins * patch_cfg.width
    assert V_v.shape[0] == d and V_nv.shape[0] == d
    assert V_v.shape[1] == V_nv.shape[1] > 0
    assert V_v.min() >= 0.0


# ---------------------------------------------------------------------------
# training entry points
# ---------------------------------------------------------------------------

def test_train_dnn_shapes_and_trace(tiny_corpus):
    cfg = _small_cfg()
    model, trace = train_dnn(tiny_corpus["train_songs"], cfg)
    assert model.layer_sizes == cfg.layer_sizes
    assert trace.shape == (cfg.epochs,)
    assert np.all(np.isfinite(trace))


def test_train_nmf_dimensions(tiny_corpus):
    cfg = _small_cfg()
    model = train_nmf(tiny_corpus["train_songs"], cfg)
    assert model.n_bins == cfg.stft.n_bins
    assert model.width == cfg.patch.width
    assert model.rank_vocal == cfg.nmf_rank
    assert model.rank_nonvocal == cfg.nmf_rank
    assert np.allclose(model.w_vocal.sum(axis=0), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_confidence_grid_dnn(tiny_corpus):
    cfg = _small_cfg()
    model, _ = train_dnn(tiny_corpus["train_songs"], cfg)
    stems = load_song(tiny_corpus["test_songs"][0])
    _, _, full_mix = pool_and_mix(stems)
    mean, spec = confidence_grid(full_mix, model, cfg)
    assert mean.values.shape == spec.bins.shape
    assert mean.values.min() >= 0.0 and mean.values.max() <= 1.0
    # sliding windows cover interior elements width-many times
    assert mean.counts.max() == cfg.patch.width


def test_confidence_grid_nmf(tiny_corpus):
    cfg = _small_cfg()
    model = train_nmf(tiny_corpus["train_songs"], cfg)
    stems = load_song(tiny_corpus["test_songs"][0])
    _, _, full_mix = pool_and_mix(stems)
    mean, spec = confidence_grid(full_mix, model, cfg)
    assert mean.values.shape == spec.bins.shape
    assert mean.values.min() >= 0.0 and mean.values.max() <= 1.0


# ---------------------------------------------------------------------------
# separation windows in blocks
# ---------------------------------------------------------------------------

def _untrained_model(method, cfg, seed=0):
    """A small DNN or NMF model for cfg's window shape."""
    d = cfg.stft.n_bins * cfg.patch.width
    if method == METHOD_DNN:
        return init_model([d, 8, d], seed=seed)
    rng = np.random.default_rng(seed)
    return NmfModel(rng.uniform(0.1, 1, (d, 3)), rng.uniform(0.1, 1, (d, 4)),
                    n_bins=cfg.stft.n_bins, width=cfg.patch.width)


def _mixture_with_windows(n_windows, cfg, seed=0):
    """Noise whose spectrogram has exactly n_windows stride-1 windows."""
    n_frames = n_windows + cfg.patch.width - 1
    n = (n_frames - 1) * cfg.stft.hop + cfg.stft.frame_len
    return AudioBuffer(np.random.default_rng(seed).uniform(-0.8, 0.8, n), 22050)


def _whole_mixture_grid(mix, model, cfg, seed):
    """Every window of the mixture in one stack, predicted and averaged at once."""
    norm, _ = normalize_unit_scale(magnitude(stft(mix, cfg.stft)))
    windows = extract_patches(norm, cfg.patch, 1)
    predict = model.predictor(windows.n_patches, cfg.nmf_infer_iters, seed)
    return repack_mean(predict(windows, 0))


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_block_grid_matches_whole_mixture(monkeypatch, method):
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16), nmf_infer_iters=10)
    model = _untrained_model(method, cfg)
    monkeypatch.setattr(pipeline, "_WINDOW_BLOCK", 16)
    mix = _mixture_with_windows(3 * 16 + 5, cfg)          # three full blocks and a partial
    mean, _ = confidence_grid(mix, model, cfg, infer_seed=4)
    whole = _whole_mixture_grid(mix, model, cfg, seed=4)
    assert mean.values.shape == whole.values.shape
    assert np.allclose(mean.values, whole.values, rtol=0, atol=1e-12)
    assert np.array_equal(mean.counts, whole.counts)


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
@pytest.mark.parametrize("n_windows", [1, 15, 16])
def test_one_block_grid_is_whole_mixture_grid(monkeypatch, method, n_windows):
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16), nmf_infer_iters=10)
    model = _untrained_model(method, cfg)
    monkeypatch.setattr(pipeline, "_WINDOW_BLOCK", 16)
    mix = _mixture_with_windows(n_windows, cfg)
    mean, _ = confidence_grid(mix, model, cfg, infer_seed=4)
    whole = _whole_mixture_grid(mix, model, cfg, seed=4)
    assert np.array_equal(mean.values, whole.values)
    assert np.array_equal(mean.counts, whole.counts)


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_confidence_grid_memory_stays_below_window_stack(method):
    # 20000 windows of 9 bins x 20 frames: the whole-mixture window stack
    # alone is 28.8 MB, about 20 times one block's
    cfg = _small_cfg(stft=StftConfig(frame_len=16, hop=4),
                     patch=PatchConfig(width=20, train_stride=20), nmf_infer_iters=2)
    model = _untrained_model(method, cfg)
    n_windows = 20000
    mix = _mixture_with_windows(n_windows, cfg)
    stack_bytes = 8 * n_windows * cfg.stft.n_bins * cfg.patch.width
    tracemalloc.start()
    try:
        mean, _ = confidence_grid(mix, model, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mean.values.shape[1] == n_windows + cfg.patch.width - 1
    assert peak < stack_bytes, (peak, stack_bytes)


def test_oracle_confidence_reproduces_ideal_masking():
    # feeding the true binary mask through the thresholding path must match
    # the dedicated oracle separation bit for bit
    stems = _toy_stems(n=2944, seed=8)
    stft_cfg = StftConfig(frame_len=512, hop=128)
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(stems)
    mag_v = magnitude(stft(vocal_mix, stft_cfg))
    mag_nv = magnitude(stft(nonvocal_mix, stft_cfg))
    ibm = ideal_binary_mask(mag_v, mag_nv)
    spec = stft(full_mix, stft_cfg)
    mean = MeanPrediction(values=ibm.values, counts=np.ones_like(ibm.values))
    est_v, est_nv = threshold_and_invert(mean, spec, 0.5)
    oracle_v, oracle_nv = ideal_mask_separate(stems, stft_cfg)
    assert np.array_equal(est_v.samples, oracle_v.samples)
    assert np.array_equal(est_nv.samples, oracle_nv.samples)


def test_ideal_mask_estimates_sum_to_mixture_interior():
    # the two oracle masks partition the grid, so their inversions add back
    # to the mixture wherever the synthesis envelope is flat
    stems = _toy_stems(n=2944, seed=1)
    stft_cfg = StftConfig(frame_len=512, hop=128)
    _, _, full_mix = pool_and_mix(stems)
    est_v, est_nv = ideal_mask_separate(stems, stft_cfg)
    resynth = istft(stft(full_mix, stft_cfg))
    total = est_v.samples + est_nv.samples
    assert np.allclose(total, resynth.samples, rtol=0, atol=1e-10)


def test_indifferent_predictions_give_silence_at_half():
    # all-0.5 confidence claims nothing for either mask at alpha = 0.5
    stems = _toy_stems(n=2944, seed=2)
    cfg = _small_cfg(stft=StftConfig(frame_len=512, hop=128),
                     patch=PatchConfig(width=10, train_stride=10))
    d = cfg.layer_sizes[0]
    zero_model = MlpModel([d, d], [np.zeros((d, d))], [np.zeros(d)])
    _, _, full_mix = pool_and_mix(stems)
    est_v, est_nv = separate_song(full_mix, zero_model, 0.5, cfg)
    assert not np.any(est_v.samples)
    assert not np.any(est_nv.samples)


# ---------------------------------------------------------------------------
# sweep bookkeeping (model-free: oracle and mixture baselines only)
# ---------------------------------------------------------------------------

def test_sweep_requires_songs():
    with pytest.raises(ValueError, match="no test songs"):
        sweep_alpha([], {}, _small_cfg())


def test_sweep_structure_without_models(tiny_corpus):
    cfg = _small_cfg()
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, cfg)
    assert sweep.methods == (METHOD_IDEAL, METHOD_MIXTURE)
    assert len(sweep.songs) == 1
    song = sweep.songs[0]
    assert set(song.metrics.keys()) == {METHOD_IDEAL, METHOD_MIXTURE}
    # alpha-independent methods store a single entry under None
    assert list(song.metrics[METHOD_IDEAL].keys()) == [None]
    pm = song.metrics[METHOD_IDEAL][None]
    assert pm.vocal.sir_db > pm.mean.sir_db or np.isfinite(pm.mean.sir_db)


def test_mixture_baseline_scores_identical_estimates(tiny_corpus):
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, _small_cfg())
    pm = sweep.songs[0].metrics[METHOD_MIXTURE][None]
    # both "estimates" are the same mixture, so the two sources' SDR differ
    # only through their references
    assert np.isfinite(pm.vocal.sir_db)
    assert np.isfinite(pm.nonvocal.sir_db)


def test_fig2_rows_layout(tiny_corpus):
    cfg = _small_cfg()
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, cfg)
    lines = fig2_rows(sweep)
    assert lines[0] == FIG2_HEADER
    # 2 alphas x 2 methods x 3 sources data rows
    assert len(lines) == 1 + 2 * 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0.3"
    assert first[1] == METHOD_IDEAL  # sorted: ideal < mixture
    assert first[2] == VOCAL
    # single song: no confidence interval
    assert lines[1].endswith(",")
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_fig3_and_per_song_layout(tiny_corpus):
    cfg = _small_cfg()
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, cfg)
    f3 = fig3_rows(sweep)
    assert f3[0] == FIG3_HEADER
    assert len(f3) == 1 + 2 * 2 * 3
    assert all(len(l.split(",")) == 5 for l in f3[1:])
    ps = per_song_rows(sweep)
    assert ps[0] == PER_SONG_HEADER
    assert len(ps) == 1 + 1 * 2 * 2 * 3
    assert all(l.startswith("synth_") for l in ps[1:])


def test_duplicated_song_gives_zero_width_ci(tiny_corpus):
    cfg = _small_cfg()
    songs = tiny_corpus["test_songs"] * 2
    sweep = sweep_alpha(songs, {}, cfg)
    lines = fig2_rows(sweep)
    single = fig2_rows(sweep_alpha(tiny_corpus["test_songs"], {}, cfg))
    for dup_line, single_line in zip(lines[1:], single[1:]):
        dup_fields = dup_line.split(",")
        single_fields = single_line.split(",")
        # means agree with the single-song run; the CI collapses to zero
        assert dup_fields[:6] == single_fields[:6]
        assert dup_fields[6] == "0.000000"
        assert single_fields[6] == ""


def test_mean_and_ci_behaviour():
    mean, ci = _mean_and_ci([3.0])
    assert mean == 3.0 and ci == ""
    mean, ci = _mean_and_ci([1.0, 3.0])
    assert mean == 2.0
    # Student-t with one degree of freedom: half width = 12.7062... * sem
    sem = np.std([1.0, 3.0], ddof=1) / np.sqrt(2)
    assert abs(float(ci) - 12.706204736174698 * sem) < 1e-4
    mean, ci = _mean_and_ci([1.0, -np.inf])
    assert ci == ""


def test_run_sweep_to_csv_files_and_determinism(tiny_corpus, tmp_path):
    cfg = _small_cfg()
    songs = tiny_corpus["test_songs"]
    paths = {name: tmp_path / f"{name}.csv" for name in ("fig2", "fig3", "per")}
    run_sweep_to_csv(songs, {}, cfg, paths["fig2"], paths["fig3"], paths["per"])
    first = {name: p.read_bytes() for name, p in paths.items()}
    assert first["fig2"].decode().splitlines()[0] == FIG2_HEADER
    assert first["fig3"].decode().splitlines()[0] == FIG3_HEADER
    assert first["per"].decode().splitlines()[0] == PER_SONG_HEADER
    run_sweep_to_csv(songs, {}, cfg, paths["fig2"], paths["fig3"], paths["per"])
    for name, p in paths.items():
        assert p.read_bytes() == first[name]


def test_sweep_with_models_covers_all_alphas(tiny_corpus):
    cfg = _small_cfg()
    dnn, _ = train_dnn(tiny_corpus["train_songs"], cfg)
    nmf = train_nmf(tiny_corpus["train_songs"], cfg)
    sweep = sweep_alpha(tiny_corpus["test_songs"],
                        {METHOD_DNN: dnn, METHOD_NMF: nmf}, cfg)
    assert sweep.methods == (METHOD_DNN, METHOD_NMF, METHOD_IDEAL, METHOD_MIXTURE)
    song = sweep.songs[0]
    assert set(song.metrics[METHOD_DNN].keys()) == set(cfg.alphas)
    assert set(song.metrics[METHOD_NMF].keys()) == set(cfg.alphas)
    lines = fig2_rows(sweep)
    assert len(lines) == 1 + 2 * 4 * 3
    ps = per_song_rows(sweep)
    assert len(ps) == 1 + 1 * 4 * 2 * 3
