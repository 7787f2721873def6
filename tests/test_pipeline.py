"""End-to-end pipeline: training sets, separation, sweep, CSV emission."""

import contextlib
import errno
import tracemalloc

import numpy as np
import pytest

from maskforge.audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    WavFormatError,
    load_manifest,
    load_song,
    read_wav,
    write_manifest,
    write_wav,
)
from maskforge.bss_eval import evaluate_pair
from maskforge.masking import ideal_binary_mask
from maskforge import cli, nmf, pipeline
from maskforge.mlp import MlpModel, init_model, predict_masks
from maskforge.model_file import FrontEnd, FrontEndMismatch
from maskforge.nmf import NmfModel
from maskforge.patching import (
    MeanPrediction,
    PatchConfig,
    extract_patches,
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
    build_class_matrix,
    build_training_set,
    confidence_grid,
    figure_rows,
    ideal_mask_separate,
    per_song_rows,
    run_sweep_to_csv,
    separate_file,
    separate_song,
    sweep_alpha,
    train_dnn,
    train_nmf,
)
from maskforge.stft import StftConfig, hann_window, istft, overlap_add, stft
from maskforge.audio_io import pool_and_mix
from maskforge.synth import SynthConfig, generate_corpus


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
    with pytest.raises(ValueError, match=r"^alpha 0.0 outside \(0, 1\)$"):
        _small_cfg(alphas=(0.0, 0.5))
    with pytest.raises(ValueError, match="^alpha 0.5 is repeated$"):
        _small_cfg(alphas=(0.5, 0.2, 0.5))


@pytest.mark.parametrize("fields, message", [
    ({"hidden": (8, 0)}, "layer sizes must be positive"),
    ({"nmf_rank": 0}, "rank must be >= 1"),
    ({"nmf_train_iters": 0}, "need at least one iteration"),
    ({"nmf_infer_iters": -1}, "need at least one iteration"),
])
def test_config_rejects_sizes_below_one(fields, message):
    # the messages the network and the NMF fits give for the same values
    with pytest.raises(ValueError, match=message):
        _small_cfg(**fields)


# ---------------------------------------------------------------------------
# training-set construction
# ---------------------------------------------------------------------------

def _one_song_manifest(tmp_path, stems):
    """The stems written as WAVs under tmp_path, in a one-song manifest."""
    paths = []
    for i, (buf, label) in enumerate(stems.stems):
        write_wav(tmp_path / f"{label}{i}.wav", buf)
        paths.append((tmp_path / f"{label}{i}.wav", label))
    write_manifest(tmp_path / "one_song.json", [ManifestSong(stems.song_id, paths)])
    return load_manifest(tmp_path / "one_song.json")


def _class_matrices(songs, stft_cfg, patch_cfg):
    """The vocal and the non-vocal class matrix, one build_class_matrix call each."""
    return tuple(build_class_matrix(songs, label, stft_cfg, patch_cfg)[0]
                 for label in (VOCAL, NON_VOCAL))


def _training_set(songs, stft_cfg, patch_cfg):
    """build_training_set's (X, Y), without the front end."""
    return build_training_set(songs, stft_cfg, patch_cfg)[:2]


def test_song_training_pairs_tiling(tmp_path):
    # 2944 samples at frame 512 / hop 128 -> exactly 20 frames, so a
    # 10-frame window at stride 10 cuts exactly two pairs
    songs = _one_song_manifest(tmp_path, _toy_stems(n=2944))
    stft_cfg = StftConfig(frame_len=512, hop=128)
    patch_cfg = PatchConfig(width=10, train_stride=10)
    X, Y, _ = build_training_set(songs, stft_cfg, patch_cfg)
    assert X.shape == (2, 2570)
    assert Y.shape == (2, 2570)
    assert np.all((Y == 0.0) | (Y == 1.0))
    assert X.max() <= 1.0 and X.min() >= 0.0
    assert X.max() == 1.0  # peak-normalized mixture magnitudes


def test_song_training_pairs_target_is_oracle_mask(tmp_path):
    songs = _one_song_manifest(tmp_path, _toy_stems(n=2944, seed=3))
    stft_cfg = StftConfig(frame_len=512, hop=128)
    patch_cfg = PatchConfig(width=20, train_stride=20)
    X, Y, _ = build_training_set(songs, stft_cfg, patch_cfg)
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(load_song(songs[0]))
    mag_v = np.abs(stft(vocal_mix, stft_cfg).bins)
    mag_nv = np.abs(stft(nonvocal_mix, stft_cfg).bins)
    ibm = ideal_binary_mask(mag_v, mag_nv)
    assert np.array_equal(Y[0], ibm.values.reshape(-1, order="F"))
    # 20 frames and a 20-frame window: X[0] is the whole peak-normalized mixture
    mag_mix = np.abs(stft(full_mix, stft_cfg).bins)
    assert np.array_equal(X[0], (mag_mix / mag_mix.max()).reshape(-1, order="F"))


def _windows_by_hand(grid, patch_cfg):
    """An (F, N) grid cut at the training stride with a zero-padded tail; one
    frame-major column per window."""
    T, S = patch_cfg.width, patch_cfg.train_stride
    n = grid.shape[1]
    starts = range(0, n - T + S, S) if n > T else [0]
    padded = np.pad(grid, ((0, 0), (0, starts[-1] + T - n)))
    return np.stack([padded[:, s:s + T].reshape(-1, order="F") for s in starts], axis=1)


def _unit_windows_by_hand(buffer, stft_cfg, patch_cfg):
    """The buffer's magnitudes over their own peak, cut by `_windows_by_hand`."""
    mag = np.abs(stft(buffer, stft_cfg).bins)
    return _windows_by_hand(mag / mag.max(), patch_cfg)


def _training_set_by_hand(songs, stft_cfg, patch_cfg):
    """build_training_set's (X, Y) by hand: each song's full-mix magnitudes
    over their own peak, and the ideal binary mask of its two submixes, cut
    by hand and stacked song after song."""
    xs, ys = [], []
    for song in songs:
        vocal_mix, nonvocal_mix, full_mix = pool_and_mix(load_song(song))
        xs.append(_unit_windows_by_hand(full_mix, stft_cfg, patch_cfg))
        ibm = (np.abs(stft(vocal_mix, stft_cfg).bins)
               > np.abs(stft(nonvocal_mix, stft_cfg).bins)).astype(np.float64)
        ys.append(_windows_by_hand(ibm, patch_cfg))
    return np.concatenate(xs, axis=1).T, np.concatenate(ys, axis=1).T


def test_build_training_set_stacks_songs(tiny_corpus):
    stft_cfg = StftConfig(frame_len=256, hop=64)
    patch_cfg = PatchConfig(width=5, train_stride=5)
    X, Y, _ = build_training_set(tiny_corpus["train_songs"], stft_cfg, patch_cfg)
    x, y = _training_set_by_hand(tiny_corpus["train_songs"], stft_cfg, patch_cfg)
    assert np.array_equal(X, x)
    assert np.array_equal(Y, y)


def test_build_training_set_rejects_empty():
    with pytest.raises(ValueError, match="empty manifest"):
        build_training_set([], StftConfig(256, 64), PatchConfig(5, 5))
    for label in (VOCAL, NON_VOCAL):
        with pytest.raises(ValueError, match="empty manifest"):
            build_class_matrix([], label, StftConfig(256, 64), PatchConfig(5, 5))


def test_training_refuses_a_silent_mixture(tmp_path):
    # each stem sounds, but the vocal and the accompaniment cancel in the mix,
    # which pooling refuses before the mixture is transformed
    x = np.random.default_rng(4).uniform(-0.8, 0.8, 2944)
    stems = StemSet(stems=[(AudioBuffer(x, 22050), VOCAL), (AudioBuffer(-x, 22050), NON_VOCAL)],
                    song_id="hollow")
    songs = _one_song_manifest(tmp_path, stems)
    with pytest.raises(ValueError, match="^song 'hollow' has submixes that cancel to a "
                                         "silent mixture$"):
        build_training_set(songs, StftConfig(512, 128), PatchConfig(10))


def test_training_names_a_song_whose_spectrogram_is_all_zero(tmp_path):
    # an impulse on the first sample sounds, but the periodic Hann window
    # weighs the first sample of the first frame by 0 and no other frame covers it
    impulse = np.zeros(2944)
    impulse[0] = 0.5
    stems = StemSet(stems=[(AudioBuffer(impulse, 22050), VOCAL),
                           (AudioBuffer(impulse, 22050), NON_VOCAL)], song_id="tick")
    songs = _one_song_manifest(tmp_path, stems)
    message = "^song 'tick' has an all-zero spectrogram, which has no unit scale$"
    with pytest.raises(ValueError, match=message):
        build_training_set(songs, StftConfig(512, 128), PatchConfig(10))
    with pytest.raises(ValueError, match=message):
        build_class_matrix(songs, VOCAL, StftConfig(512, 128), PatchConfig(10))


def test_confidence_grid_refuses_a_silent_mixture():
    model = init_model([257 * 5, 4, 257 * 5], front_end=FrontEnd(22050, 512, 128, 5))
    with pytest.raises(ValueError, match="^the mixture has an all-zero spectrogram, which "
                                         "has no unit scale$"):
        confidence_grid(AudioBuffer(np.zeros(4096), 22050), model, ExperimentConfig())


def test_build_class_matrices_shapes(tiny_corpus):
    stft_cfg = StftConfig(frame_len=256, hop=64)
    patch_cfg = PatchConfig(width=5, train_stride=5)
    V_v, V_nv = _class_matrices(tiny_corpus["train_songs"], stft_cfg, patch_cfg)
    d = stft_cfg.n_bins * patch_cfg.width
    assert V_v.shape[0] == d and V_nv.shape[0] == d
    assert V_v.shape[1] == V_nv.shape[1] > 0
    assert V_v.min() >= 0.0


def test_build_class_matrices_columns_are_own_peak_windows(tiny_corpus):
    stft_cfg = StftConfig(frame_len=256, hop=64)
    patch_cfg = PatchConfig(width=5, train_stride=4)
    songs = tiny_corpus["train_songs"]
    V_v, V_nv = _class_matrices(songs, stft_cfg, patch_cfg)
    expect_v, expect_nv = [], []
    for song in songs:
        vocal_mix, nonvocal_mix, _ = pool_and_mix(load_song(song))
        expect_v.append(_unit_windows_by_hand(vocal_mix, stft_cfg, patch_cfg))
        expect_nv.append(_unit_windows_by_hand(nonvocal_mix, stft_cfg, patch_cfg))
    assert np.array_equal(V_v, np.concatenate(expect_v, axis=1))
    assert np.array_equal(V_nv, np.concatenate(expect_nv, axis=1))


# ---------------------------------------------------------------------------
# training entry points
# ---------------------------------------------------------------------------

def test_train_dnn_shapes_and_trace(tiny_corpus):
    cfg = _small_cfg()
    model, trace = train_dnn(tiny_corpus["train_songs"], cfg)
    assert model.layer_sizes == cfg.layer_sizes
    assert model.front_end == FrontEnd(22050, cfg.stft.frame_len, cfg.stft.hop,
                                       cfg.patch.width)
    assert trace.shape == (cfg.epochs,)
    assert np.all(np.isfinite(trace))


def test_train_nmf_dimensions(tiny_corpus):
    cfg = _small_cfg()
    model = train_nmf(tiny_corpus["train_songs"], cfg)
    assert model.front_end == FrontEnd(22050, cfg.stft.frame_len, cfg.stft.hop,
                                       cfg.patch.width)
    assert model.rank_vocal == cfg.nmf_rank
    assert model.rank_nonvocal == cfg.nmf_rank
    assert np.allclose(model.w_vocal.sum(axis=0), 1.0, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def window_corpus(tmp_path_factory):
    """32 short songs, whose windows together outweigh the arrays any one
    song needs while it is cut."""
    train, _ = generate_corpus(tmp_path_factory.mktemp("window_corpus"), 32, 0,
                               SynthConfig(sample_rate=8000, duration=0.5, seed=3))
    return load_manifest(train)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("build", [
    pytest.param(_training_set, id="build_training_set"),
    pytest.param(_class_matrices, id="build_class_matrix")])
def test_training_matrices_are_built_in_place(window_corpus, build):
    # at the training stride of the window width, each song's windows are a
    # view of an array as large as themselves, so stacking the songs' pieces
    # would take twice the result
    stft_cfg, patch_cfg = StftConfig(64, 16), PatchConfig(width=8, train_stride=8)
    mats, peak = _traced_peak(lambda: build(window_corpus, stft_cfg, patch_cfg))
    assert all(m.flags.c_contiguous for m in mats)
    result_bytes = sum(m.nbytes for m in mats)
    assert result_bytes > 4e6
    assert peak <= 1.25 * result_bytes, (peak, result_bytes)


@pytest.mark.parametrize("build, bound", [
    pytest.param(lambda songs, s, p: build_training_set(songs, s, p), 160,
                 id="build_training_set"),
    pytest.param(lambda songs, s, p: build_class_matrix(songs, VOCAL, s, p), 112,
                 id="build_class_matrix"),
    pytest.param(lambda songs, s, p: ideal_mask_separate(load_song(songs[0]), s), 200,
                 id="ideal_mask_separate")])
def test_pooling_memory_grows_with_song_length_at_a_bounded_rate(tmp_path, build, bound):
    """Each song is pooled and transformed whole, so the peak grows with its
    length. Between one song of two noise stems of 32000 and of 128000
    samples, at frame 64, hop 16 and width 4, the traced peak grew 147.3
    (training set), 99.6 (one class's matrix) and 187.0 (oracle separation)
    bytes per added sample when this test was written. Each bound adds a
    margin of under 13, below what one more whole-song array kept alive
    adds: 33 bytes per sample for a complex spectrogram, 16 for the two
    stems and 24 for the three mixes.
    tracemalloc sees numpy's arrays but not the BLAS library's workspace, so
    this bounds the arrays alone."""
    stft_cfg, patch_cfg = StftConfig(64, 16), PatchConfig(width=4)
    stems = [(tmp_path / f"{label}.wav", label) for label in (VOCAL, NON_VOCAL)]
    lengths, peaks = (32000, 128000), []
    for n in lengths:
        for seed, (path, _) in enumerate(stems):
            write_wav(path, AudioBuffer(np.random.default_rng(seed).uniform(-0.8, 0.8, n), 22050))
        _, peak = _traced_peak(lambda: build([ManifestSong("song", stems)], stft_cfg, patch_cfg))
        peaks.append(peak)
    growth = (peaks[1] - peaks[0]) / (lengths[1] - lengths[0])
    assert growth <= bound, (growth, peaks)


@pytest.mark.parametrize("command, bound", [("mix", 45), ("evaluate", 94)])
def test_cli_memory_grows_with_song_length_at_a_bounded_rate(tmp_path, capsys, command, bound):
    """`mix` pools a song whole and `evaluate` reads its four WAVs whole, so
    the peak grows with the song's length. Between one song of two noise stems
    of 32000 and of 128000 samples, the traced peak of `cli.main` grew 39.4
    (`mix`) and 88.1 (`evaluate`, scoring the stems against each other
    swapped) bytes per added sample when this test was written. Each bound
    adds a margin of under 6, below the 8 bytes per sample of one more
    whole-length float64 array kept alive.
    tracemalloc sees numpy's arrays but not the BLAS library's workspace, so
    this bounds the arrays alone."""
    stems = [(tmp_path / f"{label}.wav", label) for label in (VOCAL, NON_VOCAL)]
    vocal, accomp = (str(path) for path, _ in stems)
    manifest = tmp_path / "m.json"
    write_manifest(manifest, [ManifestSong("song", stems)])
    argv = {"mix": ["mix", "--manifest", str(manifest), "--out-dir", str(tmp_path)],
            "evaluate": ["evaluate", "--est-vocal", accomp, "--est-accomp", vocal,
                         "--ref-vocal", vocal, "--ref-accomp", accomp]}[command]
    lengths, peaks = (32000, 128000), []
    for n in lengths:
        for seed, (path, _) in enumerate(stems):
            write_wav(path, AudioBuffer(np.random.default_rng(seed).uniform(-0.8, 0.8, n), 22050))
        code, peak = _traced_peak(lambda: cli.main(argv))
        assert code == 0, capsys.readouterr().err
        peaks.append(peak)
    growth = (peaks[1] - peaks[0]) / (lengths[1] - lengths[0])
    assert growth <= bound, (growth, peaks)


def test_training_matrices_equal_stacked_songs(window_corpus):
    stft_cfg, patch_cfg = StftConfig(64, 16), PatchConfig(width=8, train_stride=3)
    X, Y, _ = build_training_set(window_corpus, stft_cfg, patch_cfg)
    x, y = _training_set_by_hand(window_corpus, stft_cfg, patch_cfg)
    assert np.array_equal(X, x)
    assert np.array_equal(Y, y)
    V_v, V_nv = _class_matrices(window_corpus, stft_cfg, patch_cfg)
    for V, mix_index in ((V_v, 0), (V_nv, 1)):
        cols = [_unit_windows_by_hand(pool_and_mix(load_song(s))[mix_index], stft_cfg, patch_cfg)
                for s in window_corpus]
        assert np.array_equal(V, np.concatenate(cols, axis=1))


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


def test_confidence_grid_nmf(tiny_corpus):
    cfg = _small_cfg()
    model = train_nmf(tiny_corpus["train_songs"], cfg)
    stems = load_song(tiny_corpus["test_songs"][0])
    _, _, full_mix = pool_and_mix(stems)
    mean, spec = confidence_grid(full_mix, model, cfg)
    assert mean.values.shape == spec.bins.shape
    assert mean.values.min() >= 0.0 and mean.values.max() <= 1.0


def test_nmf_training_and_separation_reach_the_public_fits(tiny_corpus, monkeypatch):
    # the benchmark's traced run times nmf_factorize and infer_activations by
    # wrapping them, so training and separation must call through them
    calls = {"nmf_factorize": 0, "infer_activations": 0}
    for name in calls:
        def counted(*args, _fit=getattr(nmf, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fit(*args, **kwargs)
        monkeypatch.setattr(nmf, name, counted)
    cfg = _small_cfg()
    model = train_nmf(tiny_corpus["train_songs"], cfg)
    assert calls == {"nmf_factorize": 2, "infer_activations": 0}
    _, _, full_mix = pool_and_mix(load_song(tiny_corpus["test_songs"][0]))
    confidence_grid(full_mix, model, cfg)
    assert calls["nmf_factorize"] == 2 and calls["infer_activations"] >= 1


# ---------------------------------------------------------------------------
# separation windows in blocks
# ---------------------------------------------------------------------------

def _untrained_model(method, cfg, seed=0):
    """A small DNN or NMF model for 22050 Hz audio on cfg's grid."""
    front_end = FrontEnd(22050, cfg.stft.frame_len, cfg.stft.hop, cfg.patch.width)
    d = front_end.window_size
    if method == METHOD_DNN:
        return init_model([d, 8, d], seed=seed, front_end=front_end)
    rng = np.random.default_rng(seed)
    return NmfModel(rng.uniform(0.1, 1, (d, 3)), rng.uniform(0.1, 1, (d, 4)), front_end)


def _mixture_with_windows(n_windows, cfg, seed=0):
    """Noise whose spectrogram has exactly n_windows stride-1 windows."""
    n_frames = n_windows + cfg.patch.width - 1
    n = (n_frames - 1) * cfg.stft.hop + cfg.stft.frame_len
    return AudioBuffer(np.random.default_rng(seed).uniform(-0.8, 0.8, n), 22050)


def _whole_mixture_grid(mix, model, cfg, seed):
    """Every window of the mixture in one stack, predicted and averaged at once."""
    mag = np.abs(stft(mix, cfg.stft).bins)
    windows = extract_patches(mag / mag.max(), cfg.patch, 1)
    predict = model.predictor(windows.n_patches, cfg.nmf_infer_iters, seed)
    return repack_mean(predict(windows, 0), 1, mag.shape[1])


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


# ---------------------------------------------------------------------------
# the model's front end is separation's one grid
# ---------------------------------------------------------------------------

def _model_grid_cfg(**overrides):
    """_small_cfg on the grid of the models below: 512/128 STFT, 10-frame windows."""
    return _small_cfg(**{"stft": StftConfig(frame_len=512, hop=128),
                         "patch": PatchConfig(width=10), "nmf_infer_iters": 5, **overrides})


def _noise(n, sample_rate=22050, seed=5):
    return AudioBuffer(np.random.default_rng(seed).uniform(-0.8, 0.8, n), sample_rate)


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_separation_ignores_the_grid_in_cfg(method):
    # a cfg at hop 512 and width 5 changes nothing: the model's hop 128 and
    # width 10 are the grid
    model_cfg = _model_grid_cfg()
    other = _model_grid_cfg(stft=StftConfig(frame_len=512, hop=512),
                            patch=PatchConfig(width=5))
    model = _untrained_model(method, model_cfg)
    mix = _noise(6000)
    want = separate_song(mix, model, 0.4, model_cfg, infer_seed=2)
    for got, ref in zip(separate_song(mix, model, 0.4, other, infer_seed=2), want):
        assert np.array_equal(got.samples, ref.samples)
    (got, got_spec), (ref, ref_spec) = (confidence_grid(mix, model, cfg, infer_seed=2)
                                        for cfg in (other, model_cfg))
    assert np.array_equal(got.values, ref.values)
    assert got_spec.config == StftConfig(frame_len=512, hop=128)
    assert np.array_equal(got_spec.bins, ref_spec.bins)


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_separation_rejects_audio_at_another_rate(monkeypatch, method):
    cfg = _model_grid_cfg()
    model = _untrained_model(method, cfg)
    monkeypatch.setattr(type(model), "predictor",
                        lambda *args: pytest.fail("a window was predicted"))
    message = "^the mixture is at 8000 Hz, but the model was trained at 22050 Hz$"
    with pytest.raises(FrontEndMismatch, match=message):
        separate_song(_noise(6000, 8000), model, 0.5, cfg)
    with pytest.raises(FrontEndMismatch, match=message):
        confidence_grid(_noise(6000, 8000), model, cfg)


def test_confidence_grid_rejects_a_spectrogram_on_another_grid():
    cfg = _model_grid_cfg()
    model = _untrained_model(METHOD_DNN, cfg)
    samples = _noise(6000).samples
    with pytest.raises(FrontEndMismatch, match="hop=256.* is not the model's .*hop=128"):
        confidence_grid(stft(AudioBuffer(samples, 22050), StftConfig(512, 256)), model, cfg)
    with pytest.raises(FrontEndMismatch, match="is at 16000 Hz, but .* at 22050 Hz$"):
        confidence_grid(stft(AudioBuffer(samples, 16000), cfg.stft), model, cfg)


def test_bare_network_cannot_separate():
    cfg = _model_grid_cfg()
    bare = init_model(cfg.layer_sizes, seed=0)
    with pytest.raises(ValueError, match="^a bare network, which records no front end, "
                                         "cannot separate$"):
        separate_song(_noise(6000), bare, 0.5, cfg)
    with pytest.raises(ValueError, match="bare network"):
        confidence_grid(_noise(6000), bare, cfg)


def test_sweep_rejects_models_whose_front_ends_differ(tiny_corpus, tmp_path):
    # the two grids differ only in hop, so the window sizes agree
    cfg = _small_cfg()
    models = {METHOD_DNN: _untrained_model(METHOD_DNN, cfg),
              METHOD_NMF: _untrained_model(METHOD_NMF, _small_cfg(
                  stft=StftConfig(frame_len=256, hop=128)))}
    paths = [tmp_path / name for name in ("fig2.csv", "fig3.csv", "per_song.csv")]
    with pytest.raises(FrontEndMismatch, match="^the models' front ends differ: "
                                               "dnn .*hop=64.*, nmf .*hop=128"):
        run_sweep_to_csv(tiny_corpus["test_songs"], models, cfg, *paths)
    assert not any(p.exists() for p in paths)


# ---------------------------------------------------------------------------
# streamed separation
# ---------------------------------------------------------------------------

def _whole_song_reference(mix, model, alpha, cfg, seed):
    """The whole-song separation that streaming must reproduce bit for bit:
    every grid of the song held at once, one draw of every window's starting
    NMF activations, the windows predicted in blocks of _WINDOW_BLOCK, and the
    inverse STFT of each masked grid done in one piece."""
    spec = stft(mix, cfg.stft)
    norm = np.abs(spec.bins) / np.abs(spec.bins).max()
    F, N = norm.shape
    T, block = cfg.patch.width, pipeline._WINDOW_BLOCK
    n_windows = max(N - T + 1, 1)
    acc = np.zeros((n_windows - 1 + T, F))      # frame-major, like the window rows
    counts = np.zeros(n_windows - 1 + T, dtype=np.int64)
    if isinstance(model, NmfModel):
        rank = model.rank_vocal + model.rank_nonvocal
        start = 1.0 - np.random.default_rng(seed).random((rank, n_windows))
    for first in range(0, n_windows, block):
        windows = extract_patches(norm[:, first:first + block + T - 1], cfg.patch, 1)
        if isinstance(model, NmfModel):
            H0 = start[:, first:first + windows.n_patches]
            W = np.concatenate([model.w_vocal, model.w_nonvocal], axis=1)
            H, _ = nmf.infer_activations(windows.rows.T, W, cfg.nmf_infer_iters, H0=H0)
            v, nv = model.w_vocal @ H[:model.rank_vocal], model.w_nonvocal @ H[model.rank_vocal:]
            total = v + nv
            share = np.where(total > 0.0, v / np.where(total > 0.0, total, 1.0), 0.5)
            preds = windows.predictions(share.T)
        else:
            preds = predict_masks(model, windows)
        overlap_add(preds.patches.transpose(0, 2, 1), 1, acc[first:])
        overlap_add(np.ones((preds.n_patches, T), dtype=np.int64), 1, counts[first:])
    mean = (acc[:N] / counts[:N, None]).T
    fl, hop = cfg.stft.frame_len, cfg.stft.hop
    window = hann_window(fl)
    outputs = []
    for keep in (mean > alpha, mean < 1.0 - alpha):
        frames = np.fft.irfft((spec.bins * keep.astype(np.float64)).T, n=fl, axis=1)
        sums, env = np.zeros((N - 1) * hop + fl), np.zeros((N - 1) * hop + fl)
        overlap_add(frames * window, hop, sums)
        overlap_add(np.broadcast_to(window * window, frames.shape), hop, env)
        outputs.append(np.where(env > 1e-12, sums / np.maximum(env, 1e-12), 0.0)[:len(mix)])
    return outputs


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
@pytest.mark.parametrize("n", [40, 624, 700, 1013, 2417])
def test_streamed_separation_equals_whole_song_reference(monkeypatch, tmp_path, method, n):
    # frame 64, hop 16, width 5 and blocks of 16 windows: 40 samples give one
    # zero-padded window; 624 give exactly two blocks; 700, 1013 and 2417 end
    # mid-hop and give 3, 4 and 10 blocks, the last one partial
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16), nmf_infer_iters=10)
    model = _untrained_model(method, cfg)
    monkeypatch.setattr(pipeline, "_WINDOW_BLOCK", 16)
    path = tmp_path / "mix.wav"
    write_wav(path, AudioBuffer(np.random.default_rng(n).uniform(-0.8, 0.8, n), 22050))
    mix = read_wav(path)
    expect = _whole_song_reference(mix, model, 0.45, cfg, seed=3)
    for got, ref in zip(separate_song(mix, model, 0.45, cfg, infer_seed=3), expect):
        assert np.array_equal(got.samples, ref)
    separate_file(path, tmp_path / "v.wav", tmp_path / "a.wav", model, 0.45, cfg, infer_seed=3)
    for name, ref in (("v.wav", expect[0]), ("a.wav", expect[1])):
        assert np.array_equal(read_wav(tmp_path / name).samples,
                              ref.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_streamed_separation_memory_does_not_grow_with_length(tmp_path, method):
    # 2000 and 8000 windows: 4 and 16 blocks of 512; the longer mixture's
    # spectrogram alone is 4.2 MB, several times one block's working arrays
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16),
                     patch=PatchConfig(width=4, train_stride=4), nmf_infer_iters=2)
    model = _untrained_model(method, cfg)
    paths = [tmp_path / name for name in ("mix.wav", "v.wav", "a.wav")]
    peaks = []
    for n_windows in (2000, 8000):
        write_wav(paths[0], _mixture_with_windows(n_windows, cfg, seed=1))
        _, peak = _traced_peak(lambda: separate_file(*paths, model, 0.5, cfg))
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_separate_file_rejects_bad_input_before_any_output(tmp_path):
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16))
    model = _untrained_model(METHOD_DNN, cfg)
    samples = np.random.default_rng(0).uniform(-0.5, 0.5, 5000).astype("<f4")
    samples[4990] = np.nan       # in the last block that pass one reads
    path = tmp_path / "nan.wav"
    write_wav(path, AudioBuffer(np.zeros(5000), 22050))
    path.write_bytes(path.read_bytes()[:44] + samples.tobytes())
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    with pytest.raises(WavFormatError, match="non-finite"):
        separate_file(path, *outputs, model, 0.5, cfg)
    assert not any(p.exists() for p in outputs)


def test_separate_file_removes_outputs_when_pass_two_fails(tmp_path, monkeypatch):
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16))
    model = _untrained_model(METHOD_DNN, cfg)
    monkeypatch.setattr(pipeline, "_WINDOW_BLOCK", 16)
    path = tmp_path / "mix.wav"
    write_wav(path, _mixture_with_windows(100, cfg))
    blocks = []

    def failing_third_block(*args):
        blocks.append(1)
        if len(blocks) == 3:
            raise FloatingPointError("divergence became non-finite at iteration 0")
        return predict_masks(*args)
    monkeypatch.setattr(pipeline.MlpModel, "predictor",
                        lambda self, *a: lambda windows, first: failing_third_block(self, windows))
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    with pytest.raises(FloatingPointError):
        separate_file(path, *outputs, model, 0.5, cfg)
    assert not any(p.exists() for p in outputs)


def test_separate_file_needs_three_different_files(tmp_path):
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16))
    model = _untrained_model(METHOD_DNN, cfg)
    path = tmp_path / "mix.wav"
    write_wav(path, _mixture_with_windows(10, cfg))
    before = path.read_bytes()
    for outputs in ((path, tmp_path / "a.wav"), (tmp_path / "v.wav", tmp_path / "v.wav")):
        with pytest.raises(ValueError, match="must differ from the inputs and other outputs"):
            separate_file(path, *outputs, model, 0.5, cfg)
    assert path.read_bytes() == before
    assert not (tmp_path / "a.wav").exists() and not (tmp_path / "v.wav").exists()


def test_oracle_confidence_reproduces_ideal_masking():
    # feeding the true binary mask through the thresholding path must match
    # the dedicated oracle separation bit for bit
    stems = _toy_stems(n=2944, seed=8)
    stft_cfg = StftConfig(frame_len=512, hop=128)
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(stems)
    mag_v = np.abs(stft(vocal_mix, stft_cfg).bins)
    mag_nv = np.abs(stft(nonvocal_mix, stft_cfg).bins)
    ibm = ideal_binary_mask(mag_v, mag_nv)
    spec = stft(full_mix, stft_cfg)
    mean = MeanPrediction(values=ibm.values)
    est_v, est_nv = pipeline._masked_inversions(spec, pipeline._confidence_masks(mean, 0.5))
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
    zero_model = MlpModel([d, d], [np.zeros((d, d))], [np.zeros(d)],
                          FrontEnd(22050, frame_len=512, hop=128, width=10))
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
    songs = tiny_corpus["test_songs"] + tiny_corpus["train_songs"]
    sweep = sweep_alpha(songs, {}, cfg)
    assert sweep.methods == (METHOD_IDEAL, METHOD_MIXTURE)
    assert [song_id for song_id, _ in sweep.songs] == [song.song_id for song in songs]
    for _, scores in sweep.songs:
        assert list(scores) == [METHOD_IDEAL, METHOD_MIXTURE]
        for method in (METHOD_IDEAL, METHOD_MIXTURE):
            # scored once per song: one object stands at every alpha
            assert list(scores[method]) == list(cfg.alphas)
            first, *rest = scores[method].values()
            assert all(pm is first for pm in rest)
        pm = scores[METHOD_IDEAL][cfg.alphas[0]]
        assert pm[VOCAL].sir_db > pm["mean"].sir_db or np.isfinite(pm["mean"].sir_db)


def test_sweep_pools_each_song_once(tiny_corpus, monkeypatch):
    calls = []

    def counted(stems):
        calls.append(stems.song_id)
        return pool_and_mix(stems)
    monkeypatch.setattr(pipeline, "pool_and_mix", counted)
    songs = tiny_corpus["train_songs"]
    sweep_alpha(songs, {}, _small_cfg())
    assert calls == [song.song_id for song in songs]


def test_sweep_transforms_each_full_mix_once(tiny_corpus, monkeypatch):
    # per song: the vocal mix, the accompaniment mix and the full mix, which
    # both models' grids and the ideal row share
    cfg = _small_cfg()
    models = {METHOD_DNN: _untrained_model(METHOD_DNN, cfg),
              METHOD_NMF: _untrained_model(METHOD_NMF, cfg)}
    calls = []

    def counted(buffer, stft_cfg=None):
        calls.append(len(buffer))
        return stft(buffer, stft_cfg)
    monkeypatch.setattr(pipeline, "stft", counted)
    songs = tiny_corpus["test_songs"] * 2
    sweep_alpha(songs, models, cfg)
    assert len(calls) == 3 * len(songs)


@pytest.mark.parametrize("method", [METHOD_DNN, METHOD_NMF])
def test_sweep_memory_grows_with_song_length_at_a_bounded_rate(tmp_path, method):
    """The sweep holds each song whole (stems, mixes, spectrogram, oracle mask,
    confidence grid, masked inversions), so its peak grows with the song.
    Between songs of 2000 and 8000 windows at frame 64, hop 16, the traced
    peak grew 227 bytes per added sample with either model when this test was
    written: about seven of the mixture's complex spectrograms, at 33 bytes per
    sample each. The bound, 240, lies below the 260 that one more whole-song
    spectrogram kept alive gives. tracemalloc sees numpy's arrays but not the
    BLAS library's workspace, so this bounds the arrays alone."""
    cfg = _small_cfg(stft=StftConfig(frame_len=64, hop=16),
                     patch=PatchConfig(width=4, train_stride=4), nmf_infer_iters=2)
    models = {method: _untrained_model(method, cfg)}
    stems = [(tmp_path / f"{label}.wav", label) for label in (VOCAL, NON_VOCAL)]
    lengths, peaks = [], []
    for n_windows in (2000, 8000):
        for seed, (path, _) in enumerate(stems):
            write_wav(path, stem := _mixture_with_windows(n_windows, cfg, seed=seed))
        _, peak = _traced_peak(lambda: sweep_alpha([ManifestSong("song", stems)], models, cfg))
        lengths.append(len(stem))
        peaks.append(peak)
    growth = (peaks[1] - peaks[0]) / (lengths[1] - lengths[0])
    assert growth <= 240, (growth, peaks)


def test_mixture_baseline_scores_identical_estimates(tiny_corpus):
    cfg = _small_cfg()
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, cfg)
    _, scores = sweep.songs[0]
    pm = scores[METHOD_MIXTURE][cfg.alphas[0]]
    assert all(scores[METHOD_MIXTURE][alpha] is pm for alpha in cfg.alphas)
    # both "estimates" are the same mixture, so the two sources' SDR differ
    # only through their references
    assert np.isfinite(pm[VOCAL].sir_db)
    assert np.isfinite(pm[NON_VOCAL].sir_db)


def test_fig2_rows_layout(tiny_corpus):
    cfg = _small_cfg()
    sweep = sweep_alpha(tiny_corpus["test_songs"], {}, cfg)
    lines, _ = figure_rows(sweep)
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
    _, f3 = figure_rows(sweep)
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
    lines, _ = figure_rows(sweep)
    single, _ = figure_rows(sweep_alpha(tiny_corpus["test_songs"], {}, cfg))
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


class _FullDisk:
    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("existing", [False, True])
def test_sweep_writes_all_its_csvs_or_none(tiny_corpus, tmp_path, monkeypatch, existing):
    paths = [tmp_path / f"{name}.csv" for name in ("fig2", "fig3", "per")]
    if existing:
        for p in paths:
            p.write_text(f"old {p.name}\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []
    real = pipeline.output_file

    @contextlib.contextmanager
    def per_song_write_fails(path):
        opened.append(path)
        with real(path) as fh:
            yield _FullDisk() if path == paths[2] else fh

    monkeypatch.setattr(pipeline, "output_file", per_song_write_fails)
    with pytest.raises(OSError, match="No space left"):
        run_sweep_to_csv(tiny_corpus["test_songs"], {}, _small_cfg(), *paths)
    assert opened == paths
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_sweep_scores_exactly_what_separation_gives(tiny_corpus):
    # three test songs, so that each song's inference seed is checked too
    cfg = _small_cfg(alphas=(0.3, 0.5, 0.7))
    models = {METHOD_DNN: train_dnn(tiny_corpus["train_songs"], cfg)[0],
              METHOD_NMF: train_nmf(tiny_corpus["train_songs"], cfg)}
    songs = tiny_corpus["test_songs"] + tiny_corpus["train_songs"]
    sweep = sweep_alpha(songs, models, cfg)
    for i, (song, (song_id, scores)) in enumerate(zip(songs, sweep.songs, strict=True)):
        assert song_id == song.song_id
        vocal_mix, nonvocal_mix, full_mix = pool_and_mix(load_song(song))
        for method, model in models.items():
            for alpha in cfg.alphas:
                est_v, est_nv = separate_song(full_mix, model, alpha, cfg,
                                              infer_seed=cfg.seed + 7000 + i)
                assert scores[method][alpha] == evaluate_pair(
                    est_v.samples, est_nv.samples, vocal_mix.samples, nonvocal_mix.samples)


def test_sweep_with_models_covers_all_alphas(tiny_corpus):
    cfg = _small_cfg()
    dnn, _ = train_dnn(tiny_corpus["train_songs"], cfg)
    nmf = train_nmf(tiny_corpus["train_songs"], cfg)
    sweep = sweep_alpha(tiny_corpus["test_songs"],
                        {METHOD_DNN: dnn, METHOD_NMF: nmf}, cfg)
    assert sweep.methods == (METHOD_DNN, METHOD_NMF, METHOD_IDEAL, METHOD_MIXTURE)
    _, scores = sweep.songs[0]
    assert list(scores) == list(sweep.methods)
    assert all(list(per_alpha) == list(cfg.alphas) for per_alpha in scores.values())
    lines, _ = figure_rows(sweep)
    assert len(lines) == 1 + 2 * 4 * 3
    ps = per_song_rows(sweep)
    assert len(ps) == 1 + 1 * 4 * 2 * 3


def test_fig3_rows_repeat_the_fig2_cells(tiny_corpus):
    # both tables come from one pass: each fig3 row is the alpha, method,
    # source, SIR and SAR of the fig2 row at its index
    cfg = _small_cfg()
    models = {METHOD_DNN: train_dnn(tiny_corpus["train_songs"], cfg)[0],
              METHOD_NMF: train_nmf(tiny_corpus["train_songs"], cfg)}
    songs = tiny_corpus["test_songs"] + tiny_corpus["train_songs"][:1]
    fig2, fig3 = figure_rows(sweep_alpha(songs, models, cfg))
    assert (fig2[0], fig3[0]) == (FIG2_HEADER, FIG3_HEADER)
    assert len(fig2) == len(fig3) == 1 + 2 * 4 * 3
    for row2, row3 in zip(fig2[1:], fig3[1:]):
        fields = row2.split(",")
        assert row3.split(",") == fields[:3] + fields[4:6]


def test_csv_tables_refuse_one_path_twice(tiny_corpus, tmp_path, monkeypatch):
    target = tmp_path / "t.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="an output must differ"):
        pipeline.write_csv((target, ["a", "b"]), (target, ["c"]))
    scored, real = [], pipeline._evaluate_song

    def counted(song, *args):
        scored.append(song.song_id)
        return real(song, *args)
    monkeypatch.setattr(pipeline, "_evaluate_song", counted)
    # refused before any song is read or scored
    with pytest.raises(ValueError, match="an output must differ"):
        run_sweep_to_csv(tiny_corpus["test_songs"], {}, _small_cfg(), target, fig3_path=target)
    assert scored == []
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
