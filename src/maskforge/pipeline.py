"""End-to-end orchestration: corpus -> training sets -> models -> sweep CSVs.

The alpha sweep evaluates every requested separation method on every test
song across a confidence grid. Thresholding is cheap next to model inference,
so each song's mean-confidence grid is computed once per method and re-cut
for every alpha. Rows are aggregated across songs with Student-t confidence
intervals and written in a canonical sort order, making repeat runs with the
same seeds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from . import mlp, nmf
from .audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    load_song,
    pool_and_mix,
)
from .bss_eval import PairMetrics, SeparationMetrics, evaluate_pair
from .masking import (
    BinaryMask,
    apply_mask,
    ideal_binary_mask,
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from .mlp import MlpModel, TrainConfig, init_model, train_sgd
from .nmf import NmfModel, nmf_train_class
from .patching import (
    KIND_TARGET,
    MeanPrediction,
    PatchConfig,
    extract_patches,
    normalize_unit_scale,
    patch_offsets,
    repack_accumulate,
    repack_finish,
)
from .stft import (
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    StftConfig,
    istft,
    magnitude,
    stft,
)

METHOD_DNN = "dnn"
METHOD_NMF = "nmf"
METHOD_IDEAL = "ideal"
METHOD_MIXTURE = "mixture"

# Each model kind owns its file format, patch-shape check and block predictor.
Model = MlpModel | NmfModel
_MODEL_FILES = {mlp.MAGIC: (METHOD_DNN, mlp.load_model),
                nmf.MAGIC: (METHOD_NMF, nmf.load_nmf)}

_SOURCE_ORDER = (VOCAL, NON_VOCAL, "mean")

FIG2_HEADER = "alpha,method,source,sdr_db,sir_db,sar_db,ci95"
FIG3_HEADER = "alpha,method,scope,sir_db,sar_db"
PER_SONG_HEADER = "song_id,method,alpha,source,sdr_db,sir_db,sar_db"


@dataclass
class ExperimentConfig:
    """Desk-scale defaults, sized for minutes-long runs.

    The epoch/learning-rate pair is calibrated: longer or hotter training
    saturates predictions toward {0,1}, which flattens the confidence sweep
    (the masks stop responding to alpha) even though raw SIR keeps climbing.
    """

    stft: StftConfig = field(default_factory=lambda: StftConfig(frame_len=512, hop=128))
    patch: PatchConfig = field(default_factory=lambda: PatchConfig(width=10, train_stride=10))
    alphas: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    hidden: tuple[int, ...] = (1024,)
    epochs: int = 4
    learning_rate: float = 0.002
    loss: str = "cross_entropy"
    nmf_rank: int = 40
    nmf_train_iters: int = 200
    nmf_infer_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("need at least one alpha")
        if any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("alphas must lie strictly inside (0, 1)")

    @property
    def layer_sizes(self) -> list[int]:
        d = self.stft.n_bins * self.patch.width
        return [d, *self.hidden, d]


# ---------------------------------------------------------------------------
# training-set construction
# ---------------------------------------------------------------------------

def song_training_pairs(stems: StemSet, stft_cfg: StftConfig,
                        patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mixture window, oracle mask window) vector pairs for one song."""
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(stems)
    mag_v = magnitude(stft(vocal_mix, stft_cfg))
    mag_nv = magnitude(stft(nonvocal_mix, stft_cfg))
    mag_mix = magnitude(stft(full_mix, stft_cfg))
    ibm = ideal_binary_mask(mag_v, mag_nv)
    norm_mix, _ = normalize_unit_scale(mag_mix)
    mix = extract_patches(norm_mix, patch_cfg, patch_cfg.train_stride)
    target = extract_patches(MagnitudeSpectrogram(ibm.values), patch_cfg,
                             patch_cfg.train_stride, kind=KIND_TARGET)
    return mix.rows, target.rows


def build_training_set(songs: list[ManifestSong], stft_cfg: StftConfig,
                       patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stack training pairs over every manifest song."""
    if not songs:
        raise ValueError("empty manifest")
    xs, ys = [], []
    for song in songs:
        X, Y = song_training_pairs(load_song(song), stft_cfg, patch_cfg)
        xs.append(X)
        ys.append(Y)
    return np.concatenate(xs), np.concatenate(ys)


def build_class_matrices(songs: list[ManifestSong], stft_cfg: StftConfig,
                         patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Column-stacked per-class source windows for dictionary training."""
    if not songs:
        raise ValueError("empty manifest")
    v_cols, nv_cols = [], []
    for song in songs:
        stems = load_song(song)
        vocal_mix, nonvocal_mix, _ = pool_and_mix(stems)
        for target, mix in ((v_cols, vocal_mix), (nv_cols, nonvocal_mix)):
            norm, _ = normalize_unit_scale(magnitude(stft(mix, stft_cfg)))
            patches = extract_patches(norm, patch_cfg, patch_cfg.train_stride)
            target.append(patches.rows.T)
    return np.concatenate(v_cols, axis=1), np.concatenate(nv_cols, axis=1)


def train_dnn(songs: list[ManifestSong], cfg: ExperimentConfig) -> tuple[MlpModel, np.ndarray]:
    X, Y = build_training_set(songs, cfg.stft, cfg.patch)
    model = init_model(cfg.layer_sizes, seed=cfg.seed)
    train_cfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                            loss=cfg.loss, shuffle_seed=cfg.seed)
    return train_sgd(model, X, Y, train_cfg)


def train_nmf(songs: list[ManifestSong], cfg: ExperimentConfig) -> NmfModel:
    V_v, V_nv = build_class_matrices(songs, cfg.stft, cfg.patch)
    w_v = nmf_train_class(V_v, cfg.nmf_rank, cfg.nmf_train_iters, seed=cfg.seed)
    w_nv = nmf_train_class(V_nv, cfg.nmf_rank, cfg.nmf_train_iters, seed=cfg.seed + 1)
    return NmfModel(w_v, w_nv, n_bins=cfg.stft.n_bins, width=cfg.patch.width)


def load_any_model(path: str | Path, cfg: ExperimentConfig) -> tuple[str, Model]:
    """(method, model) from a model file, its decoder picked by magic bytes;
    raises ValueError unless the model fits cfg's patch shape."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in _MODEL_FILES:
        raise ValueError(f"{path}: unrecognized model file")
    method, load = _MODEL_FILES[magic]
    model = load(path)
    model.check_patch_shape(cfg.stft.n_bins, cfg.patch.width)
    return method, model


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

# Windows that separation cuts, predicts and accumulates at a time; a 1.8 s
# desk song (about 300 windows) is one block.
_WINDOW_BLOCK = 512


def confidence_grid(mix: AudioBuffer, model: Model, cfg: ExperimentConfig,
                    infer_seed: int = 0) -> tuple[MeanPrediction, ComplexSpectrogram]:
    """Mean per-element vocal confidence for a mixture, plus its spectrogram.

    All alpha thresholds derive from this one grid, so a sweep reuses it. The
    stride-1 windows are cut, predicted and added into one sum grid in blocks
    of _WINDOW_BLOCK, in offset order, so the memory they take does not grow
    with the mixture's length.
    """
    spec = stft(mix, cfg.stft)
    norm, _ = normalize_unit_scale(magnitude(spec))
    F, N = norm.values.shape
    T = cfg.patch.width
    n_windows = len(patch_offsets(N, T, 1))
    padded = n_windows - 1 + T
    # the sum grid is stored frame-major, like the windows added into it
    acc, counts = np.zeros((padded, F)).T, np.zeros(padded, dtype=np.int64)
    predict = model.predictor(n_windows, cfg.nmf_infer_iters, infer_seed)
    for first in range(0, n_windows, _WINDOW_BLOCK):
        frames = MagnitudeSpectrogram(norm.values[:, first:first + _WINDOW_BLOCK + T - 1])
        preds = predict(extract_patches(frames, cfg.patch, 1), first)
        repack_accumulate(preds.patches, preds.offsets + first, acc, counts)
    return repack_finish(acc, counts, N), spec


def threshold_and_invert(mean: MeanPrediction, spec: ComplexSpectrogram,
                         alpha: float) -> tuple[AudioBuffer, AudioBuffer]:
    """Confidence grid -> two masks -> masked inversions."""
    m_v = vocal_mask_from_confidence(mean, alpha)
    m_nv = nonvocal_mask_from_confidence(mean, alpha)
    return istft(apply_mask(spec, m_v)), istft(apply_mask(spec, m_nv))


def separate_song(mix: AudioBuffer, model: Model, alpha: float,
                  cfg: ExperimentConfig,
                  infer_seed: int = 0) -> tuple[AudioBuffer, AudioBuffer]:
    """One mixture, one model, one alpha -> (vocal estimate, accompaniment)."""
    mean, spec = confidence_grid(mix, model, cfg, infer_seed=infer_seed)
    return threshold_and_invert(mean, spec, alpha)


def ideal_mask_separate(stems: StemSet,
                        stft_cfg: StftConfig) -> tuple[AudioBuffer, AudioBuffer]:
    """Oracle separation: the true-source mask applied to the true mixture."""
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(stems)
    mag_v = magnitude(stft(vocal_mix, stft_cfg))
    mag_nv = magnitude(stft(nonvocal_mix, stft_cfg))
    spec = stft(full_mix, stft_cfg)
    ibm = ideal_binary_mask(mag_v, mag_nv)
    complement = BinaryMask(1.0 - ibm.values, source_tag=NON_VOCAL)
    return istft(apply_mask(spec, ibm)), istft(apply_mask(spec, complement))


# ---------------------------------------------------------------------------
# alpha sweep and CSV emission
# ---------------------------------------------------------------------------

@dataclass
class SongResult:
    song_id: str
    # per method: alpha -> PairMetrics; alpha-independent methods use key None
    metrics: dict[str, dict[float | None, PairMetrics]]

    def at(self, method: str, alpha: float) -> PairMetrics:
        per_alpha = self.metrics[method]
        return per_alpha.get(alpha, per_alpha.get(None))


@dataclass
class SweepResult:
    songs: list[SongResult]
    alphas: tuple[float, ...]
    methods: tuple[str, ...]


def _evaluate_song(song: ManifestSong, models: dict[str, Model],
                   cfg: ExperimentConfig, song_index: int) -> SongResult:
    stems = load_song(song)
    vocal_mix, nonvocal_mix, full_mix = pool_and_mix(stems)
    ref_v, ref_nv = vocal_mix.samples, nonvocal_mix.samples
    out: dict[str, dict[float | None, PairMetrics]] = {}

    for method, model in models.items():
        mean, spec = confidence_grid(full_mix, model, cfg,
                                     infer_seed=cfg.seed + 7000 + song_index)
        per_alpha: dict[float | None, PairMetrics] = {}
        for alpha in cfg.alphas:
            est_v, est_nv = threshold_and_invert(mean, spec, alpha)
            per_alpha[alpha] = evaluate_pair(est_v.samples, est_nv.samples,
                                             ref_v, ref_nv)
        out[method] = per_alpha

    est_v, est_nv = ideal_mask_separate(stems, cfg.stft)
    out[METHOD_IDEAL] = {None: evaluate_pair(est_v.samples, est_nv.samples,
                                             ref_v, ref_nv)}
    out[METHOD_MIXTURE] = {None: evaluate_pair(full_mix.samples, full_mix.samples,
                                               ref_v, ref_nv)}
    return SongResult(song.song_id, out)


def sweep_alpha(songs: list[ManifestSong], models: dict[str, Model],
                cfg: ExperimentConfig) -> SweepResult:
    """Evaluate every model on every test song across the alpha grid.

    Songs run one after another; the large matrix products inside each song
    are already spread over the cores by the BLAS library's own threads.
    """
    if not songs:
        raise ValueError("no test songs")
    results = [_evaluate_song(song, models, cfg, i) for i, song in enumerate(songs)]
    methods = (*models.keys(), METHOD_IDEAL, METHOD_MIXTURE)
    return SweepResult(songs=results, alphas=cfg.alphas, methods=methods)


def _fmt(x: float) -> str:
    return "%.6f" % x


def _mean_and_ci(values: list[float]) -> tuple[float, str]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(arr))
    if len(arr) < 2 or not np.all(np.isfinite(arr)):
        return mean, ""
    sem = float(np.std(arr, ddof=1)) / np.sqrt(len(arr))
    half = float(stats.t.ppf(0.975, len(arr) - 1)) * sem
    return mean, _fmt(half)


def by_source(pm: PairMetrics) -> dict[str, SeparationMetrics]:
    """The pair's metrics keyed by CSV source name, in CSV order."""
    return dict(zip(_SOURCE_ORDER, (pm.vocal, pm.nonvocal, pm.mean)))


def per_song_row(song_id: str, method: str, alpha: float, source: str,
                 m: SeparationMetrics) -> str:
    """One PER_SONG_HEADER row."""
    return ",".join([song_id, method, "%g" % alpha, source,
                     _fmt(m.sdr_db), _fmt(m.sir_db), _fmt(m.sar_db)])


def _cells(sweep: SweepResult):
    """(alpha, method, source, per-song sdr, sir and sar columns) for each
    aggregate row, in CSV order."""
    for alpha in sweep.alphas:
        for method in sorted(sweep.methods):
            for source in _SOURCE_ORDER:
                yield alpha, method, source, zip(*(
                    by_source(song.at(method, alpha))[source].as_tuple()
                    for song in sweep.songs))


def fig2_rows(sweep: SweepResult) -> list[str]:
    """alpha,method,source,sdr_db,sir_db,sar_db,ci95 (ci95 is the SDR CI)."""
    lines = [FIG2_HEADER]
    for alpha, method, source, (sdr, sir, sar) in _cells(sweep):
        sdr_mean, ci = _mean_and_ci(sdr)
        lines.append(",".join(["%g" % alpha, method, source, _fmt(sdr_mean),
                               _fmt(np.mean(sir)), _fmt(np.mean(sar)), ci]))
    return lines


def fig3_rows(sweep: SweepResult) -> list[str]:
    """alpha,method,scope,sir_db,sar_db for the SAR-vs-SIR trajectory."""
    lines = [FIG3_HEADER]
    for alpha, method, scope, (_, sir, sar) in _cells(sweep):
        lines.append(",".join(["%g" % alpha, method, scope,
                               _fmt(np.mean(sir)), _fmt(np.mean(sar))]))
    return lines


def per_song_rows(sweep: SweepResult) -> list[str]:
    """song_id,method,alpha,source,sdr_db,sir_db,sar_db with one row per cell."""
    lines = [PER_SONG_HEADER]
    for song in sorted(sweep.songs, key=lambda s: s.song_id):
        for method in sorted(sweep.methods):
            for alpha in sweep.alphas:
                for source, m in by_source(song.at(method, alpha)).items():
                    lines.append(per_song_row(song.song_id, method, alpha, source, m))
    return lines


def write_csv(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep_to_csv(songs: list[ManifestSong],
                     models: dict[str, Model],
                     cfg: ExperimentConfig, fig2_path: str | Path,
                     fig3_path: str | Path | None = None,
                     per_song_path: str | Path | None = None) -> SweepResult:
    sweep = sweep_alpha(songs, models, cfg)
    write_csv(fig2_path, fig2_rows(sweep))
    if fig3_path is not None:
        write_csv(fig3_path, fig3_rows(sweep))
    if per_song_path is not None:
        write_csv(per_song_path, per_song_rows(sweep))
    return sweep
