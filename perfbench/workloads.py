"""The benchmark's workloads: set-up, measured phases, per-layer figures, checks.

Every run of every workload does the same three phases, because every run
reports every end-to-end metric:

1. Set-up, timed three times and reported as the median `setup_s`: write the
   synthetic desk corpus (20 training and 5 test songs of 1.8 s) and a
   mixture seeded by --seed, which phase 3 separates, with its references.
2. The desk journey: train the DNN (three times, identically, for a steadier
   median) and the NMF dictionaries on the 20 training songs, then
   `maskforge sweep-alpha` over the 5 test songs, 9 alphas, both models plus
   the ideal and mixture rows, into three CSVs.
3. Separation rounds of `maskforge separate` at alpha 0.5: one untimed
   warm-up round, then timed rounds until `--seconds` of them have run. The
   workloads differ here: `desk` separates a 1.8 s mixture with each model,
   `separate-dnn` a 20 s mixture with the DNN, `separate-nmf` a 4 s mixture
   with the NMF dictionaries. Phase 3 runs in a child process forked right
   after set-up, which waits until the journey has written the models, so
   that it starts from the state a fresh `maskforge separate` starts from:
   run in the journey's process, a 20 s DNN separation took 0.63 s in some
   runs and up to 1.1 s in others.

The model sizes and iteration counts are smaller than `ExperimentConfig`'s
defaults so that one run takes about half a minute on two cores; README.md
gives the reasons and the figures.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

import maskforge
from maskforge import (
    AudioBuffer,
    ExperimentConfig,
    StemSet,
    SynthConfig,
    cli,
    generate_corpus,
    load_manifest,
    pool_and_mix,
    read_wav,
    save_model,
    save_nmf,
    separate_song,
    train_dnn,
    train_nmf,
    write_wav,
)
from maskforge import bss_eval, mlp, nmf, pipeline

SAMPLE_RATE = 22050
SONG_SECONDS = 1.8
TRAIN_SONGS = 20
TEST_SONGS = 5
ALPHAS = "0.1:0.9:0.1"
N_ALPHAS = 9
SEPARATE_ALPHA = "0.5"
SETUP_REPEATS = 3
# The DNN is trained this many times, identically (same data and seeds), and
# `train_dnn_s` is the median: a single-threaded 4 s phase on a shared machine
# swings by 25% or more with bursts of load from other tenants.
DNN_REPEATS = 3
# The training and test songs and the model seeds are the same in every run
# (1234 is `maskforge make-corpus`'s default seed), so the desk journey is
# deterministic and its quality figures compare exactly across runs: with
# models this small, the draw of the songs or of the initial weights moves
# the mean SDR by 20% or more. --seed picks the mixture that phase 3
# separates.
CORPUS_SEED = 1234

CONFIG = ExperimentConfig(
    hidden=(128,), epochs=2, learning_rate=0.03,
    nmf_train_iters=20, nmf_infer_iters=25,
)

# The sweep's CSVs: 4 methods (dnn, nmf, ideal, mixture) x 3 sources per alpha.
FIG2_ROWS = N_ALPHAS * 4 * 3
PER_SONG_ROWS = TEST_SONGS * N_ALPHAS * 4 * 3


@dataclass(frozen=True)
class Workload:
    mixture_seconds: float      # length of the mixture phase 3 separates
    models: tuple[str, ...]     # models each separation round uses


WORKLOADS = {
    "desk": Workload(SONG_SECONDS, ("dnn", "nmf")),
    "separate-dnn": Workload(20.0, ("dnn",)),
    "separate-nmf": Workload(4.0, ("nmf",)),
}


@dataclass
class Inputs:
    train_manifest: Path
    test_manifest: Path
    mixture: Path
    ref_vocal: np.ndarray
    ref_accomp: np.ndarray


def _stems(manifest_path: Path, index: int = 0) -> StemSet:
    """One manifest song's stems, read with the package's WAV reader."""
    song = load_manifest(manifest_path)[index]
    return StemSet([(read_wav(p), label) for p, label in song.stems], song.song_id)


def set_up(root: Path, workload: Workload, seed: int) -> Inputs:
    """Write the corpus and the seeded mixture to separate, with its references."""
    train, test = generate_corpus(root / "corpus", TRAIN_SONGS, TEST_SONGS,
                                  SynthConfig(SAMPLE_RATE, SONG_SECONDS, CORPUS_SEED))
    _, song = generate_corpus(root / "song", 0, 1,
                              SynthConfig(SAMPLE_RATE, workload.mixture_seconds, seed))
    vocal, accomp, full = pool_and_mix(_stems(song))
    mixture = root / "mixture.wav"
    write_wav(mixture, full)
    return Inputs(train, test, mixture, vocal.samples, accomp.samples)


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Outcome:
    setup_s: list[float]
    train_dnn_s: list[float]
    train_nmf_s: float
    sweep_s: float
    separate_calls: list[tuple[str, float]]    # (model kind, wall seconds)
    audio_seconds: float
    peak_rss_mb: float
    attempted: int
    failed: int
    run_start: float
    run_end: float
    inputs: Inputs
    dnn_model: object
    nmf_model: object
    loss_trace: np.ndarray
    files: dict[str, Path]


class Separation:
    """Phase 3 in a child process, forked before the journey.

    The child waits for the model files, runs one untimed warm-up round and
    then timed rounds until `seconds` of them have run, and sends back each
    timed call's wall time, its operation counts and, in a traced run, its
    spans.
    """

    def __init__(self, workload: Workload, mixture: Path, seed: int, seconds: float,
                 tracer=None):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._tracer = tracer
        self._process = context.Process(
            target=self._child, args=(child_conn, workload, mixture, seed, seconds),
            daemon=True)
        self._process.start()
        child_conn.close()

    def _child(self, conn, workload: Workload, mixture: Path, seed: int,
               seconds: float) -> None:
        self._conn.close()          # the parent's end, so that its close reaches recv
        if self._tracer is not None:
            self._tracer.clear()    # the parent keeps what was traced before the fork
        try:
            files = conn.recv()
        except EOFError:            # the journey failed; the parent is ending
            return
        calls, attempted, failed = [], 0, 0

        def separate_round(timed: bool) -> None:
            nonlocal attempted, failed
            for kind in workload.models:
                t0 = time.perf_counter()
                rc = _quiet_cli([
                    "separate", "--model", str(files[f"{kind}.mfg"]),
                    "--alpha", SEPARATE_ALPHA, "--input", str(mixture),
                    "--out-vocal", str(files["vocal.wav"]),
                    "--out-accomp", str(files["accomp.wav"]),
                    "--nmf-iterations", str(CONFIG.nmf_infer_iters), "--seed", str(seed),
                ])
                if timed:
                    calls.append((kind, time.perf_counter() - t0))
                attempted += 1
                failed += rc != 0

        separate_round(timed=False)
        loop_start = time.perf_counter()
        while True:
            separate_round(timed=True)
            if time.perf_counter() - loop_start >= seconds:
                break
        traced = None if self._tracer is None else self._tracer.state()
        conn.send((calls, attempted, failed, traced))
        conn.close()

    def run(self, files: dict[str, Path]) -> tuple[list[tuple[str, float]], int, int]:
        """Run the rounds on the models in `files`: the timed calls, and the
        operations attempted and failed."""
        self._conn.send(files)
        calls, attempted, failed, traced = self._conn.recv()
        self.stop()
        if self._process.exitcode != 0:
            raise RuntimeError(f"separation process exited with {self._process.exitcode}")
        if traced is not None:
            self._tracer.merge(traced)
        return calls, attempted, failed

    def stop(self) -> None:
        if self._process.is_alive():
            self._conn.close()      # an idle child ends at once on end of input
            self._process.join(10)
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()


def run(workload: Workload, seed: int, seconds: float, work: Path,
        tracer=None) -> Outcome:
    """Set up SETUP_REPEATS times, then the journey once, then separation rounds."""
    run_start = time.perf_counter()
    setup_s = []
    for k in range(SETUP_REPEATS):
        root = work / f"setup{k}"
        t0 = time.perf_counter()
        inputs = set_up(root, workload, seed)
        setup_s.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(root)

    attempted = failed = 0
    files = {name: work / name for name in
             ("dnn.mfg", "nmf.mfg", "fig2.csv", "fig3.csv", "per_song.csv",
              "vocal.wav", "accomp.wav")}
    songs = load_manifest(inputs.train_manifest)

    separation = Separation(workload, inputs.mixture, seed, seconds, tracer)
    try:
        train_dnn_s = []
        for _ in range(DNN_REPEATS):
            t0 = time.perf_counter()
            dnn_model, loss_trace = train_dnn(songs, CONFIG)
            train_dnn_s.append(time.perf_counter() - t0)
        save_model(dnn_model, files["dnn.mfg"])

        t0 = time.perf_counter()
        nmf_model = train_nmf(songs, CONFIG)
        train_nmf_s = time.perf_counter() - t0
        save_nmf(nmf_model, files["nmf.mfg"])
        attempted += DNN_REPEATS + 1

        t0 = time.perf_counter()
        rc = _quiet_cli([
            "sweep-alpha", "--manifest", str(inputs.test_manifest),
            "--model", str(files["dnn.mfg"]), "--model", str(files["nmf.mfg"]),
            "--alphas", ALPHAS, "--nmf-iterations", str(CONFIG.nmf_infer_iters),
            "--csv", str(files["fig2.csv"]), "--fig3-csv", str(files["fig3.csv"]),
            "--per-song-csv", str(files["per_song.csv"]),
        ])
        sweep_s = time.perf_counter() - t0
        attempted += 1
        failed += rc != 0

        calls, n_attempted, n_failed = separation.run(files)
        attempted += n_attempted
        failed += n_failed
    finally:
        separation.stop()
    run_end = time.perf_counter()
    # the larger of the journey's peak and the separation process's
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

    return Outcome(setup_s, train_dnn_s, train_nmf_s, sweep_s, calls,
                   len(inputs.ref_vocal) / SAMPLE_RATE, peak, attempted, failed,
                   run_start, run_end, inputs, dnn_model, nmf_model, loss_trace,
                   files)


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    fig2 = checks.read_csv(out.files["fig2.csv"])

    def sdr(method: str) -> float:
        return float(checks.row(fig2, alpha=SEPARATE_ALPHA, method=method,
                                source="mean")["sdr_db"])

    # audio seconds of one separation round over its median wall time
    kinds = sorted({kind for kind, _ in out.separate_calls})
    round_s = sum(statistics.median(w for k, w in out.separate_calls if k == kind)
                  for kind in kinds)
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "train_dnn_s": (statistics.median(out.train_dnn_s), "s"),
        "train_nmf_s": (out.train_nmf_s, "s"),
        "sweep_s": (out.sweep_s, "s"),
        "dnn_sdr_db": (sdr("dnn"), "dB"),
        "nmf_sdr_db": (sdr("nmf"), "dB"),
        "separate_xrt": (out.audio_seconds * len(kinds) / round_s, "audio_s/wall_s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# traced run: timers around the public functions of each layer
# ---------------------------------------------------------------------------

def _sgd_counts(a, result):
    model = a["model"]
    sizes = model.layer_sizes
    # Computed floor of float64 weight traffic per example: every layer's
    # weights are read by the forward pass and read and written by the
    # in-place update; layers after the first are read again to back-propagate.
    passes = [3] + [4] * (len(sizes) - 2)
    per_example = 8 * sum(p * i * o for p, i, o in zip(passes, sizes[:-1], sizes[1:]))
    return {"examples": a["inputs"].shape[0] * a["cfg"].epochs,
            "max:sgd_bytes": per_example}


def _window_counts(a, result):
    P, F, T = result.patches.shape
    return {"windows": P, "max:window_bytes": 8 * P * F * T}


TARGETS = {
    # name: (function, counter)
    "train_sgd": (maskforge.train_sgd, _sgd_counts),
    "predict_masks": (mlp.predict_masks, lambda a, r: {"forward_rows": r.n_patches}),
    "nmf_factorize": (maskforge.nmf_factorize,
                      lambda a, r: {"train_iters": a["iterations"]}),
    "infer_activations": (nmf.infer_activations, lambda a, r: {
        "infer_iters": a["iterations"], "max:infer_columns": a["V"].shape[1],
        "max:infer_rows": a["V"].shape[0]}),
    "extract_patches": (maskforge.extract_patches, _window_counts),
    "repack_mean": (maskforge.repack_mean, None),
    "stft": (maskforge.stft, lambda a, r: {"frames": r.n_frames}),
    "istft": (maskforge.istft, None),
    "vocal_mask": (maskforge.vocal_mask_from_confidence, None),
    "nonvocal_mask": (maskforge.nonvocal_mask_from_confidence, None),
    "evaluate_source": (bss_eval.evaluate_source, None),
    "sweep_alpha": (maskforge.sweep_alpha, None),
    "confidence_grid": (pipeline.confidence_grid, None),
    "read_wav": (maskforge.read_wav, lambda a, r: {"read_bytes": os.path.getsize(a["path"])}),
    "write_wav": (maskforge.write_wav, None),
    "generate_corpus": (maskforge.generate_corpus, None),
}


def _kl_ms_per_call(rows: int, columns: int, repeats: int = 5) -> float:
    """One nmf.kl_divergence call at the shape NMF inference ran at."""
    rng = np.random.default_rng(0)
    V = rng.random((rows, columns))
    V_hat = rng.random((rows, columns)) + 0.5
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        nmf.kl_divergence(V, V_hat)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def per_layer(tracer, out: Outcome) -> dict[str, tuple[float, str]]:
    t, c, m = tracer.seconds, tracer.counts, tracer.maxima
    sweeps = tracer.of("sweep_alpha")
    song_threads = {s.thread for s in tracer.of("confidence_grid")
                    if any(w.start <= s.start <= w.end for w in sweeps)}
    examples = c["examples"]
    infer_iters = c["infer_iters"]
    wall = out.run_end - out.run_start
    return {
        "mlp.train_s": (t("train_sgd"), "s"),
        "mlp.sgd_examples": (examples, "count"),
        "mlp.sgd_ms_per_example": (1000.0 * t("train_sgd") / examples, "ms"),
        "mlp.sgd_bytes_per_example": (m["sgd_bytes"], "bytes_computed"),
        "mlp.forward_s": (t("predict_masks"), "s"),
        "mlp.forward_rows": (c["forward_rows"], "count"),
        "nmf.train_s": (t("nmf_factorize"), "s"),
        "nmf.train_iters": (c["train_iters"], "count"),
        "nmf.infer_s": (t("infer_activations"), "s"),
        "nmf.infer_iters": (infer_iters, "count"),
        "nmf.infer_ms_per_iter": (1000.0 * t("infer_activations") / infer_iters, "ms"),
        "nmf.kl_ms_per_call": (_kl_ms_per_call(int(m["infer_rows"]),
                                               int(m["infer_columns"])), "ms"),
        "patching.extract_s": (t("extract_patches"), "s"),
        "patching.windows": (c["windows"], "count"),
        "patching.window_bytes": (m["window_bytes"], "bytes_computed"),
        "patching.repack_s": (t("repack_mean"), "s"),
        "stft.stft_s": (t("stft"), "s"),
        "stft.frames": (c["frames"], "count"),
        "stft.istft_s": (t("istft"), "s"),
        "stft.istft_calls": (tracer.calls("istft"), "count"),
        "masking.threshold_s": (t("vocal_mask") + t("nonvocal_mask"), "s"),
        "masking.calls": (tracer.calls("vocal_mask") + tracer.calls("nonvocal_mask"), "count"),
        "bss_eval.score_s": (t("evaluate_source"), "s"),
        "bss_eval.pairs": (tracer.calls("evaluate_source") / 2.0, "count"),
        "pipeline.sweep_cpu_s": (sum(s.cpu for s in sweeps), "s"),
        "pipeline.song_threads": (len(song_threads), "count"),
        "audio_io.read_s": (t("read_wav"), "s"),
        "audio_io.read_bytes": (c["read_bytes"], "bytes"),
        "audio_io.write_s": (t("write_wav"), "s"),
        "synth.corpus_s": (t("generate_corpus"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - tracer.covered(out.run_start, out.run_end), "s"),
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _reported(rows, song_id: str, method: str, alpha: str) -> dict:
    """One song's (sdr, sir, sar) per source, as the per-song CSV gives them."""
    scores = {}
    for source in ("vocal", "non_vocal", "mean"):
        r = checks.row(rows, song_id=song_id, method=method, alpha=alpha, source=source)
        scores[source] = (float(r["sdr_db"]), float(r["sir_db"]), float(r["sar_db"]))
    return scores


def _journey_checks(out: Outcome) -> None:
    checks.check_loss_falls(out.loss_trace)
    checks.check_dictionary(out.nmf_model.w_vocal, "vocal")
    checks.check_dictionary(out.nmf_model.w_nonvocal, "non-vocal")
    fig2 = checks.read_csv(out.files["fig2.csv"])
    checks.check_row_count(fig2, FIG2_ROWS, "fig2.csv")
    checks.check_row_count(checks.read_csv(out.files["fig3.csv"]), FIG2_ROWS, "fig3.csv")
    per_song = checks.read_csv(out.files["per_song.csv"])
    checks.check_row_count(per_song, PER_SONG_ROWS, "per_song.csv")
    checks.check_sir_gain(fig2, "dnn", SEPARATE_ALPHA, 6.0)
    checks.check_alpha_trend(fig2, "dnn", "mean")

    # A sample of the sweep's scores against the DNN re-separated here.
    songs = load_manifest(out.inputs.test_manifest)
    for index in (0, len(songs) - 1):
        vocal, accomp, full = pool_and_mix(_stems(out.inputs.test_manifest, index))
        song_id = songs[index].song_id
        for alpha in ("0.3", "0.5", "0.7"):
            est_v, est_a = separate_song(full, out.dnn_model, float(alpha), CONFIG)
            checks.check_scores(_reported(per_song, song_id, "dnn", alpha),
                                est_v.samples, est_a.samples,
                                vocal.samples, accomp.samples)
        checks.check_scores(_reported(per_song, song_id, "mixture", SEPARATE_ALPHA),
                            full.samples, full.samples, vocal.samples, accomp.samples)


def _separation_checks(workload: Workload, out: Outcome) -> None:
    mix, rate = checks.read_float_wav(out.inputs.mixture)
    vocal, v_rate = checks.read_float_wav(out.files["vocal.wav"])
    accomp, a_rate = checks.read_float_wav(out.files["accomp.wav"])
    checks.check_output(vocal, v_rate, len(mix), rate, "vocal output")
    checks.check_output(accomp, a_rate, len(mix), rate, "accompaniment output")
    checks.check_partition(vocal, accomp, mix, margin=CONFIG.stft.frame_len)
    checks.check_not_swapped(vocal, accomp, out.inputs.ref_vocal, out.inputs.ref_accomp)

    mag = checks.magnitude(mix, CONFIG.stft.frame_len, CONFIG.stft.hop)
    normalized = mag / mag.max()
    width = CONFIG.patch.width
    if workload.models == ("dnn",):
        grid, _ = pipeline.confidence_grid(AudioBuffer(mix, rate), out.dnn_model, CONFIG)
        F, N = normalized.shape
        rng = np.random.default_rng(1)
        cells = [(0, 0), (F - 1, N - 1), (F // 2, width - 1)]
        cells += [(int(f), int(n)) for f, n in zip(rng.integers(0, F, 20),
                                                   rng.integers(0, N, 20))]
        checks.check_confidence(grid.values, normalized, width,
                                out.dnn_model.weights, out.dnn_model.biases, cells)
    if workload.models == ("nmf",):
        columns = normalized[:, :300 + width - 1]
        windows = np.lib.stride_tricks.sliding_window_view(columns, width, axis=1)
        V = windows.transpose(2, 0, 1).reshape(width * len(columns), -1)  # frame-major
        W = np.concatenate([out.nmf_model.w_vocal, out.nmf_model.w_nonvocal], axis=1)
        _, trace = nmf.infer_activations(V, W, CONFIG.nmf_infer_iters)
        checks.check_descent(trace)


def verify(workload: Workload, out: Outcome) -> list[str]:
    """Run every check; returns the reasons of those that failed."""
    failures = []
    for check in (_journey_checks, lambda o: _separation_checks(workload, o)):
        try:
            check(out)
        except checks.CheckError as exc:
            failures.append(str(exc))
    return failures


def make_workdir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))
