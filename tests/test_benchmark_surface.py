"""The package surface that the benchmark in perfbench/ calls and reads.

perfbench's traced run (`run.py --trace 1`) wraps the functions named in
`workloads.TARGETS` wherever a maskforge module holds them, and its checks
read a few result shapes. A rename or a changed return shape would break the
benchmark, not the package's own tests; these tests catch it here.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

import maskforge  # noqa: E402
from maskforge import mlp, nmf, patching, pipeline  # noqa: E402
from maskforge.audio_io import AudioBuffer, ManifestSong, write_wav  # noqa: E402
from maskforge.model_file import FrontEnd  # noqa: E402
from maskforge.patching import PatchConfig  # noqa: E402
from maskforge.stft import StftConfig  # noqa: E402

CFG = pipeline.ExperimentConfig(stft=StftConfig(frame_len=32, hop=8),
                                patch=PatchConfig(width=3), hidden=(4,), nmf_rank=2,
                                nmf_infer_iters=3)


def _holders():
    """(module, attribute, function) for every maskforge module attribute that
    holds a benchmark target."""
    targets = {id(fn) for fn, _ in workloads.TARGETS.values()}
    return [(module, attr, value)
            for name, module in list(sys.modules.items())
            if module is not None and (name == "maskforge" or name.startswith("maskforge."))
            for attr, value in list(vars(module).items()) if id(value) in targets]


def _tiny_calls():
    """One small real call of each function whose result the benchmark reads,
    and one confidence grid per model and one thresholding, made through the
    package's modules so that installed wrappers see every call."""
    rng = np.random.default_rng(0)
    mix = AudioBuffer(rng.uniform(-0.5, 0.5, 200), 8000)
    spec = maskforge.stft(mix, CFG.stft)
    windows = maskforge.extract_patches(np.abs(spec.bins), CFG.patch, 1)
    front_end = FrontEnd(8000, CFG.stft.frame_len, CFG.stft.hop, CFG.patch.width)
    dnn = mlp.init_model(CFG.layer_sizes, seed=0, front_end=front_end)
    predictions = mlp.predict_masks(dnn, windows)
    grid, _ = pipeline.confidence_grid(mix, dnn, CFG)
    d = CFG.layer_sizes[0]
    pipeline.confidence_grid(spec, nmf.NmfModel(rng.random((d, 2)), rng.random((d, 2)),
                                                 front_end), CFG)
    pipeline._masked_inversions(spec, pipeline._confidence_masks(grid, 0.5))
    _, trace = nmf.infer_activations(rng.random((d, 5)), rng.random((d, 2)), 4)
    return spec, windows, predictions, grid, trace


def test_tracer_wraps_every_target_and_restores():
    # the install and restore that run.py --trace 1 makes; install raises if
    # a target is held by no maskforge module
    before = _holders()
    assert {id(fn) for _, _, fn in before} == {id(fn) for fn, _ in workloads.TARGETS.values()}
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS, callers=(workloads,))
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in before)
        spec, windows, _, _, _ = _tiny_calls()
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
    # the counters bind the targets' arguments by name and read their
    # results; separation and the sweep call the timed functions by name
    N, P = spec.n_frames, windows.n_patches
    assert tracer.counts == {"frames": 2 * N, "windows": 3 * P, "forward_rows": 2 * P,
                             "infer_iters": CFG.nmf_infer_iters + 4}
    assert tracer.maxima["window_bytes"] == windows.patches.nbytes
    assert [tracer.calls(name) for name in ("confidence_grid", "vocal_mask",
                                            "nonvocal_mask", "istft")] == [2, 1, 1, 2]


def test_sweep_calls_the_timed_functions_by_name(tmp_path):
    # one 0.5 s test song, two models and three alphas: the calls and counts
    # that the traced run reads from a sweep
    rng = np.random.default_rng(3)
    paths = []
    for label in ("vocal", "non_vocal"):
        write_wav(tmp_path / f"{label}.wav", AudioBuffer(rng.uniform(-0.5, 0.5, 4000), 8000))
        paths.append((tmp_path / f"{label}.wav", label))
    front_end = FrontEnd(8000, frame_len=64, hop=16, width=3)
    d = front_end.window_size
    models = {pipeline.METHOD_DNN: mlp.init_model([d, 4, d], seed=0, front_end=front_end),
              pipeline.METHOD_NMF: nmf.NmfModel(rng.random((d, 2)), rng.random((d, 2)),
                                                front_end)}
    cfg = pipeline.ExperimentConfig(alphas=(0.3, 0.5, 0.7), nmf_infer_iters=3)
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS, callers=(workloads,))
    try:
        pipeline.sweep_alpha([ManifestSong("song", paths)], models, cfg)
    finally:
        tracer.restore()
    calls = {"confidence_grid": 2, "vocal_mask": 6, "nonvocal_mask": 6, "istft": 14,
             "evaluate_source": 14, "stft": 3, "extract_patches": 2, "predict_masks": 1,
             "infer_activations": 1}
    assert {name: tracer.calls(name) for name in calls} == calls
    assert tracer.counts == {"frames": 741, "windows": 490, "forward_rows": 245,
                             "infer_iters": 3,
                             "read_bytes": sum(p.stat().st_size for p, _ in paths)}


def test_result_shapes_the_benchmark_reads():
    spec, windows, predictions, grid, trace = _tiny_calls()
    F, N = CFG.stft.n_bins, spec.n_frames
    assert isinstance(N, int) and N > CFG.patch.width
    assert windows.patches.shape == (N - CFG.patch.width + 1, F, CFG.patch.width)
    assert predictions.n_patches == windows.n_patches
    assert grid.values.shape == (F, N)
    assert len(trace) == 4
