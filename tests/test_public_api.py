"""The package's exported names: all resolve, and removed ones stay removed."""

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import maskforge
from maskforge import pipeline

REMOVED = {
    "masking": ["SoftMask", "soft_mask", "threshold_soft_mask", "vocal_share"],
    "stft": ["PhaseSpectrogram", "combine", "split", "MagnitudeSpectrogram", "magnitude"],
    "patching": ["flatten", "unflatten", "KIND_TARGET", "normalize_unit_scale"],
    "mlp": ["forward", "MAGIC"],
    "nmf": ["soft_mask_patches", "mean_prediction_from_soft", "MAGIC"],
    "pipeline": ["song_training_pairs", "build_class_matrices", "_MODEL_FILES",
                 "_invert_block", "_oracle_separation", "threshold_and_invert"],
    "audio_io": ["song_length"],
}


def test_model_kinds_share_one_file_format():
    # the per-kind patch-shape checks went with the per-kind readers: a model
    # records its front end, and load_any_model takes the file alone
    for model in (maskforge.MlpModel, maskforge.NmfModel):
        assert not hasattr(model, "check_patch_shape")
    assert "seed" not in [f.name for f in dataclasses.fields(maskforge.MlpModel)]
    assert list(inspect.signature(pipeline.load_any_model).parameters) == ["path"]


def test_exported_names_resolve():
    for name in maskforge.__all__:
        assert getattr(maskforge, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"maskforge.{module}")
        for name in names:
            assert name not in maskforge.__all__
            assert not hasattr(mod, name), f"maskforge.{module}.{name}"


def test_one_value_knobs_are_gone():
    assert [f.name for f in dataclasses.fields(maskforge.PatchConfig)] == [
        "width", "train_stride"]
    assert [f.name for f in dataclasses.fields(maskforge.StftConfig)] == ["frame_len", "hop"]
    assert list(inspect.signature(maskforge.write_wav).parameters) == ["path", "buffer"]
    cfg = inspect.signature(maskforge.stft).parameters["cfg"]
    assert cfg.default is inspect.Parameter.empty


def test_binary_mask_holds_only_its_values():
    assert [f.name for f in dataclasses.fields(maskforge.BinaryMask)] == ["values"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, which every CLI process
    # would pay; the sweep's Student-t quantile comes from scipy.special
    src = str(Path(maskforge.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import maskforge; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False"]
