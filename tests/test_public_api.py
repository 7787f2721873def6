"""The package's exported names: all resolve, and removed ones stay removed."""

import dataclasses
import importlib
import inspect

import maskforge

REMOVED = {
    "masking": ["SoftMask", "soft_mask", "threshold_soft_mask"],
    "stft": ["PhaseSpectrogram", "combine", "split"],
    "patching": ["flatten", "unflatten"],
    "mlp": ["forward"],
    "nmf": ["soft_mask_patches", "mean_prediction_from_soft"],
}


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
