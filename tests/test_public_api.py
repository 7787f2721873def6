"""The package's exported names: all resolve, and removed ones stay removed."""

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import maskforge

REMOVED = {
    "masking": ["SoftMask", "soft_mask", "threshold_soft_mask", "vocal_share"],
    "stft": ["PhaseSpectrogram", "combine", "split", "MagnitudeSpectrogram"],
    "patching": ["flatten", "unflatten", "KIND_TARGET"],
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
