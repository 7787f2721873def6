"""The package's exported names: all resolve, and removed ones stay removed."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import maskforge
from maskforge import model_file, pipeline

REMOVED = {
    "masking": ["SoftMask", "soft_mask", "threshold_soft_mask", "vocal_share", "apply_mask"],
    "stft": ["PhaseSpectrogram", "combine", "split", "MagnitudeSpectrogram", "magnitude"],
    "patching": ["flatten", "unflatten", "KIND_TARGET", "normalize_unit_scale", "KIND_MIXTURE",
                 "KIND_PREDICTION"],
    "mlp": ["forward", "MAGIC", "load_model"],
    "nmf": ["soft_mask_patches", "mean_prediction_from_soft", "MAGIC", "load_nmf",
            "nmf_separate"],
    "pipeline": ["song_training_pairs", "build_class_matrices", "_MODEL_FILES",
                 "_invert_block", "_oracle_separation", "threshold_and_invert",
                 "fig2_rows", "fig3_rows", "_cells", "by_source"],
    "bss_eval": ["PairMetrics"],
    "audio_io": ["song_length", "_padded_sum", "WavWriter"],
}


def test_model_kinds_share_one_file_format():
    # the per-kind patch-shape checks went with the per-kind readers: a model
    # records its front end, and load_any_model takes the file alone
    for model in (maskforge.MlpModel, maskforge.NmfModel):
        assert not hasattr(model, "check_patch_shape")
    assert "seed" not in [f.name for f in dataclasses.fields(maskforge.MlpModel)]
    assert list(inspect.signature(pipeline.load_any_model).parameters) == ["path"]
    assert list(inspect.signature(model_file.read_model).parameters) == ["path"]
    assert maskforge.load_any_model is pipeline.load_any_model


def _writes(node: ast.AST) -> bool:
    """Whether a call opens a file for writing: open( with a writing mode, or
    write_text / write_bytes."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in ("write_text", "write_bytes")
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes)


def test_only_output_file_opens_a_file_for_writing():
    found = set()
    for path in sorted(Path(maskforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}    # node -> the innermost function it sits in (walks go outside in)
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), f.name) for n in ast.walk(f))
        found |= {(path.name, owner.get(id(n))) for n in ast.walk(tree) if _writes(n)}
    assert found == {("audio_io.py", "output_file")}
    # wav_writer writes through it and keeps no clean-up of its own
    assert "unlink" not in inspect.getsource(maskforge.audio_io.wav_writer)
    assert "isfinite" not in inspect.getsource(maskforge.write_wav)


def _lands(node: ast.AST) -> bool:
    """Whether a call renames a file over another or makes or removes a
    directory: os.replace or os.rename, or a mkdir, makedirs, rmdir or rmtree."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr, on = node.func.attr, node.func.value
    return (attr in ("mkdir", "makedirs", "rmdir", "removedirs", "rmtree")
            or attr in ("replace", "rename") and isinstance(on, ast.Name) and on.id == "os")


def test_only_landing_renames_outputs_and_makes_or_removes_directories():
    found = set()
    for path in sorted(Path(maskforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}    # node -> the innermost function it sits in (walks go outside in)
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), f.name) for n in ast.walk(f))
        found |= {(path.name, owner.get(id(n))) for n in ast.walk(tree) if _lands(n)}
    assert found == {("audio_io.py", "landing")}
    # no subcommand keeps its own clean-up or holds its outputs open together
    assert "ExitStack" not in Path(pipeline.__file__).read_text()


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


def test_a_patch_set_is_its_windows():
    # the stride and frame count stay with whoever cut the windows
    assert [f.name for f in dataclasses.fields(maskforge.PatchSet)] == ["patches", "rows"]
    assert list(inspect.signature(maskforge.repack_mean).parameters) == [
        "predictions", "stride", "n_frames"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, which every CLI process
    # would pay; the sweep's Student-t quantile comes from scipy.special
    src = str(Path(maskforge.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import maskforge; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False"]
