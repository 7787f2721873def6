"""Command-line interface: full flow, flag parsing, exit codes."""

import contextlib
import functools
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskforge import cli
from maskforge.audio_io import AudioBuffer, load_manifest, read_wav, write_wav
from maskforge.mlp import init_model, save_model
from maskforge.nmf import MAGIC as NMF_MAGIC
from maskforge.nmf import NmfModel, save_nmf
from maskforge.patching import PatchConfig
from maskforge.pipeline import (
    FIG2_HEADER,
    FIG3_HEADER,
    PER_SONG_HEADER,
    ExperimentConfig,
    load_any_model,
)
from maskforge.stft import StftConfig


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# alpha grammar
# ---------------------------------------------------------------------------

def test_parse_alphas_range_inclusive():
    assert cli.parse_alphas("0.1:0.9:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert cli.parse_alphas("0.25:0.75:0.25") == (0.25, 0.5, 0.75)
    assert cli.parse_alphas("0.5:0.5:0.1") == (0.5,)


def test_parse_alphas_comma_list():
    assert cli.parse_alphas("0.2,0.5") == (0.2, 0.5)
    assert cli.parse_alphas("0.5") == (0.5,)


def test_parse_alphas_errors():
    with pytest.raises(ValueError, match="start:stop:step"):
        cli.parse_alphas("0.1:0.9")
    with pytest.raises(ValueError, match="step must be positive"):
        cli.parse_alphas("0.1:0.9:0")
    with pytest.raises(ValueError, match="no alpha values"):
        cli.parse_alphas(",")
    with pytest.raises(ValueError, match="outside"):
        cli.parse_alphas("0.5,1.5")
    with pytest.raises(ValueError, match="outside"):
        cli.parse_alphas("0.0:0.5:0.5")


# ---------------------------------------------------------------------------
# parser defaults
# ---------------------------------------------------------------------------

def test_parser_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["make-corpus", "--out-dir", "x"])
    assert (args.train, args.test, args.seed) == (20, 5, 1234)
    assert (args.sample_rate, args.duration) == (22050, 1.8)
    args = parser.parse_args(["train-dnn", "--manifest", "m", "--out", "o"])
    assert (args.frame, args.hop, args.width) == (512, 128, 10)
    assert args.hidden == "1024"
    assert (args.epochs, args.lr, args.loss) == (4, 0.002, "cross_entropy")
    args = parser.parse_args(["train-nmf", "--manifest", "m", "--out", "o"])
    assert (args.rank, args.iterations) == (40, 200)
    args = parser.parse_args(
        ["sweep-alpha", "--manifest", "m", "--model", "x", "--csv", "c"])
    assert args.alphas == "0.1:0.9:0.1"


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["separate", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# full command flow on a miniature corpus
# ---------------------------------------------------------------------------

SMALL = ["--frame", "256", "--hop", "64", "--width", "5"]


def test_full_cli_flow(tmp_path, capsys):
    corpus = tmp_path / "corpus"

    code, out, err = _run(capsys, [
        "make-corpus", "--out-dir", str(corpus), "--train", "2", "--test", "1",
        "--seed", "77", "--duration", "1.2",
    ])
    assert code == 0, err
    train_manifest, test_manifest = out.strip().splitlines()
    assert train_manifest.endswith("train.json")
    assert test_manifest.endswith("test.json")

    model_path = tmp_path / "model.mlp"
    code, out, err = _run(capsys, [
        "train-dnn", "--manifest", train_manifest, "--out", str(model_path),
        *SMALL, "--hidden", "16", "--epochs", "2", "--lr", "0.01",
    ])
    assert code == 0, err
    assert model_path.read_bytes()[:4] == b"MFG1"
    assert "loss" in out and "saved" in out

    dict_path = tmp_path / "dict.nmf"
    code, out, err = _run(capsys, [
        "train-nmf", "--manifest", train_manifest, "--out", str(dict_path),
        *SMALL, "--rank", "6", "--iterations", "25",
    ])
    assert code == 0, err
    assert dict_path.read_bytes()[:4] == b"MFGN"

    mixes = tmp_path / "mixes"
    code, out, err = _run(capsys, [
        "mix", "--manifest", test_manifest, "--out-dir", str(mixes),
    ])
    assert code == 0, err
    mixture = mixes / "synth_002_mixture.wav"
    ref_vocal = mixes / "synth_002_vocals.wav"
    ref_accomp = mixes / "synth_002_accompaniment.wav"
    for p in (mixture, ref_vocal, ref_accomp):
        assert p.exists()
    # the pooled full mix is the sum of the two scored submixes
    v = read_wav(ref_vocal).samples
    a = read_wav(ref_accomp).samples
    m = read_wav(mixture).samples
    assert np.allclose(m, v + a, rtol=0, atol=2.0 ** -14)  # float32 rounding

    est_v = tmp_path / "est_v.wav"
    est_a = tmp_path / "est_a.wav"
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(mixture), "--out-vocal", str(est_v),
        "--out-accomp", str(est_a), *SMALL,
    ])
    assert code == 0, err
    assert est_v.exists() and est_a.exists()
    assert len(read_wav(est_v)) == len(read_wav(mixture))

    code, out, err = _run(capsys, [
        "separate", "--model", str(dict_path), "--alpha", "0.5",
        "--input", str(mixture), "--out-vocal", str(est_v),
        "--out-accomp", str(est_a), *SMALL, "--nmf-iterations", "25",
    ])
    assert code == 0, err

    ideal_v = tmp_path / "ideal_v.wav"
    ideal_a = tmp_path / "ideal_a.wav"
    code, out, err = _run(capsys, [
        "ideal-mask", "--manifest", test_manifest,
        "--out-vocal", str(ideal_v), "--out-accomp", str(ideal_a),
        "--frame", "256", "--hop", "64",
    ])
    assert code == 0, err

    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", str(ideal_v), "--est-accomp", str(ideal_a),
        "--ref-vocal", str(ref_vocal), "--ref-accomp", str(ref_accomp),
        "--csv", str(eval_csv), "--song-id", "synth_002", "--method", "ideal",
    ])
    assert code == 0, err
    assert "vocal: sdr=" in out and "non_vocal: sdr=" in out and "mean: sdr=" in out
    lines = eval_csv.read_text().splitlines()
    assert lines[0] == PER_SONG_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("synth_002,ideal,0.5,vocal,")

    fig2 = tmp_path / "fig2.csv"
    fig3 = tmp_path / "fig3.csv"
    per_song = tmp_path / "per_song.csv"
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", test_manifest,
        "--model", str(model_path), "--model", str(dict_path),
        "--alphas", "0.3,0.6", "--csv", str(fig2),
        "--fig3-csv", str(fig3), "--per-song-csv", str(per_song),
        *SMALL, "--nmf-iterations", "25",
    ])
    assert code == 0, err
    # 2 alphas x (2 models + ideal + mixture) x 3 sources
    assert f"wrote {fig2} (24 data rows)" in out
    fig2_lines = fig2.read_text().splitlines()
    assert fig2_lines[0] == FIG2_HEADER
    assert len(fig2_lines) == 25
    assert {l.split(",")[1] for l in fig2_lines[1:]} == {"dnn", "nmf", "ideal", "mixture"}
    fig3_lines = fig3.read_text().splitlines()
    assert fig3_lines[0] == FIG3_HEADER
    assert len(fig3_lines) == 25
    ps_lines = per_song.read_text().splitlines()
    assert ps_lines[0] == PER_SONG_HEADER
    assert len(ps_lines) == 1 + 4 * 2 * 3


# ---------------------------------------------------------------------------
# runtime failures exit 1 with a diagnostic
# ---------------------------------------------------------------------------

def test_missing_manifest_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(missing), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert err.startswith("error: ")
    assert "nope.json" in err


def test_missing_input_wav_exits_one(tmp_path, capsys):
    junk_model = tmp_path / "m.mlp"
    from maskforge.mlp import init_model, save_model
    save_model(init_model([645, 4, 645], seed=0), junk_model)  # 129 bins x 5
    code, out, err = _run(capsys, [
        "separate", "--model", str(junk_model), "--alpha", "0.5",
        "--input", str(tmp_path / "missing.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"), *SMALL,
    ])
    assert code == 1
    assert "missing.wav" in err


def test_truncated_fmt_chunk_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([645, 4, 645], seed=0), model_path)  # 129 bins x 5
    wav = tmp_path / "short_fmt.wav"
    # RIFF/WAVE header, then a fmt chunk declaring 16 bytes that holds 8
    wav.write_bytes(b"RIFF\x14\x00\x00\x00WAVEfmt \x10\x00\x00\x00"
                    + b"\x01\x00\x01\x00\x40\x1f\x00\x00")
    assert wav.stat().st_size == 28
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"), *SMALL,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "fmt chunk too short" in err


def test_partial_sample_data_chunk_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([645, 4, 645], seed=0), model_path)  # 129 bins x 5
    wav = tmp_path / "partial.wav"
    # mono PCM16 whose data chunk holds 3 bytes, one and a half samples
    wav.write_bytes(b"RIFF\x28\x00\x00\x00WAVEfmt \x10\x00\x00\x00"
                    + b"\x01\x00\x01\x00\x40\x1f\x00\x00\x80\x3e\x00\x00\x02\x00\x10\x00"
                    + b"data\x03\x00\x00\x00\x01\x02\x03\x00")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"), *SMALL,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "not a whole number" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_exits_one_before_any_output(tmp_path, capsys, bad):
    # the bad sample sits near the end, in the last block the first pass reads
    model_path = tmp_path / "m.mfg"
    save_model(init_model([3, 2, 3], seed=0), model_path)
    samples = np.linspace(-1, 1, 3000).astype("<f4")
    samples[-3] = bad
    wav = tmp_path / "bad.wav"
    wav.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 4 * len(samples), b"WAVE",
                                b"fmt ", 16, 3, 1, 8000, 32000, 4, 32, b"data", 4 * len(samples))
                    + samples.tobytes())
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(wav),
        "--out-vocal", str(outputs[0]), "--out-accomp", str(outputs[1]), *FUZZ_FLAGS,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "non-finite sample values" in err
    assert not any(p.exists() for p in outputs)


def test_sample_rate_beyond_wav_header_exits_one(tmp_path, capsys):
    # a 2**30 Hz input decodes, but its byte rate does not fit the output header
    model_path = tmp_path / "m.mfg"
    save_model(init_model([3, 2, 3], seed=0), model_path)
    wav = tmp_path / "fast.wav"
    payload = np.linspace(-1, 1, 24).astype("<f4").tobytes()
    wav.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                                b"fmt ", 16, 3, 1, 1 << 30, 4, 4, 32, b"data", len(payload))
                    + payload)
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"), *FUZZ_FLAGS,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "does not fit a WAV header" in err


def test_manifest_entry_without_stems_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([645, 4, 645], seed=0), model_path)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs": [{"id": "x"}]}')
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(model_path),
        "--csv", str(tmp_path / "o.csv"), *SMALL,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert str(manifest) in err and "'stems' list" in err


def test_manifest_stem_path_not_a_string_exits_one(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs":[{"id":"x","stems":[{"path":5,"label":"vocal"}]}]}')
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert str(manifest) in err and "string 'path'" in err


@pytest.mark.parametrize("song_id", ["<root>/x", "../up", ".."])
def test_mix_rejects_song_id_that_is_not_a_file_name(tmp_path, capsys, song_id):
    # an absolute id would replace --out-dir and a ".." id would climb out of it
    song_id = song_id.replace("<root>", str(tmp_path))
    rng = np.random.default_rng(5)
    stems = []
    for label in ("vocal", "non_vocal"):
        write_wav(tmp_path / f"{label}.wav", AudioBuffer(rng.uniform(-0.5, 0.5, 256), 8000))
        stems.append({"path": f"{label}.wav", "label": label})
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": song_id, "stems": stems}]}))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out" / "mixes"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert str(manifest) in err and "not a plain file name" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_mix_rejects_duplicate_song_ids(tmp_path, capsys):
    # both songs would write <id>_*.wav, the second over the first
    rng = np.random.default_rng(6)
    stems = []
    for label in ("vocal", "non_vocal"):
        write_wav(tmp_path / f"{label}.wav", AudioBuffer(rng.uniform(-0.5, 0.5, 256), 8000))
        stems.append({"path": f"{label}.wav", "label": label})
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "synth_020", "stems": stems},
                                              {"id": "synth_020", "stems": stems}]}))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "mixes"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert str(manifest) in err and "'synth_020'" in err and "more than once" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_make_corpus_too_short_exits_one(tmp_path, capsys):
    for duration in ("0.00001", "0.00005"):      # 0 and 1 samples at 22050 Hz
        code, out, err = _run(capsys, [
            "make-corpus", "--out-dir", str(tmp_path / "c"), "--duration", duration,
        ])
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "at least 2 samples" in err
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ["mix", "--out-dir", "<dir>/out"],
    ["train-nmf", "--out", "<dir>/m.nmf"],
    ["ideal-mask", "--out-vocal", "<dir>/v.wav", "--out-accomp", "<dir>/a.wav"],
])
def test_silent_stem_error_names_the_song(tmp_path, capsys, argv):
    write_wav(tmp_path / "vocal.wav", AudioBuffer(np.zeros(256), 8000))
    write_wav(tmp_path / "non_vocal.wav",
              AudioBuffer(np.random.default_rng(7).uniform(-0.5, 0.5, 256), 8000))
    stems = [{"path": f"{label}.wav", "label": label} for label in ("vocal", "non_vocal")]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "quiet_song", "stems": stems}]}))
    argv = [a.replace("<dir>", str(tmp_path)) for a in argv]
    code, out, err = _run(capsys, [*argv, "--manifest", str(manifest)])
    assert code == 1
    assert err.count("\n") == 1
    assert "'quiet_song'" in err and "vocal" in err


def test_cancelling_stems_error_names_the_song(tmp_path, capsys):
    noise = np.random.default_rng(7).uniform(-0.5, 0.5, 256)
    for name, samples in (("v1", noise), ("v2", -noise), ("nv", noise[::-1])):
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(samples, 8000))
    stems = [{"path": "v1.wav", "label": "vocal"}, {"path": "v2.wav", "label": "vocal"},
             {"path": "nv.wav", "label": "non_vocal"}]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "hollow_song", "stems": stems}]}))
    code, out, err = _run(capsys, [
        "ideal-mask", "--manifest", str(manifest),
        "--out-vocal", str(tmp_path / "v.wav"), "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert "'hollow_song'" in err and "vocal stems that sum to silence" in err
    assert not (tmp_path / "v.wav").exists()


@pytest.mark.parametrize("text", [
    '{"songs": ' + "[" * 100_000 + "]" * 100_000 + "}",  # deeper than the parser recurses
    '{"songs": [',
])
def test_undecodable_manifest_exits_one(tmp_path, capsys, text):
    manifest = tmp_path / "m.json"
    manifest.write_text(text)
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {manifest}: not a JSON manifest (")


def test_ideal_mask_on_empty_manifest_exits_one(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs":[]}')
    code, out, err = _run(capsys, [
        "ideal-mask", "--manifest", str(manifest),
        "--out-vocal", str(tmp_path / "v.wav"), "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert "manifest has no songs" in err
    assert not (tmp_path / "v.wav").exists()


@pytest.mark.parametrize("command", ["train-dnn", "train-nmf"])
def test_train_stride_zero_exits_one(tiny_corpus, tmp_path, capsys, command):
    model_path = tmp_path / "m.mfg"
    code, out, err = _run(capsys, [
        command, "--manifest", str(tiny_corpus["train_manifest"]),
        "--out", str(model_path), "--train-stride", "0", *SMALL,
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "train_stride must be >= 1" in err
    assert not model_path.exists()


def test_unrecognized_model_file_exits_one(tmp_path, capsys):
    bogus = tmp_path / "junk.bin"
    bogus.write_bytes(b"WHAT" + b"\x00" * 64)
    code, out, err = _run(capsys, [
        "separate", "--model", str(bogus), "--alpha", "0.5",
        "--input", str(bogus), "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert "unrecognized model file" in err


def test_model_dimension_mismatch_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([645, 4, 645], seed=0), model_path)  # 129 bins x 5
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(tmp_path / "x.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
        "--frame", "512", "--hop", "128", "--width", "5",
    ])
    assert code == 1
    assert "pass matching --frame/--width" in err


def test_nmf_dimension_mismatch_exits_one(tmp_path, capsys, rng):
    from maskforge.nmf import NmfModel, save_nmf
    dict_path = tmp_path / "d.nmf"
    model = NmfModel(rng.uniform(0.1, 1, (645, 2)), rng.uniform(0.1, 1, (645, 2)),
                     n_bins=129, width=5)
    save_nmf(model, dict_path)
    code, out, err = _run(capsys, [
        "separate", "--model", str(dict_path), "--alpha", "0.5",
        "--input", str(tmp_path / "x.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
        "--frame", "512", "--hop", "128", "--width", "5",
    ])
    assert code == 1
    assert "dictionary was trained for 129 bins x 5" in err


@pytest.mark.parametrize("flaw, message", [
    ("nan", "vocal dictionary has non-finite entries"),
    ("rank0", "vocal dictionary has no columns"),
])
def test_unusable_nmf_dictionary_exits_one(tmp_path, capsys, rng, flaw, message):
    w_v = rng.uniform(0.1, 1, (645, 2))  # 129 bins x 5
    w_nv = rng.uniform(0.1, 1, (645, 2))
    if flaw == "nan":
        w_v[100, 0] = np.nan
    else:
        w_v = w_v[:, :0]
    dict_path = tmp_path / "d.nmf"
    dict_path.write_bytes(NMF_MAGIC + struct.pack("<IIII", 129, 5, w_v.shape[1], 2)
                          + w_v.astype("<f8").tobytes(order="F")
                          + w_nv.astype("<f8").tobytes(order="F"))
    code, out, err = _run(capsys, [
        "separate", "--model", str(dict_path), "--alpha", "0.5",
        "--input", str(tmp_path / "x.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"), *SMALL,
    ])
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "v.wav").exists()


def test_evaluate_scores_silent_estimate_as_minus_inf(tmp_path, capsys, rng):
    ref_v = rng.uniform(-0.5, 0.5, 2048)
    ref_a = rng.uniform(-0.5, 0.5, 2048)
    signals = {"est_v": np.zeros(2048), "est_a": ref_a + 0.1 * ref_v,
               "ref_v": ref_v, "ref_a": ref_a}
    for name, x in signals.items():
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(x, 22050))
    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", str(tmp_path / "est_v.wav"),
        "--est-accomp", str(tmp_path / "est_a.wav"),
        "--ref-vocal", str(tmp_path / "ref_v.wav"),
        "--ref-accomp", str(tmp_path / "ref_a.wav"),
        "--csv", str(eval_csv), "--song-id", "s1", "--method", "m",
    ])
    assert code == 0, err
    assert out.splitlines()[0] == "vocal: sdr=-inf dB  sir=-inf dB  sar=-inf dB"
    lines = eval_csv.read_text().splitlines()
    assert lines[1] == "s1,m,0.5,vocal,-inf,-inf,-inf"
    assert lines[2].startswith("s1,m,0.5,non_vocal,")
    assert all(np.isfinite(float(v)) for v in lines[2].split(",")[4:])


# ---------------------------------------------------------------------------
# mutated model files, WAVs and manifests fail with a typed error, never a crash
# ---------------------------------------------------------------------------

# frame 4 gives 3 bins; at width 1 a model sees 3-element windows
FUZZ_FLAGS = ["--frame", "4", "--hop", "2", "--width", "1"]
FUZZ_CONFIG = ExperimentConfig(stft=StftConfig(frame_len=4, hop=2),
                               patch=PatchConfig(width=1, train_stride=1))


@functools.cache
def _valid_model_files() -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as root:
        mlp_path, nmf_path = Path(root, "m.mfg"), Path(root, "n.mfg")
        save_model(init_model([3, 2, 3], seed=0), mlp_path)
        save_nmf(NmfModel(np.full((3, 2), 0.5), np.full((3, 1), 0.25),
                          n_bins=3, width=1), nmf_path)
        return mlp_path.read_bytes(), nmf_path.read_bytes()


def _wav(audio_format: int, bits: int, channels: int, payload: bytes) -> bytes:
    block = bits // 8 * channels
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                       b"fmt ", 16, audio_format, channels, 8000, 8000 * block, block,
                       bits, b"data", len(payload)) + payload


@functools.cache
def _valid_wav_files() -> tuple[bytes, ...]:
    """float32 mono as write_wav writes it, PCM16 stereo and PCM24 mono."""
    samples = np.sin(np.arange(24) * 0.7)
    with tempfile.TemporaryDirectory() as root:
        write_wav(Path(root, "f.wav"), AudioBuffer(samples, 8000))
        float32 = Path(root, "f.wav").read_bytes()
    pcm16 = np.round(samples * 30000).astype("<i2").tobytes()
    pcm24 = b"".join(int(v).to_bytes(3, "little", signed=True)
                     for v in np.round(samples * 8_000_000))
    return float32, _wav(1, 16, 2, pcm16), _wav(1, 24, 1, pcm24)


_VALID_MANIFEST = json.dumps({"songs": [{"id": "s", "stems": [
    {"path": "vocal.wav", "label": "vocal"},
    {"path": "accomp.wav", "label": "non_vocal"}]}]}).encode()


@st.composite
def _mutated(draw, seeds, head: int):
    """One of `seeds()` with 1 to 4 byte edits, favouring the first `head` bytes."""
    raw = bytearray(draw(st.sampled_from(seeds())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, head - 1) | st.integers(0, len(raw)))
        op = draw(st.sampled_from(["set", "truncate", "insert", "delete"]))
        if op == "set" and at < len(raw):
            raw[at] = draw(st.integers(0, 255))
        elif op == "truncate":
            del raw[at:]
        elif op == "insert":
            raw[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del raw[at:at + draw(st.integers(1, 8))]
    return bytes(raw)


def _cli_fails_cleanly(argv: list[str], may_succeed: bool) -> None:
    """The CLI exits 1 with one error line, or 0 silently if `may_succeed`."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if may_succeed and code == 0:
        assert err.getvalue() == ""
        return
    assert code == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(raw=_mutated(_valid_model_files, head=24))
def test_mutated_model_file_fails_cleanly(tmp_path_factory, raw):
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz.mfg"
    path.write_bytes(raw)
    try:
        load_any_model(path, FUZZ_CONFIG)
    except (ValueError, OSError):
        pass
    # the input WAV does not exist, so separate fails even on a valid model
    _cli_fails_cleanly(["separate", "--model", str(path), "--alpha", "0.5",
                        "--input", str(root / "missing.wav"),
                        "--out-vocal", str(root / "v.wav"),
                        "--out-accomp", str(root / "a.wav"), *FUZZ_FLAGS],
                       may_succeed=False)


@settings(max_examples=200, deadline=None)
@given(raw=_mutated(_valid_wav_files, head=44))
def test_mutated_wav_fails_cleanly(tmp_path_factory, raw):
    root = tmp_path_factory.getbasetemp()
    path, model = root / "fuzz.wav", root / "fuzz.mfg"
    path.write_bytes(raw)
    model.write_bytes(_valid_model_files()[0])
    try:
        read_wav(path)
        decoded = True
    except (ValueError, OSError):
        decoded = False
    _cli_fails_cleanly(["separate", "--model", str(model), "--alpha", "0.5",
                        "--input", str(path), "--out-vocal", str(root / "v.wav"),
                        "--out-accomp", str(root / "a.wav"), *FUZZ_FLAGS],
                       may_succeed=decoded)


@settings(max_examples=200, deadline=None)
@given(raw=_mutated(lambda: (_VALID_MANIFEST,), head=len(_VALID_MANIFEST)))
def test_mutated_manifest_fails_cleanly(tmp_path_factory, raw):
    root = tmp_path_factory.getbasetemp() / "fuzz_manifest"
    root.mkdir(exist_ok=True)
    float32 = _valid_wav_files()[0]
    (root / "vocal.wav").write_bytes(float32)
    (root / "accomp.wav").write_bytes(float32)
    path = root / "m.json"
    path.write_bytes(raw)
    try:
        load_manifest(path)
        parsed = True
    except (ValueError, OSError):
        parsed = False
    # --song keeps the output names fixed whatever the mutated ids say
    _cli_fails_cleanly(["mix", "--manifest", str(path), "--song", "s",
                        "--out-dir", str(root / "out")], may_succeed=parsed)


def test_duplicate_model_kind_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([1285, 4, 1285], seed=0), model_path)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs": []}')
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest),
        "--model", str(model_path), "--model", str(model_path),
        "--csv", str(tmp_path / "o.csv"), "--frame", "512", "--hop", "128",
        "--width", "5",
    ])
    assert code == 1
    assert "two dnn models given" in err


def test_bad_alpha_grammar_exits_one(tmp_path, capsys):
    from maskforge.mlp import init_model, save_model
    model_path = tmp_path / "m.mlp"
    save_model(init_model([1285, 4, 1285], seed=0), model_path)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs": []}')
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(model_path),
        "--alphas", "0.1:0.9", "--csv", str(tmp_path / "o.csv"),
    ])
    assert code == 1
    assert "start:stop:step" in err


def test_mix_unknown_song_exits_one(tiny_corpus, tmp_path, capsys):
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(tiny_corpus["test_manifest"]),
        "--song", "synth_999", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "synth_999" in err


def test_ideal_mask_requires_song_for_multisong_manifest(tiny_corpus, tmp_path, capsys):
    code, out, err = _run(capsys, [
        "ideal-mask", "--manifest", str(tiny_corpus["train_manifest"]),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert "pass --song" in err
