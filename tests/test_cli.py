"""Command-line interface: full flow, flag parsing, exit codes."""

import contextlib
import csv
import errno
import functools
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskforge import cli, pipeline, synth
from maskforge.audio_io import (AudioBuffer, load_manifest, output_file, read_wav,
                               write_wav)
from maskforge.mlp import init_model, save_model
from maskforge.model_file import NMF, FrontEnd, write_model
from maskforge.nmf import NmfModel, save_nmf
from maskforge.pipeline import (
    FIG2_HEADER,
    FIG3_HEADER,
    PER_SONG_HEADER,
    ExperimentConfig,
    load_any_model,
)
from maskforge.synth import SynthConfig


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


def _loop_parse_alphas(text):
    """The range grammar as a loop that appends until it passes stop, the
    reference for parse_alphas on finite ranges."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("alpha range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("alpha step must be positive")
        values = []
        k = 0
        while True:
            a = round(start + k * step, 10)
            if a > stop + 1e-9:
                break
            values.append(a)
            k += 1
        alphas = tuple(values)
    else:
        alphas = tuple(float(p) for p in text.split(",") if p.strip())
    if not alphas:
        raise ValueError(f"no alpha values in {text!r}")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha {a} outside (0, 1)")
    return alphas


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(start=st.one_of(st.floats(1e-3, 0.999), st.floats(-0.5, 1.5)),
       stop=st.one_of(st.floats(-0.5, 0.999), st.floats(-0.5, 1.5)),
       step=st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.1, 0.05, 0.25, 1 / 3, 0.0])))
def test_parse_alphas_range_equals_the_loop(start, stop, step):
    text = f"{start!r}:{stop!r}:{step!r}"
    assert _outcome(cli.parse_alphas, text) == _outcome(_loop_parse_alphas, text)


def _in_small_child(code: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run `code` after `from maskforge import cli` in a child with 1 GB of
    address space and 10 s, so that a call that never returns fails the test
    instead of hanging it or filling the memory; `env` replaces its environment."""
    src = str(Path(cli.__file__).parents[1])
    prelude = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
               f"sys.path.insert(0, {src!r}); from maskforge import cli\n")
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, timeout=10, env=env)


@pytest.mark.parametrize("text", ["0.1:inf:0.1", "nan:0.9:0.1", "0.1:nan:0.1", "0.1:0.9:nan",
                                  "-inf:0.9:0.1", "0.1:0.9:inf"])
def test_parse_alphas_rejects_a_non_finite_range(text):
    child = _in_small_child(f"try: cli.parse_alphas({text!r})\n"
                            "except ValueError as exc: print(exc)")
    assert (child.returncode, child.stdout) == (0, f"alpha range {text!r} is not finite\n")


@pytest.mark.parametrize("text", ["0.1:0.9:1e-320", "-1e308:1e308:1", "0.1:0.9:1e-9"])
def test_parse_alphas_rejects_a_range_of_too_many_steps(text):
    # the first two once overflowed to a bare OverflowError; the third asked
    # for about 8e8 values
    child = _in_small_child(f"try: cli.parse_alphas({text!r})\n"
                            "except ValueError as exc: print(exc)")
    assert (child.returncode, child.stdout) == (
        0, f"alpha range {text!r} spans more than 10000 steps\n")


def test_parse_alphas_allows_a_grid_of_1e_4():
    assert len(cli.parse_alphas("0.0001:0.9999:0.0001")) == 9999


# ---------------------------------------------------------------------------
# parser defaults
# ---------------------------------------------------------------------------

def test_parser_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["make-corpus", "--out-dir", "x"])
    assert (args.train, args.test, args.seed) == (20, 5, 1234)
    assert (args.sample_rate, args.duration) == (22050, 1.8)
    synth_cfg = SynthConfig()
    assert (args.seed, args.sample_rate, args.duration) == (
        synth_cfg.seed, synth_cfg.sample_rate, synth_cfg.duration)
    args = parser.parse_args(["train-dnn", "--manifest", "m", "--out", "o"])
    assert (args.frame, args.hop, args.width) == (512, 128, 10)
    assert args.hidden == "1024"
    assert (args.epochs, args.lr, args.loss) == (4, 0.002, "cross_entropy")
    args = parser.parse_args(["train-nmf", "--manifest", "m", "--out", "o"])
    assert (args.rank, args.iterations) == (40, 200)
    args = parser.parse_args(
        ["sweep-alpha", "--manifest", "m", "--model", "x", "--csv", "c"])
    assert cli.parse_alphas(args.alphas) == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert cli.parse_alphas(args.alphas) == ExperimentConfig().alphas


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
# the front end SMALL gives, at the rate of the WAVs these tests write by hand
SMALL_FRONT_END = FrontEnd(8000, frame_len=256, hop=64, width=5)


def _save_dnn(path, front_end=SMALL_FRONT_END):
    """An untrained network for `front_end`, saved to `path`."""
    d = front_end.window_size
    save_model(init_model([d, 4, d], seed=0, front_end=front_end), path)


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
    assert model_path.read_bytes()[:12] == b"MFGM\x01\x00\x00\x00dnn\x00"
    assert "loss" in out and "saved" in out

    dict_path = tmp_path / "dict.nmf"
    code, out, err = _run(capsys, [
        "train-nmf", "--manifest", train_manifest, "--out", str(dict_path),
        *SMALL, "--rank", "6", "--iterations", "25",
    ])
    assert code == 0, err
    assert dict_path.read_bytes()[:12] == b"MFGM\x01\x00\x00\x00nmf\x00"

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
        "--out-accomp", str(est_a),
    ])
    assert code == 0, err
    assert est_v.exists() and est_a.exists()
    assert len(read_wav(est_v)) == len(read_wav(mixture))

    code, out, err = _run(capsys, [
        "separate", "--model", str(dict_path), "--alpha", "0.5",
        "--input", str(mixture), "--out-vocal", str(est_v),
        "--out-accomp", str(est_a), "--nmf-iterations", "25",
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
        "--nmf-iterations", "25",
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
    with per_song.open(newline="") as fh:
        assert {len(row) for row in csv.reader(fh)} == {7}


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
    _save_dnn(junk_model)
    code, out, err = _run(capsys, [
        "separate", "--model", str(junk_model), "--alpha", "0.5",
        "--input", str(tmp_path / "missing.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert "missing.wav" in err


def test_truncated_fmt_chunk_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path)
    wav = tmp_path / "short_fmt.wav"
    # RIFF/WAVE header, then a fmt chunk declaring 16 bytes that holds 8
    wav.write_bytes(b"RIFF\x14\x00\x00\x00WAVEfmt \x10\x00\x00\x00"
                    + b"\x01\x00\x01\x00\x40\x1f\x00\x00")
    assert wav.stat().st_size == 28
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "fmt chunk too short" in err


def test_partial_sample_data_chunk_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path)
    wav = tmp_path / "partial.wav"
    # mono PCM16 whose data chunk holds 3 bytes, one and a half samples
    wav.write_bytes(b"RIFF\x28\x00\x00\x00WAVEfmt \x10\x00\x00\x00"
                    + b"\x01\x00\x01\x00\x40\x1f\x00\x00\x80\x3e\x00\x00\x02\x00\x10\x00"
                    + b"data\x03\x00\x00\x00\x01\x02\x03\x00")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5",
        "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "not a whole number" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_exits_one_before_any_output(tmp_path, capsys, bad):
    # the bad sample sits near the end, in the last block the first pass reads
    model_path = tmp_path / "m.mfg"
    _save_dnn(model_path, FUZZ_FRONT_END)
    samples = np.linspace(-1, 1, 3000).astype("<f4")
    samples[-3] = bad
    wav = tmp_path / "bad.wav"
    wav.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 4 * len(samples), b"WAVE",
                                b"fmt ", 16, 3, 1, 8000, 32000, 4, 32, b"data", 4 * len(samples))
                    + samples.tobytes())
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(wav),
        "--out-vocal", str(outputs[0]), "--out-accomp", str(outputs[1]),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "non-finite sample values" in err
    assert not any(p.exists() for p in outputs)


def test_sample_rate_beyond_wav_header_exits_one(tmp_path, capsys):
    # a 2**30 Hz input decodes, but its byte rate does not fit the output header
    model_path = tmp_path / "m.mfg"
    _save_dnn(model_path, FrontEnd(1 << 30, frame_len=4, hop=2, width=1))
    wav = tmp_path / "fast.wav"
    payload = np.linspace(-1, 1, 24).astype("<f4").tobytes()
    wav.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                                b"fmt ", 16, 3, 1, 1 << 30, 4, 4, 32, b"data", len(payload))
                    + payload)
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(wav),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "does not fit a WAV header" in err


def test_manifest_entry_without_stems_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs": [{"id": "x"}]}')
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(model_path),
        "--csv", str(tmp_path / "o.csv"),
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


@pytest.mark.parametrize("labels, missing", [((), "vocal"), (("vocal",), "non_vocal"),
                                             (("non_vocal", "non_vocal"), "vocal")],
                         ids=["no_stems", "only_vocal", "only_non_vocal"])
def test_mix_refuses_a_song_without_both_labels_before_writing(tmp_path, capsys, labels,
                                                                missing):
    # the bad song comes second, so mixing the first before reading it would write files
    manifest = _two_stem_manifest(tmp_path, {"good": (8000, 8000)})
    doc = json.loads(manifest.read_text())
    doc["songs"].append({"id": "bad", "stems": [{"path": f"good_{label}.wav", "label": label}
                                                for label in labels]})
    manifest.write_text(json.dumps(doc))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, ["mix", "--manifest", str(manifest),
                                   "--out-dir", str(tmp_path / "mixes")])
    assert code == 1
    assert err == f"error: {manifest}: song 'bad' has no {missing} stems\n"
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


def test_mix_refuses_an_empty_manifest_before_making_its_directory(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text('{"songs":[]}')
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "newdir" / "sub")])
    assert (code, out, err) == (1, "", "error: manifest has no songs\n")
    assert not (tmp_path / "newdir").exists()


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


def test_overcomplete_nmf_rank_trains_quietly(tiny_corpus, tmp_path, capsys):
    # 42 training windows: rank 70 is overcomplete, which KL-NMF allows
    model_path = tmp_path / "m.mfg"
    code, out, err = _run(capsys, [
        "train-nmf", "--manifest", str(tiny_corpus["train_manifest"]),
        "--out", str(model_path), "--rank", "70", "--iterations", "2",
    ])
    assert code == 0 and err == ""
    assert load_any_model(model_path)[1].rank_vocal == 70


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--lr", "nan"], "learning rate must be finite and >= 0, got nan"),
    (["--lr", "-1"], "learning rate must be finite and >= 0, got -1.0"),
])
def test_bad_training_settings_fail_before_any_song_is_read(tiny_corpus, tmp_path, capsys,
                                                            monkeypatch, flags, message):
    built = []
    monkeypatch.setattr(pipeline, "build_training_set", lambda *a: built.append(a))
    model_path = tmp_path / "m.mfg"
    code, out, err = _run(capsys, [
        "train-dnn", "--manifest", str(tiny_corpus["train_manifest"]),
        "--out", str(model_path), *flags, *SMALL,
    ])
    assert code == 1
    assert err == f"error: {message}\n"
    assert built == [] and not model_path.exists()


def test_diverging_training_prints_one_line(tiny_corpus, tmp_path, capsys):
    model_path = tmp_path / "m.mfg"
    code, out, err = _run(capsys, [
        "train-dnn", "--manifest", str(tiny_corpus["train_manifest"]),
        "--out", str(model_path), "--lr", "1e308", "--hidden", "8", *SMALL,
    ])
    assert code == 1
    assert err == "error: training diverged: non-finite loss at epoch 0\n"
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


def _noise_wav(path, sample_rate, n=2048, seed=0):
    write_wav(path, AudioBuffer(np.random.default_rng(seed).uniform(-0.5, 0.5, n), sample_rate))


def _separate_at_wrong_rate(tmp_path, capsys, model_path):
    """`separate` on an 8000 Hz mixture with a 22050 Hz model."""
    mixture = tmp_path / "x.wav"
    _noise_wav(mixture, 8000)
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(mixture),
        "--out-vocal", str(outputs[0]), "--out-accomp", str(outputs[1]),
    ])
    assert code == 1
    assert err == (f"error: {mixture} is at 8000 Hz, but the model was trained "
                   "at 22050 Hz\n")
    assert not any(p.exists() for p in outputs)


def test_dnn_sample_rate_mismatch_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path, FrontEnd(22050, frame_len=256, hop=64, width=5))
    _separate_at_wrong_rate(tmp_path, capsys, model_path)


def test_nmf_sample_rate_mismatch_exits_one(tmp_path, capsys, rng):
    dict_path = tmp_path / "d.nmf"
    front_end = FrontEnd(22050, frame_len=256, hop=64, width=5)
    save_nmf(NmfModel(rng.uniform(0.1, 1, (645, 2)), rng.uniform(0.1, 1, (645, 2)),
                      front_end), dict_path)
    _separate_at_wrong_rate(tmp_path, capsys, dict_path)


def _two_stem_manifest(root, song_rates, name="m.json"):
    """A manifest of noise songs: {song id: (vocal rate, accompaniment rate)}."""
    songs = []
    for k, (song_id, rates) in enumerate(song_rates.items()):
        stems = []
        for label, rate in zip(("vocal", "non_vocal"), rates):
            _noise_wav(root / f"{song_id}_{label}.wav", rate, n=4096, seed=k)
            stems.append({"path": f"{song_id}_{label}.wav", "label": label})
        songs.append({"id": song_id, "stems": stems})
    (root / name).write_text(json.dumps({"songs": songs}))
    return root / name


def test_sweep_rejects_a_non_finite_alpha_range_before_reading_anything(tmp_path):
    # neither the manifest nor the model exists, so reading either would fail
    # with another message
    csv = tmp_path / "fig2.csv"
    argv = ["sweep-alpha", "--manifest", str(tmp_path / "m.json"), "--model",
            str(tmp_path / "dnn.mfg"), "--csv", str(csv), "--alphas", "0.1:inf:0.1"]
    child = _in_small_child(f"sys.exit(cli.main({argv!r}))")
    assert child.returncode == 1
    assert child.stderr == "error: alpha range '0.1:inf:0.1' is not finite\n"
    assert not csv.exists()


def test_sweep_rejects_a_range_of_too_many_alphas_in_one_line(tmp_path):
    csv = tmp_path / "fig2.csv"
    argv = ["sweep-alpha", "--manifest", str(tmp_path / "m.json"), "--model",
            str(tmp_path / "dnn.mfg"), "--csv", str(csv), "--alphas", "0.1:0.9:1e-320"]
    child = _in_small_child(f"sys.exit(cli.main({argv!r}))")
    assert child.returncode == 1
    assert child.stderr == "error: alpha range '0.1:0.9:1e-320' spans more than 10000 steps\n"
    assert not csv.exists()


@pytest.mark.parametrize("alphas", ["0.5,0.5", "0.5,0.50", "0.2,0.5,0.2"])
def test_sweep_refuses_a_repeated_alpha_before_reading_a_song(tiny_corpus, tmp_path, capsys,
                                                              monkeypatch, alphas):
    reads = []
    for name in ("load_song", "song_header", "WavReader"):
        monkeypatch.setattr(pipeline, name, lambda *a, name=name: reads.append(name))
    model_path = tmp_path / "m.mfg"
    _save_dnn(model_path)
    csvs = [tmp_path / name for name in ("fig2.csv", "fig3.csv", "per_song.csv")]
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(tiny_corpus["test_manifest"]), "--model",
        str(model_path), "--alphas", alphas, "--csv", str(csvs[0]),
        "--fig3-csv", str(csvs[1]), "--per-song-csv", str(csvs[2])])
    repeated = alphas.split(",")[-1].rstrip("0")
    assert (code, out, err) == (1, "", f"error: alpha {repeated} is repeated\n")
    assert reads == [] and not any(p.exists() for p in csvs)


@pytest.mark.parametrize("argv, message", [
    (["train-dnn", "--hidden", "0"], "layer sizes must be positive"),
    (["train-nmf", "--rank", "0"], "rank must be >= 1"),
    (["train-nmf", "--iterations", "0"], "need at least one iteration"),
    (["separate", "--nmf-iterations", "0"], "need at least one iteration"),
    (["sweep-alpha", "--nmf-iterations", "0"], "need at least one iteration"),
])
def test_zero_sizes_fail_before_any_song_or_mixture_is_read(tiny_corpus, tmp_path, capsys,
                                                            monkeypatch, argv, message):
    reads = []
    for name in ("load_song", "song_header", "WavReader"):
        monkeypatch.setattr(pipeline, name, lambda *a, name=name: reads.append(name))
    model_path, mixture = tmp_path / "m.mfg", tmp_path / "x.wav"
    _save_dnn(model_path)
    _noise_wav(mixture, 8000)
    outputs = [tmp_path / "out.mfg", tmp_path / "v.wav", tmp_path / "a.wav"]
    manifest = str(tiny_corpus["train_manifest"])
    rest = {"train-dnn": ["--manifest", manifest, "--out", str(outputs[0]), *SMALL],
            "train-nmf": ["--manifest", manifest, "--out", str(outputs[0]), *SMALL],
            "separate": ["--model", str(model_path), "--alpha", "0.5", "--input", str(mixture),
                         "--out-vocal", str(outputs[1]), "--out-accomp", str(outputs[2])],
            "sweep-alpha": ["--manifest", manifest, "--model", str(model_path),
                            "--csv", str(outputs[1])]}[argv[0]]
    code, out, err = _run(capsys, [*argv, *rest])
    assert (code, err) == (1, f"error: {message}\n")
    assert reads == [] and not any(p.exists() for p in outputs)


@pytest.mark.parametrize("command", ["train-dnn", "train-nmf", "separate-dnn", "separate-nmf",
                                     "sweep-alpha", "make-corpus"])
def test_negative_seed_is_refused_before_any_file_is_read(tiny_corpus, tmp_path, capsys,
                                                          monkeypatch, rng, command):
    # a seed is drawn from only after the songs are read, and separation with
    # a DNN draws none, so the configs refuse it before anything is read
    model_path, mixture = tmp_path / "m.mfg", tmp_path / "x.wav"
    if command == "separate-nmf":
        d = SMALL_FRONT_END.window_size
        save_nmf(NmfModel(rng.uniform(0.1, 1, (d, 2)), rng.uniform(0.1, 1, (d, 2)),
                          SMALL_FRONT_END), model_path)
    else:
        _save_dnn(model_path)
    _noise_wav(mixture, 8000)
    reads = []
    for module, name in ((cli, "load_manifest"), (pipeline, "load_any_model"),
                         (pipeline, "load_song"), (pipeline, "song_header"),
                         (pipeline, "WavReader")):
        monkeypatch.setattr(module, name, lambda *a, name=name: reads.append(name))
    before = sorted(tmp_path.rglob("*"))
    manifest, out = str(tiny_corpus["train_manifest"]), str(tmp_path / "out")
    separate = ["separate", "--model", str(model_path), "--alpha", "0.5", "--input",
                str(mixture), "--out-vocal", out, "--out-accomp", str(tmp_path / "a.wav")]
    argv = {"train-dnn": ["train-dnn", "--manifest", manifest, "--out", out],
            "train-nmf": ["train-nmf", "--manifest", manifest, "--out", out],
            "separate-dnn": separate, "separate-nmf": separate,
            "sweep-alpha": ["sweep-alpha", "--manifest", manifest, "--model", str(model_path),
                            "--csv", out],
            "make-corpus": ["make-corpus", "--out-dir", str(tmp_path / "new" / "corpus")],
            }[command]
    assert _run(capsys, [*argv, "--seed", "-1"]) == (1, "", "error: seed must be >= 0, got -1\n")
    assert reads == [] and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("counts, message", [
    (["--train", "1", "--test", "-1"], "test song count must be >= 0, got -1"),
    (["--train", "-1", "--test", "1"], "train song count must be >= 0, got -1"),
], ids=["test", "train"])
def test_make_corpus_refuses_a_negative_count_before_writing(tmp_path, capsys, counts, message):
    out_dir = tmp_path / "new" / "corpus"
    argv = ["make-corpus", "--out-dir", str(out_dir), "--duration", "0.01"]
    assert _run(capsys, [*argv, *counts]) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "new").exists()
    # no training songs is a corpus: a test set alone
    code, out, err = _run(capsys, [*argv, "--train", "0", "--test", "1"])
    assert code == 0, err
    assert load_manifest(out_dir / "train.json") == []


def test_a_song_id_that_would_break_a_csv_row_is_refused(tmp_path, capsys):
    manifest = _two_stem_manifest(tmp_path, {"duet, live": (8000, 8000)})
    model_path = tmp_path / "m.mfg"
    _save_dnn(model_path)
    csvs = [tmp_path / name for name in ("fig2.csv", "per_song.csv")]
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(model_path),
        "--csv", str(csvs[0]), "--per-song-csv", str(csvs[1])])
    assert (code, out) == (1, "")
    assert err == (f"error: {manifest}: song id 'duet, live' holds a comma, quote or "
                   "line break\n")
    assert not any(p.exists() for p in csvs)


@pytest.mark.parametrize("labels, flag", [
    (["--song-id", "two\nlines", "--method", "a,b"], "--song-id 'two\\nlines'"),
    (["--method", "a,b"], "--method 'a,b'"),
    (["--method", 'say "ah"'], "--method 'say \"ah\"'"),
    (["--song-id", "cr\r"], "--song-id 'cr\\r'"),
], ids=["newline-id-and-comma-method", "comma", "quote", "carriage-return"])
def test_evaluate_refuses_a_label_that_would_break_a_csv_row(tmp_path, capsys, monkeypatch,
                                                             labels, flag):
    monkeypatch.setattr(cli, "read_wav", lambda path: pytest.fail(f"read {path}"))
    wavs = [str(tmp_path / f"{name}.wav") for name in ("ev", "ea", "rv", "ra")]
    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", wavs[0], "--est-accomp", wavs[1], "--ref-vocal", wavs[2],
        "--ref-accomp", wavs[3], "--csv", str(eval_csv), *labels])
    assert (code, out, err) == (1, "", f"error: {flag} holds a comma, quote or line break\n")
    assert not eval_csv.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "-0.5"])
def test_evaluate_refuses_an_alpha_no_sweep_row_holds(tmp_path, capsys, monkeypatch, alpha):
    monkeypatch.setattr(cli, "read_wav", lambda path: pytest.fail(f"read {path}"))
    wavs = [str(tmp_path / f"{name}.wav") for name in ("ev", "ea", "rv", "ra")]
    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", wavs[0], "--est-accomp", wavs[1], "--ref-vocal", wavs[2],
        "--ref-accomp", wavs[3], "--csv", str(eval_csv), "--alpha", alpha])
    assert (code, out, err) == (1, "", f"error: alpha {float(alpha)} outside (0, 1)\n")
    assert not eval_csv.exists()


@pytest.mark.parametrize("kind", ["dnn", "nmf"])
def test_separate_refuses_a_silent_mixture_before_any_output(tmp_path, capsys, rng, kind):
    model_path, mixture = tmp_path / "m.mfg", tmp_path / "x.wav"
    if kind == "dnn":
        _save_dnn(model_path)
    else:
        d = SMALL_FRONT_END.window_size
        save_nmf(NmfModel(rng.uniform(0.1, 1, (d, 2)), rng.uniform(0.1, 1, (d, 2)),
                          SMALL_FRONT_END), model_path)
    write_wav(mixture, AudioBuffer(np.zeros(2048), 8000))
    outputs = (tmp_path / "v.wav", tmp_path / "a.wav")
    code, out, err = _run(capsys, [
        "separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(mixture),
        "--out-vocal", str(outputs[0]), "--out-accomp", str(outputs[1]),
    ])
    assert (code, err) == (1, f"error: {mixture} has an all-zero spectrogram, which has no "
                              "unit scale\n")
    assert not any(p.exists() for p in outputs)


def test_memory_error_exits_one_in_one_line(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(cli.synth, "generate_corpus", refuse)
    code, out, err = _run(capsys, ["make-corpus", "--out-dir", str(tmp_path / "c")])
    assert code == 1
    assert err == ("error: Unable to allocate 74.5 GiB for an array with shape "
                   "(10000000000,)\n")


def test_sweep_rejects_test_songs_at_another_rate(tmp_path, capsys, rng):
    front_end = FrontEnd(22050, frame_len=256, hop=64, width=5)
    _save_dnn(tmp_path / "dnn.mfg", front_end)
    save_nmf(NmfModel(rng.uniform(0.1, 1, (645, 2)), rng.uniform(0.1, 1, (645, 2)),
                      front_end), tmp_path / "nmf.mfg")
    manifest = _two_stem_manifest(tmp_path, {"slow_song": (8000, 8000)})
    csvs = [tmp_path / name for name in ("fig2.csv", "fig3.csv", "per_song.csv")]
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(tmp_path / "dnn.mfg"),
        "--model", str(tmp_path / "nmf.mfg"), "--csv", str(csvs[0]),
        "--fig3-csv", str(csvs[1]), "--per-song-csv", str(csvs[2]),
    ])
    assert code == 1
    assert err == ("error: test song 'slow_song' is at 8000 Hz, but the model was trained "
                   "at 22050 Hz\n")
    assert not any(p.exists() for p in csvs)


def test_sweep_rejects_models_with_different_front_ends(tmp_path, capsys, rng):
    _save_dnn(tmp_path / "dnn.mfg", FrontEnd(8000, frame_len=256, hop=128, width=5))
    save_nmf(NmfModel(rng.uniform(0.1, 1, (645, 2)), rng.uniform(0.1, 1, (645, 2)),
                      SMALL_FRONT_END), tmp_path / "nmf.mfg")
    manifest = _two_stem_manifest(tmp_path, {"song": (8000, 8000)})
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(tmp_path / "dnn.mfg"),
        "--model", str(tmp_path / "nmf.mfg"), "--csv", str(tmp_path / "fig2.csv"),
    ])
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: the models' front ends differ: ")
    assert "hop=128" in err and "hop=64" in err
    assert not (tmp_path / "fig2.csv").exists()


@pytest.mark.parametrize("command", ["train-dnn", "train-nmf"])
def test_training_rejects_songs_at_different_rates(tmp_path, capsys, monkeypatch, command):
    manifest = _two_stem_manifest(tmp_path, {"song_a": (22050, 22050),
                                             "song_b": (8000, 8000)})
    loaded = []
    monkeypatch.setattr(pipeline, "load_song", lambda song: loaded.append(song))
    code, out, err = _run(capsys, [
        command, "--manifest", str(manifest), "--out", str(tmp_path / "m.mfg"), *SMALL,
    ])
    assert code == 1
    assert err == ("error: training songs differ in sample rate: song_a 22050 Hz, "
                   "song_b 8000 Hz\n")
    assert loaded == []         # no song was cut into a training matrix
    assert not (tmp_path / "m.mfg").exists()


def test_mix_names_the_song_and_stems_at_different_rates(tmp_path, capsys):
    manifest = _two_stem_manifest(tmp_path, {"torn_song": (8000, 22050)})
    code, out, err = _run(capsys, [
        "mix", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert err == (f"error: song 'torn_song' has stems at different sample rates: "
                   f"{tmp_path / 'torn_song_vocal.wav'} 8000 Hz, "
                   f"{tmp_path / 'torn_song_non_vocal.wav'} 22050 Hz\n")


def test_separate_has_no_front_end_flags(tmp_path):
    # a hop-128 model at --hop 512 is a usage error: the flag no longer exists
    model_path = tmp_path / "m.mfg"
    _save_dnn(model_path, FrontEnd(22050, frame_len=512, hop=128, width=2))
    with pytest.raises(SystemExit) as exc:
        cli.main(["separate", "--model", str(model_path), "--alpha", "0.5",
                  "--input", "x.wav", "--out-vocal", "v.wav", "--out-accomp", "a.wav",
                  "--hop", "512"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flags", [
    (["separate", "--model", "m", "--alpha", "0.5", "--input", "x",
      "--out-vocal", "v", "--out-accomp", "a"], ()),
    (["sweep-alpha", "--manifest", "m", "--model", "x", "--csv", "c"], ()),
    (["ideal-mask", "--manifest", "m", "--out-vocal", "v", "--out-accomp", "a"],
     ("--frame", "--hop")),
    (["train-dnn", "--manifest", "m", "--out", "o"], ("--frame", "--hop", "--width")),
    (["train-nmf", "--manifest", "m", "--out", "o"], ("--frame", "--hop", "--width")),
])
def test_front_end_flags_belong_to_the_subcommands_without_a_model(capsys, argv, flags):
    parser = cli.build_parser()
    for flag in ("--frame", "--hop", "--width"):
        if flag in flags:
            parser.parse_args([*argv, flag, "8"])
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, flag, "8"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err


@pytest.mark.parametrize("magic", [b"MFG1", b"MFGN"])
def test_old_format_model_file_exits_one(tmp_path, capsys, magic):
    old = tmp_path / "old.mfg"
    old.write_bytes(magic + struct.pack("<IIII", 3, 2, 1, 1) + bytes(64))
    code, out, err = _run(capsys, [
        "separate", "--model", str(old), "--alpha", "0.5", "--input", str(tmp_path / "x.wav"),
        "--out-vocal", str(tmp_path / "v.wav"), "--out-accomp", str(tmp_path / "a.wav"),
    ])
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {old}: an {magic.decode()} model file, the format before")


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
    # save_nmf cannot write these (the model refuses them), so write the arrays
    write_model(dict_path, NMF, SMALL_FRONT_END, [w_v.shape[1], 2], [w_v.T, w_nv.T])
    code, out, err = _run(capsys, [
        "separate", "--model", str(dict_path), "--alpha", "0.5",
        "--input", str(tmp_path / "x.wav"),
        "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(tmp_path / "a.wav"),
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


def test_evaluate_rejects_mixed_sample_rates(tmp_path, capsys, rng):
    rates = {"est_v": 44100, "est_a": 8000, "ref_v": 22050, "ref_a": 22050}
    for name, rate in rates.items():
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(rng.uniform(-0.5, 0.5, 2048), rate))
    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", str(tmp_path / "est_v.wav"),
        "--est-accomp", str(tmp_path / "est_a.wav"),
        "--ref-vocal", str(tmp_path / "ref_v.wav"),
        "--ref-accomp", str(tmp_path / "ref_a.wav"), "--csv", str(eval_csv),
    ])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: sample rates differ")
    for name, rate in rates.items():
        assert f"{tmp_path / name}.wav {rate} Hz" in err
    assert not eval_csv.exists()


@pytest.mark.parametrize("case", ["empty", "all-zero-vocal", "all-zero-accompaniment",
                                  "lengths"])
def test_evaluate_checks_its_references_before_it_scores(tmp_path, capsys, rng, case):
    noise = rng.uniform(-0.5, 0.5, 2048)
    refs = {"empty": (np.zeros(0), np.zeros(0)), "all-zero-vocal": (np.zeros(2048), noise),
            "all-zero-accompaniment": (noise, np.zeros(2048)),
            "lengths": (noise, noise[:1024])}[case]
    paths = [tmp_path / f"{name}.wav" for name in ("est_v", "est_a", "ref_v", "ref_a")]
    for path, x in zip(paths, (noise, -noise, *refs)):
        write_wav(path, AudioBuffer(x, 8000))
    eval_csv = tmp_path / "eval.csv"
    code, out, err = _run(capsys, [
        "evaluate", "--est-vocal", str(paths[0]), "--est-accomp", str(paths[1]),
        "--ref-vocal", str(paths[2]), "--ref-accomp", str(paths[3]), "--csv", str(eval_csv),
    ])
    silent = paths[3] if case == "all-zero-accompaniment" else paths[2]
    assert (code, out) == (1, "")
    assert err == (f"error: reference lengths differ: {paths[2]} 2048 samples, {paths[3]} "
                   "1024 samples\n" if case == "lengths" else
                   f"error: {silent}: an empty or all-zero reference cannot be scored against\n")
    assert not eval_csv.exists()


def test_make_corpus_refuses_a_rate_no_wav_header_holds(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, err = _run(capsys, [
        "make-corpus", "--out-dir", str(out_dir), "--sample-rate", "1100000000",
        "--duration", "0.000002", "--train", "1", "--test", "0",
    ])
    assert (code, out, err) == (1, "", "error: sample rate 1100000000 does not fit a WAV "
                                       "header\n")
    assert not out_dir.exists()


def _separate_argv(tmp_path, model_path, mixture):
    return ["separate", "--model", str(model_path), "--alpha", "0.5", "--input", str(mixture),
            "--out-vocal", str(tmp_path / "v.wav"), "--out-accomp", str(tmp_path / "a.wav")]


def test_separate_names_a_mixture_of_no_samples(tmp_path, capsys):
    model_path, mixture = tmp_path / "m.mfg", tmp_path / "x.wav"
    _save_dnn(model_path)
    write_wav(mixture, AudioBuffer(np.zeros(0), 8000))
    code, out, err = _run(capsys, _separate_argv(tmp_path, model_path, mixture))
    assert (code, out) == (1, "")
    assert err == f"error: {mixture} has an all-zero spectrogram, which has no unit scale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mfg", "x.wav"]


@pytest.mark.parametrize("command", ["separate", "sweep-alpha"])
def test_predictions_that_overflow_to_nan_are_refused(tmp_path, capsys, command):
    # finite weights whose products overflow to +inf and -inf in one sum give NaN
    d = SMALL_FRONT_END.window_size
    model = init_model([d, 4, d], seed=0, front_end=SMALL_FRONT_END)
    model.weights[0][:] = np.resize([1e308, 1e308, -1e308, -1e308], d)
    save_model(model, tmp_path / "m.mfg")
    _noise_wav(tmp_path / "x.wav", 8000)
    out = tmp_path / "out"
    out.mkdir()
    argv = {"separate": _separate_argv(out, tmp_path / "m.mfg", tmp_path / "x.wav"),
            "sweep-alpha": ["sweep-alpha", "--model", str(tmp_path / "m.mfg"),
                            "--manifest", str(_two_stem_manifest(tmp_path, {"s": (8000, 8000)})),
                            "--csv", str(out / "f.csv"), "--per-song-csv", str(out / "p.csv")]}
    code, stdout, err = _run(capsys, argv[command])  # a warning would fail the test
    assert (code, stdout) == (1, "")
    # the sweep takes one model file per kind, so the kind names the file
    named = {"separate": "", "sweep-alpha": "test song 's', dnn model: "}[command]
    assert err == f"error: {named}prediction values outside [0,1]: [nan, nan]\n"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, named", [("train-dnn", "song"), ("sweep-alpha", "test song")],
                         ids=["train-dnn", "sweep-alpha"])
def test_a_song_the_window_zeroes_is_refused_by_name(tmp_path, capsys, command, named):
    # each stem is one sounding sample, which the Hann window's first point zeroes
    for label, value in (("vocal", 0.5), ("non_vocal", 0.25)):
        write_wav(tmp_path / f"{label}.wav", AudioBuffer(np.array([value]), 8000))
    stems = [{"path": f"{label}.wav", "label": label} for label in ("vocal", "non_vocal")]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "tiny_song", "stems": stems}]}))
    _save_dnn(tmp_path / "m.mfg")
    out = tmp_path / "out"
    out.mkdir()
    argv = {"train-dnn": ["--out", str(out / "dnn.mfg"), *SMALL],
            "sweep-alpha": ["--model", str(tmp_path / "m.mfg"), "--csv", str(out / "f.csv")]}
    code, stdout, err = _run(capsys, [command, "--manifest", str(manifest), *argv[command]])
    assert (code, stdout) == (1, "")
    assert err == (f"error: {named} 'tiny_song' has an all-zero spectrogram, which has no "
                   "unit scale\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["train-dnn", "sweep-alpha", "mix", "ideal-mask"])
def test_a_song_whose_submixes_cancel_is_refused_by_name(tmp_path, capsys, command):
    # each stem sounds, and so does each submix, but the full mixture is silent
    noise = np.random.default_rng(8).uniform(-0.5, 0.5, 4096)
    for name, samples in (("v", noise), ("nv", -noise)):
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(samples, 8000))
    stems = [{"path": "v.wav", "label": "vocal"}, {"path": "nv.wav", "label": "non_vocal"}]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "hollow_song", "stems": stems}]}))
    _save_dnn(tmp_path / "m.mfg")
    out = tmp_path / "out"
    argv = {"train-dnn": ["--out", str(out / "dnn.mfg"), *SMALL],
            "sweep-alpha": ["--model", str(tmp_path / "m.mfg"), "--csv", str(out / "f.csv")],
            "mix": ["--out-dir", str(out)],
            "ideal-mask": ["--out-vocal", str(out / "v.wav"), "--out-accomp",
                           str(out / "a.wav")]}[command]
    if command != "mix":
        out.mkdir()
    code, stdout, err = _run(capsys, [command, "--manifest", str(manifest), *argv])
    assert (code, stdout) == (1, "")
    assert err == "error: song 'hollow_song' has submixes that cancel to a silent mixture\n"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("argv, message", [
    (["ideal-mask", "--frame", "511"], "frame_len must be an even integer >= 2"),
    (["ideal-mask", "--hop", "0"], "hop must satisfy 0 < hop <= frame_len"),
    (["ideal-mask", "--frame", "512", "--hop", "1024"], "hop must satisfy 0 < hop <= frame_len"),
    (["train-dnn", "--lr", "inf", *SMALL], "learning rate must be finite and >= 0, got inf"),
], ids=["odd-frame", "zero-hop", "hop-over-frame", "infinite-lr"])
def test_bad_flags_are_refused_before_any_song_is_read(tiny_corpus, tmp_path, capsys,
                                                       monkeypatch, argv, message):
    loaded = []
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "load_song", lambda song: loaded.append(song))
    manifest = str(tiny_corpus["test_manifest"] if argv[0] == "ideal-mask"
                   else tiny_corpus["train_manifest"])
    outputs = {"ideal-mask": ["--song", tiny_corpus["test_songs"][0].song_id,
                              "--out-vocal", str(tmp_path / "v.wav"),
                              "--out-accomp", str(tmp_path / "a.wav")],
               "train-dnn": ["--out", str(tmp_path / "m.mfg")]}[argv[0]]
    code, out, err = _run(capsys, [*argv, "--manifest", manifest, *outputs])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert loaded == [] and list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# refusals of malformed model and WAV headers, named by file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flaw, message", [
    ("three-ranks", "an nmf model has 2 ranks, not 3"),
    ("rate-0", "bad front end ("),
    ("width-0", "bad front end ("),
])
def test_separate_names_a_model_file_it_refuses(tmp_path, capsys, rng, flaw, message):
    model_path, mixture = tmp_path / "m.mfg", tmp_path / "x.wav"
    _noise_wav(mixture, 8000)
    if flaw == "three-ranks":
        w = rng.uniform(0.1, 1, (2, SMALL_FRONT_END.window_size))
        write_model(model_path, NMF, SMALL_FRONT_END, [2, 2, 2], [w, w, w])
    else:
        _save_dnn(model_path)
        raw = bytearray(model_path.read_bytes())
        # the header's front end: four u32 (rate, frame, hop, width) from byte 12
        struct.pack_into("<I", raw, 12 if flaw == "rate-0" else 24, 0)
        model_path.write_bytes(bytes(raw))
    code, out, err = _run(capsys, _separate_argv(tmp_path, model_path, mixture))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {model_path}: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mfg", "x.wav"]


@pytest.mark.parametrize("command", ["separate", "evaluate"])
@pytest.mark.parametrize("channels, rate", [(0, 8000), (1, 0)], ids=["no-channels", "no-rate"])
def test_a_wav_without_channels_or_rate_is_refused_by_name(tmp_path, capsys, command,
                                                            channels, rate):
    bad = tmp_path / "bad.wav"
    payload = np.zeros(4, dtype="<f4").tobytes()
    bad.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                                b"fmt ", 16, 3, channels, rate, rate * 4 * channels,
                                4 * channels, 32, b"data", len(payload)) + payload)
    model_path, good = tmp_path / "m.mfg", tmp_path / "good.wav"
    _save_dnn(model_path)
    _noise_wav(good, 8000)
    eval_csv = tmp_path / "eval.csv"
    argv = (_separate_argv(tmp_path, model_path, bad) if command == "separate" else
            ["evaluate", "--est-vocal", str(good), "--est-accomp", str(good),
             "--ref-vocal", str(bad), "--ref-accomp", str(good), "--csv", str(eval_csv)])
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: invalid channel count or sample rate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wav", "good.wav", "m.mfg"]


# ---------------------------------------------------------------------------
# mutated model files, WAVs and manifests fail with a typed error, never a crash
# ---------------------------------------------------------------------------

# frame 4 gives 3 bins; at width 1 a model sees 3-element windows
FUZZ_FRONT_END = FrontEnd(8000, frame_len=4, hop=2, width=1)
# the DNN seed's header: 32 bytes, then its 3 layer sizes
MODEL_HEADER_BYTES = 44


@functools.cache
def _valid_model_files() -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as root:
        mlp_path, nmf_path = Path(root, "m.mfg"), Path(root, "n.mfg")
        save_model(init_model([3, 2, 3], seed=0, front_end=FUZZ_FRONT_END), mlp_path)
        save_nmf(NmfModel(np.full((3, 2), 0.5), np.full((3, 1), 0.25), FUZZ_FRONT_END),
                 nmf_path)
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
@given(raw=_mutated(_valid_model_files, head=MODEL_HEADER_BYTES))
def test_mutated_model_file_fails_cleanly(tmp_path_factory, raw):
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz.mfg"
    path.write_bytes(raw)
    try:
        load_any_model(path)
    except (ValueError, OSError):
        pass
    # the input WAV does not exist, so separate fails even on a valid model
    _cli_fails_cleanly(["separate", "--model", str(path), "--alpha", "0.5",
                        "--input", str(root / "missing.wav"),
                        "--out-vocal", str(root / "v.wav"),
                        "--out-accomp", str(root / "a.wav")],
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
                        "--out-accomp", str(root / "a.wav")],
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


_ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "POSIX"}


def _cli_in_ascii_locale(argv: list) -> subprocess.CompletedProcess:
    """`python -m maskforge.cli` with `argv`, in a child whose locale is ASCII."""
    src = str(Path(cli.__file__).parents[1])
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "maskforge.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, **_ASCII_LOCALE, "PYTHONPATH": python_path})


def test_manifest_reads_as_utf8_in_an_ascii_locale(tmp_path):
    # JSON text is UTF-8, so a manifest does not decode by the locale's encoding
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps({"songs": [{"id": "s\u00e5ng_000", "stems": [
        {"path": "vocal.wav", "label": "vocal"}, {"path": "accomp.wav", "label": "non_vocal"}]}]},
        ensure_ascii=False).encode())
    child = _in_small_child(f"(song,) = cli.load_manifest({str(path)!r})\n"
                            "print(ascii(song.song_id), ascii(song.stems[0][0].name))",
                            {**os.environ, **_ASCII_LOCALE})
    assert (child.returncode, child.stdout) == (0, "'s\\xe5ng_000' 'vocal.wav'\n"), child.stderr


def test_stem_path_outside_the_filesystem_encoding_is_refused_by_name(tmp_path):
    # an ASCII locale cannot open a non-ASCII name, so the manifest is refused
    # with one line that names it and the stem, not a bare codec error
    stem = "s\u00e5ng_000/vocal.wav"
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps({"songs": [{"id": "song", "stems": [
        {"path": stem, "label": "vocal"}]}]}, ensure_ascii=False).encode())
    child = _cli_in_ascii_locale(["train-nmf", "--manifest", path, "--out", tmp_path / "n.mfg"])
    escaped = stem.encode("ascii", "backslashreplace").decode()   # as stderr writes it
    assert child.returncode == 1, child.stderr
    assert child.stderr.count("\n") == 1
    assert child.stderr.startswith(f"error: {path}: ") and escaped in child.stderr
    assert not (tmp_path / "n.mfg").exists()


def test_output_name_outside_the_filesystem_encoding_is_refused_by_name(tmp_path):
    # mix names its outputs after the song id, which an ASCII locale cannot
    # create, so the outputs are refused with one line that names the first
    manifest = _two_stem_manifest(tmp_path, {"song": (8000, 8000)})
    doc = json.loads(manifest.read_text())
    doc["songs"][0]["id"] = "s\u00e5ng"
    manifest.write_text(json.dumps(doc))
    out_dir = tmp_path / "new" / "mixes"
    child = _cli_in_ascii_locale(["mix", "--manifest", manifest, "--out-dir", out_dir])
    assert child.returncode == 1, child.stderr
    assert child.stderr == (f"error: {out_dir}/s\\xe5ng_vocals.wav: the output name is not "
                            "representable in the filesystem encoding, ascii\n")
    assert not (tmp_path / "new").exists()     # nor any directory the refused run made


# 250 bytes of ASCII, and 63 four-byte UTF-8 characters (252 bytes)
@pytest.mark.parametrize("name", ["n" * 246 + ".wav", "\U0001f3b5" * 63],
                         ids=["250_ascii_bytes", "63_utf8_chars"])
def test_ideal_mask_writes_to_any_name_the_filesystem_takes(tiny_corpus, tmp_path, capsys,
                                                            name):
    code, _, err = _run(capsys, ["ideal-mask", "--manifest", str(tiny_corpus["test_manifest"]),
                                 "--out-vocal", str(tmp_path / name),
                                 "--out-accomp", str(tmp_path / "a.wav")])
    assert code == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "a.wav"])


def test_sweep_reports_the_rows_it_wrote(tmp_path, capsys):
    _save_dnn(tmp_path / "dnn.mfg")
    manifest = _two_stem_manifest(tmp_path, {"song_a": (8000, 8000), "song_b": (8000, 8000)})
    fig2 = tmp_path / "fig2.csv"
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest), "--model", str(tmp_path / "dnn.mfg"),
        "--alphas", "0.2,0.4,0.6", "--csv", str(fig2),
    ])
    assert code == 0, err
    n_rows = len(fig2.read_text().splitlines()) - 1
    assert out == f"wrote {fig2} ({n_rows} data rows)\n"
    assert n_rows == 3 * 3 * 3   # 3 alphas x (dnn, ideal, mixture) x 3 sources


def test_duplicate_model_kind_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"songs": []}')
    code, out, err = _run(capsys, [
        "sweep-alpha", "--manifest", str(manifest),
        "--model", str(model_path), "--model", str(model_path),
        "--csv", str(tmp_path / "o.csv"),
    ])
    assert code == 1
    assert "two dnn models given" in err


def test_bad_alpha_grammar_exits_one(tmp_path, capsys):
    model_path = tmp_path / "m.mlp"
    _save_dnn(model_path)
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


# ---------------------------------------------------------------------------
# every output is checked before any work
# ---------------------------------------------------------------------------

def _probe_argv(t, c):
    """{probe: argv} against the corpus copy `c` in `t`: each output either
    repeats another output or an input, or lies in a missing directory."""
    s2 = c / "synth_002"
    train = ["--manifest", str(c / "train.json"), *SMALL, "--hidden", "4", "--epochs", "1"]
    sweep = ["sweep-alpha", "--manifest", str(c / "test.json"), "--model", str(t / "d2.mfg"),
             "--alphas", "0.5", "--nmf-iterations", "2"]
    ideal = ["ideal-mask", "--manifest", str(c / "test.json")]
    return {
        "ideal-mask-same-outputs": [*ideal, "--out-vocal", str(t / "same.wav"),
                                    "--out-accomp", str(t / "same.wav")],
        "ideal-mask-over-a-stem": [*ideal, "--out-vocal", str(s2 / "vocal.wav"),
                                   "--out-accomp", str(t / "a.wav")],
        "sweep-three-same-csvs": [*sweep, "--csv", str(t / "x.csv"), "--fig3-csv",
                                  str(t / "x.csv"), "--per-song-csv", str(t / "x.csv")],
        "evaluate-csv-over-an-estimate": [
            "evaluate", "--est-vocal", str(s2 / "vocal.wav"), "--est-accomp",
            str(s2 / "accomp.wav"), "--ref-vocal", str(s2 / "vocal.wav"), "--ref-accomp",
            str(s2 / "accomp.wav"), "--csv", str(s2 / "vocal.wav")],
        "separate-over-its-model": [
            "separate", "--model", str(t / "d2.mfg"), "--alpha", "0.5",
            "--input", str(s2 / "vocal.wav"), "--out-vocal", str(t / "d2.mfg"),
            "--out-accomp", str(t / "a.wav")],
        "train-dnn-over-its-manifest": ["train-dnn", *train, "--out", str(c / "train.json")],
        "train-dnn-missing-dir": ["train-dnn", *train, "--out", str(t / "missing" / "m.mfg")],
        "train-nmf-missing-dir": ["train-nmf", *train[:-4], "--rank", "2", "--iterations", "2",
                                  "--out", str(t / "missing" / "m.mfg")],
        "sweep-csv-missing-dir": [*sweep, "--csv", str(t / "missing" / "x.csv")],
        "sweep-fig3-missing-dir": [*sweep, "--csv", str(t / "x.csv"),
                                   "--fig3-csv", str(t / "missing" / "f.csv")],
        "sweep-per-song-missing-dir": [*sweep, "--csv", str(t / "x.csv"),
                                       "--per-song-csv", str(t / "missing" / "p.csv")],
    }


def _tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("probe", list(_probe_argv(Path("t"), Path("c"))))
def test_outputs_are_refused_before_any_work(tiny_corpus, tmp_path, capsys, monkeypatch,
                                             probe):
    corpus = tmp_path / "c"
    shutil.copytree(tiny_corpus["dir"], corpus)
    _save_dnn(tmp_path / "d2.mfg", FrontEnd(22050, frame_len=256, hop=64, width=5))
    ran = []
    for module, name in [(pipeline, "train_dnn"), (pipeline, "train_nmf"),
                         (pipeline, "sweep_alpha"), (pipeline, "separate_file"),
                         (pipeline, "ideal_mask_separate"), (cli, "read_wav")]:
        def spy(*args, name=name):
            ran.append(name)
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(module, name, spy)
    before = _tree(tmp_path)
    code, out, err = _run(capsys, _probe_argv(tmp_path, corpus)[probe])
    assert (code, ran) == (1, [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _tree(tmp_path) == before


def test_separate_over_its_input_fails_in_one_line(tmp_path, capsys):
    mixture = tmp_path / "x.wav"
    _save_dnn(tmp_path / "m.mfg")
    _noise_wav(mixture, 8000)
    before = _tree(tmp_path)
    code, out, err = _run(capsys, [
        "separate", "--model", str(tmp_path / "m.mfg"), "--alpha", "0.5",
        "--input", str(mixture), "--out-vocal", str(tmp_path / "v.wav"),
        "--out-accomp", str(mixture)])
    assert code == 1
    assert err == f"error: {mixture}: an output must differ from the inputs and other outputs\n"
    assert _tree(tmp_path) == before


def test_mix_refuses_an_output_over_a_stem(tmp_path, capsys):
    _noise_wav(tmp_path / "s_vocals.wav", 8000)
    _noise_wav(tmp_path / "acc.wav", 8000, seed=1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [{"id": "s", "stems": [
        {"path": "s_vocals.wav", "label": "vocal"}, {"path": "acc.wav", "label": "non_vocal"}]}]}))
    before = _tree(tmp_path)
    code, out, err = _run(capsys, ["mix", "--manifest", str(manifest),
                                   "--out-dir", str(tmp_path)])
    assert code == 1
    assert err == (f"error: {tmp_path / 's_vocals.wav'}: an output must differ from the "
                   "inputs and other outputs\n")
    assert _tree(tmp_path) == before


# ---------------------------------------------------------------------------
# a command's outputs land together or not at all
# ---------------------------------------------------------------------------

def _fails_writing(target, real):
    """`real`, a writer of (path, ...), except that writing `target` begins its
    part and then fails as on a full disk."""
    def write(path, *args):
        if Path(path) != target:
            return real(path, *args)
        with output_file(path) as fh:
            fh.write(b"RIFF")
            raise OSError(errno.ENOSPC, "No space left on device")
    return write


@pytest.mark.parametrize("existing", [False, True])
def test_mix_refused_at_a_later_song_lands_no_song(tmp_path, capsys, existing):
    noise = np.random.default_rng(8).uniform(-0.5, 0.5, (2, 4096))
    for name, samples in (("a", noise[0]), ("b", noise[1]), ("neg", -noise[0])):
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(samples, 8000))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"songs": [
        {"id": song_id, "stems": [{"path": "a.wav", "label": "vocal"},
                                  {"path": accomp, "label": "non_vocal"}]}
        for song_id, accomp in (("good", "b.wav"), ("hollow", "neg.wav"))]}))
    out = tmp_path / "new" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "good_vocals.wav").write_bytes(b"old")
    before = _tree(tmp_path)
    code, stdout, err = _run(capsys, ["mix", "--manifest", str(manifest), "--out-dir", str(out)])
    assert (code, stdout) == (1, "")
    assert err == "error: song 'hollow' has submixes that cancel to a silent mixture\n"
    # no good_*.wav, no part file, and no directory that mix made
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("existing", [False, True])
def test_ideal_mask_failing_its_last_write_changes_no_target(tiny_corpus, tmp_path, capsys,
                                                            monkeypatch, existing):
    vocal, accomp = tmp_path / "v.wav", tmp_path / "a.wav"
    if existing:
        vocal.write_bytes(b"old vocal")
        accomp.write_bytes(b"old accompaniment")
    before = _tree(tmp_path)
    monkeypatch.setattr(cli, "write_wav", _fails_writing(accomp, cli.write_wav))
    code, stdout, err = _run(capsys, [
        "ideal-mask", "--manifest", str(tiny_corpus["test_manifest"]),
        "--out-vocal", str(vocal), "--out-accomp", str(accomp)])
    assert (code, stdout, err) == (1, "", "error: [Errno 28] No space left on device\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("existing", [False, True])
def test_make_corpus_failing_its_last_write_changes_no_target(tmp_path, capsys, monkeypatch,
                                                              existing):
    out = tmp_path / "new" / "corpus"
    if existing:   # an earlier corpus's first song and training manifest
        (out / "synth_000").mkdir(parents=True)
        (out / "synth_000" / "vocal.wav").write_bytes(b"old vocal")
        (out / "train.json").write_bytes(b"old manifest")
    before = _tree(tmp_path)
    monkeypatch.setattr(synth, "write_manifest",
                        _fails_writing(out / "test.json", synth.write_manifest))
    code, stdout, err = _run(capsys, ["make-corpus", "--out-dir", str(out), "--train", "2",
                                      "--test", "1", "--duration", "0.1"])
    assert (code, stdout, err) == (1, "", "error: [Errno 28] No space left on device\n")
    assert _tree(tmp_path) == before


def test_make_corpus_refuses_a_bad_output_before_it_synthesizes(tmp_path, capsys,
                                                                monkeypatch):
    out = tmp_path / "corpus"
    (out / "test.json").mkdir(parents=True)
    songs = []
    real = synth.generate_song
    monkeypatch.setattr(synth, "generate_song", lambda cfg, i: songs.append(i) or real(cfg, i))
    before = _tree(tmp_path)
    code, stdout, err = _run(capsys, ["make-corpus", "--out-dir", str(out), "--train", "2",
                                      "--test", "1", "--duration", "0.1"])
    assert (code, stdout, songs) == (1, "", [])
    assert err == f"error: {out / 'test.json'}: not a regular file, so it cannot be an output\n"
    assert _tree(tmp_path) == before
