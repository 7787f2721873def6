"""Command-line interface: full flow, flag parsing, exit codes."""

import numpy as np
import pytest

from maskforge import cli
from maskforge.audio_io import read_wav
from maskforge.pipeline import FIG2_HEADER, FIG3_HEADER, PER_SONG_HEADER


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
    assert np.allclose(m, v + a, rtol=0, atol=2.0 ** -14)  # pcm16 output

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
