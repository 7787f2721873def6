"""SHA-256 of every file that a command-line journey writes, at two model sizes.

The journey makes a corpus of 20 training and 5 test songs, trains the DNN and
the NMF dictionaries, sweeps alpha with all three CSVs, separates a 4 s and a
20 s mixture with each model, scores each 4 s separation with `evaluate --csv`
against the vocal and accompaniment mixes that `mix` wrote for its song, and
runs `mix` and `ideal-mask` on the test songs. It runs once at
the benchmark's sizes (hidden 128, 2 epochs, learning rate 0.03, 20 NMF
training and 25 inference iterations) into OUT_DIR/small, and once at the
`ExperimentConfig` defaults into OUT_DIR/default. It then prints
`sha256  relative/path` for every file under OUT_DIR, sorted by path, and
exits non-zero if any step does. Two trees that should write the same bytes
give the same lines:

    python3 scripts/journey_digest.py OUT_DIR > digest.txt

OUT_DIR must be missing or empty. maskforge is imported from the `src/` of
the checkout that holds this script; the commands' own messages go to stderr.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from maskforge import cli  # noqa: E402

# extra flags per step at each size; the default size adds none
SIZES = {
    "small": {"train-dnn": ["--hidden", "128", "--epochs", "2", "--lr", "0.03"],
              "train-nmf": ["--iterations", "20"],
              "inference": ["--nmf-iterations", "25"]},
    "default": {"train-dnn": [], "train-nmf": [], "inference": []},
}
MIXTURE_SECONDS = (4, 20)
EVALUATED_SECONDS = 4    # the mixture whose separations `evaluate` scores
MIXTURE_SEED = 99        # not the corpus's seed, so the mixtures are new songs


def run(*argv) -> None:
    """One CLI command, its messages on stderr; exit if it fails."""
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")


def journey(root: Path, flags: dict[str, list[str]]) -> None:
    corpus = root / "corpus"
    run("make-corpus", "--out-dir", corpus, "--train", 20, "--test", 5)
    train, test = corpus / "train.json", corpus / "test.json"
    models = {kind: root / f"{kind}.mfg" for kind in ("dnn", "nmf")}
    run("train-dnn", "--manifest", train, "--out", models["dnn"], *flags["train-dnn"])
    run("train-nmf", "--manifest", train, "--out", models["nmf"], *flags["train-nmf"])
    run("sweep-alpha", "--manifest", test, "--model", models["dnn"], "--model", models["nmf"],
        "--csv", root / "fig2.csv", "--fig3-csv", root / "fig3.csv",
        "--per-song-csv", root / "per_song.csv", *flags["inference"])
    for seconds in MIXTURE_SECONDS:
        song = root / f"song_{seconds}s"
        run("make-corpus", "--out-dir", song, "--train", 0, "--test", 1,
            "--duration", seconds, "--seed", MIXTURE_SEED)
        run("mix", "--manifest", song / "test.json", "--out-dir", song)
        for kind, model in models.items():
            est = {part: root / f"{kind}_{seconds}s_{part}.wav" for part in ("vocal", "accomp")}
            run("separate", "--model", model, "--alpha", 0.5,
                "--input", song / "synth_000_mixture.wav",
                "--out-vocal", est["vocal"], "--out-accomp", est["accomp"], *flags["inference"])
            if seconds == EVALUATED_SECONDS:
                run("evaluate", "--est-vocal", est["vocal"], "--est-accomp", est["accomp"],
                    "--ref-vocal", song / "synth_000_vocals.wav",
                    "--ref-accomp", song / "synth_000_accompaniment.wav",
                    "--csv", root / f"{kind}_{seconds}s_eval.csv", "--song-id", "synth_000",
                    "--method", kind, "--alpha", 0.5)
    run("mix", "--manifest", test, "--out-dir", root / "mix")
    run("ideal-mask", "--manifest", test, "--song", "synth_020",
        "--out-vocal", root / "ideal_vocal.wav", "--out-accomp", root / "ideal_accomp.wav")


def main(out_dir: Path) -> None:
    if out_dir.exists() and any(out_dir.iterdir()):
        sys.exit(f"{out_dir} is not empty")
    for size, flags in SIZES.items():
        journey(out_dir / size, flags)
    for rel in sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
                      if p.is_file()):
        print(f"{hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()}  {rel}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
