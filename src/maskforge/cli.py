"""Command-line front end.

Subcommands cover the full experiment: make-corpus, mix, train-dnn,
train-nmf, separate, ideal-mask, evaluate, sweep-alpha. Exit codes: 0 on
success, 1 on runtime failure (diagnostic on stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import mlp, nmf, pipeline, synth
from .audio_io import (CSV_UNSAFE, ManifestSong, check_outputs, landing, load_manifest,
                       load_song, pool_and_mix, read_wav, write_wav)
from .bss_eval import SOURCES, evaluate_pair
from .patching import PatchConfig
from .pipeline import ExperimentConfig
from .stft import StftConfig

# Flags that set an ExperimentConfig or SynthConfig field take their defaults from here.
_DEFAULTS = ExperimentConfig()
_SYNTH_DEFAULTS = synth.SynthConfig()
# Steps an alpha range may span: a grid as fine as 1e-4 over (0, 1).
_MAX_ALPHA_STEPS = 10_000


def parse_alphas(text: str) -> tuple[float, ...]:
    """"0.1:0.9:0.1" (inclusive range) or a comma list like "0.2,0.5"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("alpha range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"alpha range {text!r} is not finite")
        if step <= 0:
            raise ValueError("alpha step must be positive")
        steps = (stop - start) / step
        if not math.isfinite(steps) or steps > _MAX_ALPHA_STEPS:
            raise ValueError(f"alpha range {text!r} spans more than {_MAX_ALPHA_STEPS} steps")
        grid = (round(start + k * step, 10) for k in range(max(int(steps), 0) + 2))
        alphas = tuple(a for a in grid if a <= stop + 1e-9)
    else:
        alphas = tuple(float(p) for p in text.split(",") if p.strip())
    if not alphas:
        raise ValueError(f"no alpha values in {text!r}")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha {a} outside (0, 1)")
    return alphas


def _experiment_config(args, **fields) -> ExperimentConfig:
    """The STFT, patch and seed flags of the training subcommands, plus `fields`."""
    return ExperimentConfig(
        stft=StftConfig(frame_len=args.frame, hop=args.hop),
        patch=PatchConfig(width=args.width, train_stride=args.train_stride),
        seed=args.seed,
        **fields,
    )


def _songs(args) -> list[ManifestSong]:
    """The manifest's songs, or only the one named by --song."""
    songs = load_manifest(args.manifest)
    if not songs:
        raise ValueError("manifest has no songs")
    if args.song is None:
        return songs
    songs = [s for s in songs if s.song_id == args.song]
    if not songs:
        raise ValueError(f"song {args.song!r} not in manifest")
    return songs


def _reads(manifest, songs: list[ManifestSong]) -> list:
    """The files a subcommand reads from a manifest: it and its songs' stems."""
    return [manifest, *(path for song in songs for path, _ in song.stems)]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_make_corpus(args) -> int:
    cfg = synth.SynthConfig(sample_rate=args.sample_rate, duration=args.duration,
                            seed=args.seed)
    print(*synth.generate_corpus(args.out_dir, args.train, args.test, cfg), sep="\n")
    return 0


def cmd_mix(args) -> int:
    songs = _songs(args)
    out_dir = Path(args.out_dir)
    names = ("vocals", "accompaniment", "mixture")
    with landing([out_dir / f"{s.song_id}_{n}.wav" for s in songs for n in names],
                 _reads(args.manifest, songs), make=[out_dir]):
        for song in songs:
            for name, mix in zip(names, pool_and_mix(load_song(song))):
                write_wav(out_dir / f"{song.song_id}_{name}.wav", mix)
    for song in songs:
        print(f"{song.song_id}: wrote 3 files to {out_dir}")
    return 0


def cmd_train_dnn(args) -> int:
    hidden = tuple(int(h) for h in args.hidden.split(",") if h.strip())
    cfg = _experiment_config(args, hidden=hidden, epochs=args.epochs,
                             learning_rate=args.lr, loss=args.loss)
    songs = load_manifest(args.manifest)
    with landing([args.out], _reads(args.manifest, songs)):
        model, trace = pipeline.train_dnn(songs, cfg)
        mlp.save_model(model, args.out)
    print(f"trained {cfg.layer_sizes} on {len(songs)} songs; "
          f"loss {trace[0]:.6f} -> {trace[-1]:.6f}; saved {args.out}")
    return 0


def cmd_train_nmf(args) -> int:
    cfg = _experiment_config(args, nmf_rank=args.rank, nmf_train_iters=args.iterations)
    songs = load_manifest(args.manifest)
    with landing([args.out], _reads(args.manifest, songs)):
        nmf.save_nmf(pipeline.train_nmf(songs, cfg), args.out)
    print(f"trained rank-{args.rank} dictionaries on {len(songs)} songs; "
          f"saved {args.out}")
    return 0


def cmd_separate(args) -> int:
    cfg = ExperimentConfig(alphas=(args.alpha,), nmf_infer_iters=args.nmf_iterations,
                           seed=args.seed)
    check_outputs([args.out_vocal, args.out_accomp], [args.model, args.input])
    _, model = pipeline.load_any_model(args.model)
    pipeline.separate_file(args.input, args.out_vocal, args.out_accomp, model,
                           args.alpha, cfg, infer_seed=cfg.seed)
    print(f"wrote {args.out_vocal} and {args.out_accomp}")
    return 0


def cmd_ideal_mask(args) -> int:
    stft_cfg = StftConfig(frame_len=args.frame, hop=args.hop)
    songs = _songs(args)
    if args.song is None and len(songs) > 1:
        raise ValueError("manifest has multiple songs; pass --song")
    with landing([args.out_vocal, args.out_accomp], _reads(args.manifest, songs)):
        vocal, accomp = pipeline.ideal_mask_separate(load_song(songs[0]), stft_cfg)
        write_wav(args.out_vocal, vocal)
        write_wav(args.out_accomp, accomp)
    print(f"wrote {args.out_vocal} and {args.out_accomp}")
    return 0


def cmd_evaluate(args) -> int:
    for flag, label in (("--song-id", args.song_id), ("--method", args.method)):
        if args.csv and any(c in label for c in CSV_UNSAFE):
            raise ValueError(f"{flag} {label!r} holds a comma, quote or line break")
    if args.csv and not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha {args.alpha} outside (0, 1)")
    paths = (args.est_vocal, args.est_accomp, args.ref_vocal, args.ref_accomp)
    check_outputs([args.csv] if args.csv else [], paths)
    buffers = [read_wav(p) for p in paths]
    if len({b.sample_rate for b in buffers}) > 1:
        raise ValueError("sample rates differ: " + ", ".join(
            f"{p} {b.sample_rate} Hz" for p, b in zip(paths, buffers)))
    if len(buffers[2]) != len(buffers[3]):
        raise ValueError("reference lengths differ: " + ", ".join(
            f"{p} {len(b)} samples" for p, b in zip(paths[2:], buffers[2:])))
    if silent := [p for p, b in zip(paths[2:], buffers[2:]) if not b.samples.any()]:
        raise ValueError(f"{silent[0]}: an empty or all-zero reference cannot be scored against")
    sources = evaluate_pair(*(b.samples for b in buffers))
    for name, m in sources.items():
        print(f"{name}: sdr={m.sdr_db:.6f} dB  sir={m.sir_db:.6f} dB  "
              f"sar={m.sar_db:.6f} dB")
    if args.csv:
        pipeline.write_csv((args.csv, [pipeline.PER_SONG_HEADER] + [
            pipeline.per_song_row(args.song_id, args.method, args.alpha, name, m)
            for name, m in sources.items()]))
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep_alpha(args) -> int:
    cfg = ExperimentConfig(alphas=parse_alphas(args.alphas), nmf_infer_iters=args.nmf_iterations,
                           seed=args.seed)
    songs = load_manifest(args.manifest)
    check_outputs([p for p in (args.csv, args.fig3_csv, args.per_song_csv) if p is not None],
                  [*_reads(args.manifest, songs), *args.model])
    models: dict[str, pipeline.Model] = {}
    for path in args.model:
        method, model = pipeline.load_any_model(path)
        if method in models:
            raise ValueError(f"two {method} models given; pass one per kind")
        models[method] = model
    sweep = pipeline.run_sweep_to_csv(songs, models, cfg, args.csv, fig3_path=args.fig3_csv,
                                      per_song_path=args.per_song_csv)
    n_rows = len(sweep.alphas) * len(sweep.methods) * len(SOURCES)
    print(f"wrote {args.csv} ({n_rows} data rows)")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskforge",
        description="Vocal/accompaniment separation with learned binary masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag that sets an ExperimentConfig field is declared once, here;
    # separate and sweep-alpha take the STFT and width from the model
    stft, width, seed, training, inference = (argparse.ArgumentParser(add_help=False)
                                              for _ in range(5))
    stft.add_argument("--frame", type=int, default=_DEFAULTS.stft.frame_len,
                      help="frame length in samples")
    stft.add_argument("--hop", type=int, default=_DEFAULTS.stft.hop, help="hop in samples")
    width.add_argument("--width", type=int, default=_DEFAULTS.patch.width,
                       help="patch width in frames")
    seed.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    training.add_argument("--manifest", required=True)
    training.add_argument("--out", required=True, help="model file to write")
    training.add_argument("--train-stride", type=int, default=None,
                          help="training window stride (default: --width)")
    inference.add_argument("--nmf-iterations", type=int, default=_DEFAULTS.nmf_infer_iters)

    p = sub.add_parser("make-corpus", help="generate a synthetic stem corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", type=int, default=20)
    p.add_argument("--test", type=int, default=5)
    p.add_argument("--seed", type=int, default=_SYNTH_DEFAULTS.seed)
    p.add_argument("--sample-rate", type=int, default=_SYNTH_DEFAULTS.sample_rate)
    p.add_argument("--duration", type=float, default=_SYNTH_DEFAULTS.duration)
    p.set_defaults(func=cmd_make_corpus)

    p = sub.add_parser("mix", help="pool stems into vocal/accompaniment/full mixes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--song", default=None, help="song id (default: all songs)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train-dnn", parents=[training, stft, width, seed],
                       help="train the mask-prediction network")
    p.add_argument("--hidden", default=",".join(map(str, _DEFAULTS.hidden)),
                   help="comma list of hidden sizes")
    p.add_argument("--epochs", type=int, default=_DEFAULTS.epochs)
    p.add_argument("--lr", type=float, default=_DEFAULTS.learning_rate)
    p.add_argument("--loss", choices=[mlp.LOSS_CROSS_ENTROPY, mlp.LOSS_MSE],
                   default=_DEFAULTS.loss)
    p.set_defaults(func=cmd_train_dnn)

    p = sub.add_parser("train-nmf", parents=[training, stft, width, seed],
                       help="train per-class dictionaries")
    p.add_argument("--rank", type=int, default=_DEFAULTS.nmf_rank)
    p.add_argument("--iterations", type=int, default=_DEFAULTS.nmf_train_iters)
    p.set_defaults(func=cmd_train_nmf)

    p = sub.add_parser("separate", parents=[seed, inference],
                       help="separate one mixture file")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-vocal", required=True)
    p.add_argument("--out-accomp", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("ideal-mask", parents=[stft],
                       help="oracle-mask separation from true stems")
    p.add_argument("--manifest", required=True)
    p.add_argument("--song", default=None)
    p.add_argument("--out-vocal", required=True)
    p.add_argument("--out-accomp", required=True)
    p.set_defaults(func=cmd_ideal_mask)

    p = sub.add_parser("evaluate", help="score estimates against references")
    p.add_argument("--est-vocal", required=True)
    p.add_argument("--est-accomp", required=True)
    p.add_argument("--ref-vocal", required=True)
    p.add_argument("--ref-accomp", required=True)
    p.add_argument("--csv", default=None, help="optional per-song CSV to write")
    p.add_argument("--song-id", default="song")
    p.add_argument("--method", default="external")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="the CSV's alpha column, in (0, 1)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-alpha", parents=[seed, inference],
                       help="evaluate across a confidence grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat for dnn + nmf")
    p.add_argument("--alphas", default=",".join(map(str, _DEFAULTS.alphas)),
                   help="start:stop:step or comma list")
    p.add_argument("--csv", required=True, help="metric-vs-alpha CSV")
    p.add_argument("--fig3-csv", default=None, help="SAR-vs-SIR CSV")
    p.add_argument("--per-song-csv", default=None)
    p.set_defaults(func=cmd_sweep_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
