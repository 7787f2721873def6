"""Command-line front end.

Subcommands cover the full experiment: make-corpus, mix, train-dnn,
train-nmf, separate, ideal-mask, evaluate, sweep-alpha. Exit codes: 0 on
success, 1 on runtime failure (diagnostic on stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import mlp, nmf, pipeline, synth
from .audio_io import ManifestSong, load_manifest, load_song, pool_and_mix, read_wav, write_wav
from .bss_eval import evaluate_pair
from .patching import PatchConfig
from .pipeline import ExperimentConfig
from .stft import StftConfig

# Flags that set an ExperimentConfig field take their defaults from here.
_DEFAULTS = ExperimentConfig()


def parse_alphas(text: str) -> tuple[float, ...]:
    """"0.1:0.9:0.1" (inclusive range) or a comma list like "0.2,0.5"."""
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


def _experiment_config(args, **fields) -> ExperimentConfig:
    """The STFT, patch and seed flags every model subcommand has, plus `fields`.
    The training stride defaults to the patch width."""
    stride = getattr(args, "train_stride", None)
    return ExperimentConfig(
        stft=StftConfig(frame_len=args.frame, hop=args.hop),
        patch=PatchConfig(width=args.width,
                          train_stride=args.width if stride is None else stride),
        seed=args.seed,
        **fields,
    )


def _songs(args) -> list[ManifestSong]:
    """The manifest's songs, or only the one named by --song."""
    songs = load_manifest(args.manifest)
    if args.song is None:
        return songs
    songs = [s for s in songs if s.song_id == args.song]
    if not songs:
        raise ValueError(f"song {args.song!r} not in manifest")
    return songs


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_make_corpus(args) -> int:
    cfg = synth.SynthConfig(sample_rate=args.sample_rate, duration=args.duration,
                            seed=args.seed)
    train, test = synth.generate_corpus(args.out_dir, args.train, args.test, cfg)
    print(train)
    print(test)
    return 0


def cmd_mix(args) -> int:
    songs = _songs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for song in songs:
        vocal, nonvocal, full = pool_and_mix(load_song(song))
        write_wav(out_dir / f"{song.song_id}_vocals.wav", vocal)
        write_wav(out_dir / f"{song.song_id}_accompaniment.wav", nonvocal)
        write_wav(out_dir / f"{song.song_id}_mixture.wav", full)
        print(f"{song.song_id}: wrote 3 files to {out_dir}")
    return 0


def cmd_train_dnn(args) -> int:
    songs = load_manifest(args.manifest)
    hidden = tuple(int(h) for h in args.hidden.split(",") if h.strip())
    cfg = _experiment_config(args, hidden=hidden, epochs=args.epochs,
                             learning_rate=args.lr, loss=args.loss)
    model, trace = pipeline.train_dnn(songs, cfg)
    mlp.save_model(model, args.out)
    print(f"trained {cfg.layer_sizes} on {len(songs)} songs; "
          f"loss {trace[0]:.6f} -> {trace[-1]:.6f}; saved {args.out}")
    return 0


def cmd_train_nmf(args) -> int:
    songs = load_manifest(args.manifest)
    cfg = _experiment_config(args, nmf_rank=args.rank, nmf_train_iters=args.iterations)
    model = pipeline.train_nmf(songs, cfg)
    nmf.save_nmf(model, args.out)
    print(f"trained rank-{args.rank} dictionaries on {len(songs)} songs; "
          f"saved {args.out}")
    return 0


def cmd_separate(args) -> int:
    cfg = _experiment_config(args, alphas=(args.alpha,),
                             nmf_infer_iters=args.nmf_iterations)
    _, model = pipeline.load_any_model(args.model, cfg)
    pipeline.separate_file(args.input, args.out_vocal, args.out_accomp, model,
                           args.alpha, cfg, infer_seed=args.seed)
    print(f"wrote {args.out_vocal} and {args.out_accomp}")
    return 0


def cmd_ideal_mask(args) -> int:
    songs = _songs(args)
    if not songs:
        raise ValueError("manifest has no songs")
    if args.song is None and len(songs) > 1:
        raise ValueError("manifest has multiple songs; pass --song")
    stems = load_song(songs[0])
    stft_cfg = StftConfig(frame_len=args.frame, hop=args.hop)
    vocal, accomp = pipeline.ideal_mask_separate(stems, stft_cfg)
    write_wav(args.out_vocal, vocal)
    write_wav(args.out_accomp, accomp)
    print(f"wrote {args.out_vocal} and {args.out_accomp}")
    return 0


def cmd_evaluate(args) -> int:
    paths = (args.est_vocal, args.est_accomp, args.ref_vocal, args.ref_accomp)
    sources = pipeline.by_source(evaluate_pair(*(read_wav(p).samples for p in paths)))
    for name, m in sources.items():
        print(f"{name}: sdr={m.sdr_db:.6f} dB  sir={m.sir_db:.6f} dB  "
              f"sar={m.sar_db:.6f} dB")
    if args.csv:
        pipeline.write_csv(args.csv, [pipeline.PER_SONG_HEADER] + [
            pipeline.per_song_row(args.song_id, args.method, args.alpha, name, m)
            for name, m in sources.items()])
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep_alpha(args) -> int:
    songs = load_manifest(args.manifest)
    alphas = parse_alphas(args.alphas)
    cfg = _experiment_config(args, alphas=alphas, nmf_infer_iters=args.nmf_iterations)
    models: dict[str, pipeline.Model] = {}
    for path in args.model:
        method, model = pipeline.load_any_model(path, cfg)
        if method in models:
            raise ValueError(f"two {method} models given; pass one per kind")
        models[method] = model
    pipeline.run_sweep_to_csv(songs, models, cfg, args.csv,
                              fig3_path=args.fig3_csv,
                              per_song_path=args.per_song_csv)
    n_rows = len(alphas) * (len(models) + 2) * 3
    print(f"wrote {args.csv} ({n_rows} data rows)")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_stft_flags(p: argparse.ArgumentParser, with_width: bool = True) -> None:
    p.add_argument("--frame", type=int, default=_DEFAULTS.stft.frame_len,
                   help="frame length in samples")
    p.add_argument("--hop", type=int, default=_DEFAULTS.stft.hop, help="hop in samples")
    if with_width:
        p.add_argument("--width", type=int, default=_DEFAULTS.patch.width,
                       help="patch width in frames")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskforge",
        description="Vocal/accompaniment separation with learned binary masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-corpus", help="generate a synthetic stem corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", type=int, default=20)
    p.add_argument("--test", type=int, default=5)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--sample-rate", type=int, default=22050)
    p.add_argument("--duration", type=float, default=1.8)
    p.set_defaults(func=cmd_make_corpus)

    p = sub.add_parser("mix", help="pool stems into vocal/accompaniment/full mixes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--song", default=None, help="song id (default: all songs)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train-dnn", help="train the mask-prediction network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    _add_stft_flags(p)
    p.add_argument("--train-stride", type=int, default=None,
                   help="training window stride (default: --width)")
    p.add_argument("--hidden", default=",".join(map(str, _DEFAULTS.hidden)),
                   help="comma list of hidden sizes")
    p.add_argument("--epochs", type=int, default=_DEFAULTS.epochs)
    p.add_argument("--lr", type=float, default=_DEFAULTS.learning_rate)
    p.add_argument("--loss", choices=[mlp.LOSS_CROSS_ENTROPY, mlp.LOSS_MSE],
                   default=_DEFAULTS.loss)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.set_defaults(func=cmd_train_dnn)

    p = sub.add_parser("train-nmf", help="train per-class dictionaries")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_stft_flags(p)
    p.add_argument("--train-stride", type=int, default=None)
    p.add_argument("--rank", type=int, default=_DEFAULTS.nmf_rank)
    p.add_argument("--iterations", type=int, default=_DEFAULTS.nmf_train_iters)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.set_defaults(func=cmd_train_nmf)

    p = sub.add_parser("separate", help="separate one mixture file")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-vocal", required=True)
    p.add_argument("--out-accomp", required=True)
    _add_stft_flags(p)
    p.add_argument("--nmf-iterations", type=int, default=_DEFAULTS.nmf_infer_iters)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("ideal-mask", help="oracle-mask separation from true stems")
    p.add_argument("--manifest", required=True)
    p.add_argument("--song", default=None)
    p.add_argument("--out-vocal", required=True)
    p.add_argument("--out-accomp", required=True)
    _add_stft_flags(p, with_width=False)
    p.set_defaults(func=cmd_ideal_mask)

    p = sub.add_parser("evaluate", help="score estimates against references")
    p.add_argument("--est-vocal", required=True)
    p.add_argument("--est-accomp", required=True)
    p.add_argument("--ref-vocal", required=True)
    p.add_argument("--ref-accomp", required=True)
    p.add_argument("--csv", default=None, help="optional per-song CSV to write")
    p.add_argument("--song-id", default="song")
    p.add_argument("--method", default="external")
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-alpha", help="evaluate across a confidence grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat for dnn + nmf")
    p.add_argument("--alphas", default="0.1:0.9:0.1",
                   help="start:stop:step or comma list")
    p.add_argument("--csv", required=True, help="metric-vs-alpha CSV")
    p.add_argument("--fig3-csv", default=None, help="SAR-vs-SIR CSV")
    p.add_argument("--per-song-csv", default=None)
    _add_stft_flags(p)
    p.add_argument("--nmf-iterations", type=int, default=_DEFAULTS.nmf_infer_iters)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.set_defaults(func=cmd_sweep_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
