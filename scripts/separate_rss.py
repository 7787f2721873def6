"""Peak resident memory of `maskforge separate`, each run in a fresh process.

For each input length, writes a noise mixture, then runs one `separate` per
model in its own child process and prints the child's peak RSS (ru_maxrss)
and wall time. The models are an untrained [2570, 128, 2570] network and
random rank-40 dictionaries, both for 22050 Hz audio, the default 512/128
STFT and 10-frame windows, the NMF inferred at 25 iterations.

    PYTHONPATH=src python3 scripts/separate_rss.py 10 60 240

The maskforge tree measured is the one on PYTHONPATH, for the children too.
"""

import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from maskforge import (AudioBuffer, FrontEnd, NmfModel, init_model, save_model, save_nmf,
                       write_wav)

SAMPLE_RATE = 22050
FRONT_END = FrontEnd(SAMPLE_RATE, frame_len=512, hop=128, width=10)


def child_peak_mb(argv: list[str]) -> tuple[float, float]:
    """Run argv in a child and return its (peak RSS in MB, wall seconds)."""
    code = ("import resource, subprocess, sys, time; t = time.perf_counter(); "
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "
            "time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                         capture_output=True, text=True).stdout.split()
    return float(out[0]), float(out[1])


def main(lengths: list[float]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        d = FRONT_END.window_size
        save_model(init_model([d, 128, d], seed=0, front_end=FRONT_END), root / "dnn.mfg")
        rng = np.random.default_rng(0)
        save_nmf(NmfModel(rng.uniform(0.1, 1, (d, 40)), rng.uniform(0.1, 1, (d, 40)),
                          FRONT_END), root / "nmf.mfg")
        for seconds in lengths:
            mix = root / "mix.wav"
            samples = rng.uniform(-0.8, 0.8, int(seconds * SAMPLE_RATE))
            write_wav(mix, AudioBuffer(samples, SAMPLE_RATE))
            for kind in ("dnn", "nmf"):
                peak, wall = child_peak_mb([
                    sys.executable, "-m", "maskforge.cli", "separate",
                    "--model", str(root / f"{kind}.mfg"), "--alpha", "0.5",
                    "--input", str(mix), "--out-vocal", str(root / "v.wav"),
                    "--out-accomp", str(root / "a.wav"), "--nmf-iterations", "25"])
                print(f"{kind} {seconds:g} s: peak RSS {peak:.1f} MB, {wall:.2f} s", flush=True)


if __name__ == "__main__":
    main([float(a) for a in sys.argv[1:]] or [10.0, 60.0, 240.0])
