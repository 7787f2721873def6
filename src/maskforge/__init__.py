"""Monaural vocal/accompaniment separation with learned binary masks.

A sigmoid feed-forward network (or an NMF dictionary baseline) predicts,
per time-frequency element, how likely the vocal dominates a mixture
spectrogram window. Sliding-window predictions are averaged, thresholded at
a confidence alpha into independent vocal / non-vocal binary masks, applied
to the complex mixture spectrogram, and inverted back to audio. Separation
quality is scored with SDR/SIR/SAR against the true stems.
"""

from .audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    StemSet,
    load_manifest,
    peak_normalize,
    pool_and_mix,
    read_wav,
    write_wav,
)
from .bss_eval import SeparationMetrics, evaluate_pair
from .masking import (
    BinaryMask,
    ideal_binary_mask,
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from .mlp import MlpModel, TrainConfig, init_model, save_model, train_sgd
from .model_file import FrontEnd
from .nmf import NmfModel, nmf_factorize, save_nmf
from .patching import PatchConfig, PatchSet, extract_patches, repack_mean
from .pipeline import (
    ExperimentConfig,
    build_training_set,
    ideal_mask_separate,
    load_any_model,
    separate_song,
    sweep_alpha,
    train_dnn,
    train_nmf,
)
from .stft import StftConfig, istft, stft
from .synth import SynthConfig, disjoint_support_song, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "StemSet", "VOCAL", "NON_VOCAL",
    "read_wav", "write_wav", "peak_normalize", "pool_and_mix", "load_manifest",
    "StftConfig", "stft", "istft",
    "PatchConfig", "PatchSet", "extract_patches", "repack_mean",
    "BinaryMask", "ideal_binary_mask",
    "vocal_mask_from_confidence", "nonvocal_mask_from_confidence",
    "FrontEnd", "MlpModel", "TrainConfig", "init_model", "train_sgd",
    "save_model", "NmfModel", "nmf_factorize", "save_nmf",
    "SeparationMetrics", "evaluate_pair",
    "ExperimentConfig", "build_training_set", "train_dnn", "train_nmf",
    "load_any_model", "separate_song", "ideal_mask_separate", "sweep_alpha",
    "SynthConfig", "generate_corpus", "disjoint_support_song",
    "__version__",
]
