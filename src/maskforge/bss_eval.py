"""SDR / SIR / SAR by orthogonal projection against the true sources.

An estimate is split into a component parallel to its target reference, a
component inside the span of all references but orthogonal to the target
(interference), and a remainder outside the span (artifacts). Ratios of the
three energies give the metrics. This is the projection-only variant: no
allowed distortion filter, so absolute numbers run lower than toolbox
implementations that permit one, while comparisons between methods stand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import NON_VOCAL, VOCAL

_PINV_RCOND = 1e-10

# evaluate_pair's keys, in the order of the CSVs' source column
SOURCES = (VOCAL, NON_VOCAL, "mean")


@dataclass
class Decomposition:
    s_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray

    @property
    def estimate(self) -> np.ndarray:
        return self.s_target + self.e_interf + self.e_artif


@dataclass
class SeparationMetrics:
    sdr_db: float
    sir_db: float
    sar_db: float

    def as_tuple(self) -> tuple[float, float, float]:
        return self.sdr_db, self.sir_db, self.sar_db


def decompose(estimate: np.ndarray, references: list[np.ndarray],
              target_index: int) -> Decomposition:
    """Project the estimate onto the target and onto the references' span."""
    est = np.asarray(estimate, dtype=np.float64)
    refs = [np.asarray(r, dtype=np.float64) for r in references]
    if not refs:
        raise ValueError("need at least one reference")
    if not 0 <= target_index < len(refs):
        raise ValueError(f"target index {target_index} out of range")
    n = est.shape[0]
    if any(r.shape != (n,) for r in refs):
        raise ValueError("estimate and references must share one length")
    target = refs[target_index]
    target_energy = float(target @ target)
    if target_energy == 0.0:
        raise ValueError("target reference is all zero")

    s_target = (est @ target) / target_energy * target

    R = np.stack(refs, axis=1)                    # (n, k)
    gram = R.T @ R
    coeffs = np.linalg.pinv(gram, rcond=_PINV_RCOND) @ (R.T @ est)
    p_span = R @ coeffs
    e_interf = p_span - s_target
    e_artif = est - p_span
    return Decomposition(s_target, e_interf, e_artif)


def _ratio_db(num: float, den: float) -> float:
    if den == 0.0:
        return float("nan") if num == 0.0 else float("inf")
    if num == 0.0:
        return float("-inf")
    return 10.0 * np.log10(num / den)


def metrics(d: Decomposition) -> SeparationMetrics:
    """Energy ratios of the decomposition, in decibels."""
    p_target = float(d.s_target @ d.s_target)
    p_interf = float(d.e_interf @ d.e_interf)
    p_artif = float(d.e_artif @ d.e_artif)
    if p_target == 0.0 and p_interf == 0.0 and p_artif == 0.0:
        raise ValueError("all-zero estimate has no defined metrics")
    distortion = d.e_interf + d.e_artif
    spatial = d.s_target + d.e_interf
    sdr = _ratio_db(p_target, float(distortion @ distortion))
    sir = _ratio_db(p_target, p_interf)
    sar = _ratio_db(float(spatial @ spatial), p_artif)
    return SeparationMetrics(sdr, sir, sar)


def evaluate_source(estimate: np.ndarray, references: list[np.ndarray],
                    target_index: int) -> SeparationMetrics:
    return metrics(decompose(estimate, references, target_index))


def _fit_length(signal: np.ndarray, n: int) -> np.ndarray:
    return np.pad(signal[:n], (0, max(n - signal.shape[0], 0)))


def evaluate_pair(est_vocal: np.ndarray, est_nonvocal: np.ndarray,
                  ref_vocal: np.ndarray, ref_nonvocal: np.ndarray) -> dict[str, SeparationMetrics]:
    """Both sources scored against both references, and their mean, keyed by SOURCES.

    A silent estimate (possible at high alpha: no element claimed) has no
    defined decomposition and scores -inf on every axis. The mean averages
    decibel values, so a single infinite metric makes that mean infinite too.
    """
    ref_v = np.asarray(ref_vocal, dtype=np.float64)
    ref_nv = np.asarray(ref_nonvocal, dtype=np.float64)
    if ref_v.shape != ref_nv.shape:
        raise ValueError("reference lengths differ")
    n = ref_v.shape[0]
    refs = [ref_v, ref_nv]
    scored = []
    for i, est in enumerate((est_vocal, est_nonvocal)):
        est = _fit_length(np.asarray(est, dtype=np.float64), n)
        scored.append(evaluate_source(est, refs, i) if np.any(est)
                      else SeparationMetrics(-np.inf, -np.inf, -np.inf))
    mean = SeparationMetrics(*((a + b) / 2.0 for a, b in zip(*(m.as_tuple() for m in scored))))
    return dict(zip(SOURCES, (*scored, mean)))
