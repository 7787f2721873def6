"""Projection-based source-separation metrics against closed-form cases."""

import numpy as np
import pytest

from maskforge.audio_io import NON_VOCAL, VOCAL
from maskforge.bss_eval import (
    SOURCES,
    Decomposition,
    SeparationMetrics,
    decompose,
    evaluate_pair,
    evaluate_source,
    metrics,
)


def _orthonormal_pair(n=64):
    # two near-orthogonal unit-energy signals (orthogonal to ~1e-15; fine for
    # tolerance checks, not for exact-infinity cases)
    t = np.arange(n)
    s1 = np.cos(2.0 * np.pi * 4.0 * t / n)
    s2 = np.cos(2.0 * np.pi * 8.0 * t / n)
    s1 /= np.linalg.norm(s1)
    s2 /= np.linalg.norm(s2)
    assert abs(s1 @ s2) < 1e-14
    return s1, s2


def _basis(n=8):
    # canonical basis vectors are orthogonal exactly, so zero-energy error
    # components stay exactly zero and the dB ratios hit their infinities
    e = np.eye(n)
    return e[0], e[1], e[2]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_perfect_estimate_has_zero_errors():
    s1, s2 = _orthonormal_pair()
    d = decompose(s1, [s1, s2], 0)
    assert np.allclose(d.s_target, s1, rtol=0, atol=1e-12)
    assert np.max(np.abs(d.e_interf)) < 1e-12
    assert np.max(np.abs(d.e_artif)) < 1e-12


def test_decomposition_is_additive(rng):
    refs = [rng.standard_normal(50) for _ in range(3)]
    est = rng.standard_normal(50)
    d = decompose(est, refs, 1)
    assert np.allclose(d.estimate, est, rtol=0, atol=1e-9)


def test_components_are_orthogonal(rng):
    refs = [rng.standard_normal(80) for _ in range(2)]
    est = rng.standard_normal(80)
    d = decompose(est, refs, 0)
    # interference lies in the span, orthogonal to the target direction
    assert abs(d.e_interf @ d.s_target) < 1e-9
    # artifacts are orthogonal to every reference
    for r in refs:
        assert abs(d.e_artif @ r) < 1e-9


def test_projection_matches_lstsq(rng):
    refs = [rng.standard_normal(64) for _ in range(3)]
    est = rng.standard_normal(64)
    d = decompose(est, refs, 0)
    R = np.stack(refs, axis=1)
    coeffs, *_ = np.linalg.lstsq(R, est, rcond=None)
    assert np.allclose(d.s_target + d.e_interf, R @ coeffs, rtol=0, atol=1e-8)


def test_decompose_validation(rng):
    s = rng.standard_normal(10)
    with pytest.raises(ValueError, match="at least one reference"):
        decompose(s, [], 0)
    with pytest.raises(ValueError, match="out of range"):
        decompose(s, [s], 1)
    with pytest.raises(ValueError, match="share one length"):
        decompose(s, [rng.standard_normal(11)], 0)
    with pytest.raises(ValueError, match="all zero"):
        decompose(s, [np.zeros(10)], 0)


# ---------------------------------------------------------------------------
# metric values on closed-form fixtures
# ---------------------------------------------------------------------------

def test_small_interference_gives_exact_sir():
    e1, e2, _ = _basis()
    m = evaluate_source(e1 + 0.1 * e2, [e1, e2], 0)
    # energy ratio 1 / 0.01 = 100 -> 20 dB, artifacts exactly empty
    assert abs(m.sir_db - 20.0) < 1e-6
    assert abs(m.sdr_db - 20.0) < 1e-6
    assert m.sar_db == np.inf


def test_small_interference_on_sinusoids():
    # same fixture on realistic signals: infinities soften into huge finite
    # ratios but the 20 dB figures survive
    s1, s2 = _orthonormal_pair()
    m = evaluate_source(s1 + 0.1 * s2, [s1, s2], 0)
    assert abs(m.sir_db - 20.0) < 1e-6
    assert abs(m.sdr_db - 20.0) < 1e-6
    assert m.sar_db > 100.0


def test_tiny_opposite_interference_is_minus_40db():
    s1, s2 = _orthonormal_pair()
    m = evaluate_source(s2 + 0.01 * s1, [s1, s2], 0)
    assert abs(m.sir_db - (-40.0)) < 1e-9


def test_swapped_estimate_has_strongly_negative_sir():
    e1, e2, _ = _basis()
    m = evaluate_source(e2, [e1, e2], 0)
    # estimate contains none of the target at all
    assert m.sir_db == -np.inf
    # sinusoid version: merely astronomically negative
    s1, s2 = _orthonormal_pair()
    m2 = evaluate_source(s2, [s1, s2], 0)
    assert m2.sir_db < -100.0


def test_symmetric_mixture_sir_is_zero():
    s1, s2 = _orthonormal_pair()
    m = evaluate_source((s1 + s2) / 2.0, [s1, s2], 0)
    assert abs(m.sir_db) < 1e-9


def test_pure_artifact_estimate():
    e1, e2, e3 = _basis()
    # third orthogonal direction: everything becomes artifact
    m = evaluate_source(e3, [e1, e2], 0)
    assert m.sdr_db == -np.inf
    assert m.sir_db != m.sir_db  # 0/0 ratio reported as nan
    assert m.sar_db == -np.inf


def test_scale_invariance_power_of_two():
    s1, s2 = _orthonormal_pair()
    base = evaluate_source(s1 + 0.1 * s2, [s1, s2], 0)
    scaled = evaluate_source(2.0 * (s1 + 0.1 * s2), [s1, s2], 0)
    assert scaled.sdr_db == base.sdr_db
    assert scaled.sir_db == base.sir_db


def test_all_zero_estimate_rejected():
    s1, s2 = _orthonormal_pair()
    with pytest.raises(ValueError, match="all-zero estimate"):
        evaluate_source(np.zeros_like(s1), [s1, s2], 0)


def test_metrics_on_synthetic_decomposition():
    # handpicked energies: target 4, interference 1, artifacts 0.25 along
    # mutually orthogonal axes
    s_t = np.array([2.0, 0.0, 0.0])
    e_i = np.array([0.0, 1.0, 0.0])
    e_a = np.array([0.0, 0.0, 0.5])
    m = metrics(Decomposition(s_t, e_i, e_a))
    assert abs(m.sir_db - 10.0 * np.log10(4.0 / 1.0)) < 1e-12
    assert abs(m.sdr_db - 10.0 * np.log10(4.0 / 1.25)) < 1e-12
    assert abs(m.sar_db - 10.0 * np.log10(5.0 / 0.25)) < 1e-12


# ---------------------------------------------------------------------------
# pair evaluation
# ---------------------------------------------------------------------------

def test_evaluate_pair_orders_sources(rng):
    s1, s2 = _orthonormal_pair()
    pm = evaluate_pair(s1 + 0.1 * s2, s2 + 0.1 * s1, s1, s2)
    assert tuple(pm) == SOURCES == (VOCAL, NON_VOCAL, "mean")
    assert abs(pm[VOCAL].sir_db - 20.0) < 1e-6
    assert abs(pm[NON_VOCAL].sir_db - 20.0) < 1e-6
    assert abs(pm["mean"].sir_db - 20.0) < 1e-6


def test_evaluate_pair_mean_is_arithmetic():
    s1, s2 = _orthonormal_pair()
    pm = evaluate_pair(s1 + 0.1 * s2, s2 + 0.25 * s1, s1, s2)
    expect = (pm[VOCAL].sir_db + pm[NON_VOCAL].sir_db) / 2.0
    assert pm["mean"].sir_db == expect


def test_evaluate_pair_infinite_metric_poisons_mean():
    e1, e2, _ = _basis()
    pm = evaluate_pair(e1 + 0.1 * e2, e2, e1, e2)
    assert pm[NON_VOCAL].sar_db == np.inf
    assert pm["mean"].sar_db == np.inf


def test_evaluate_pair_trims_and_pads_estimates():
    s1, s2 = _orthonormal_pair()
    longer = np.concatenate([s1 + 0.1 * s2, np.zeros(5)])
    shorter = (s2 + 0.1 * s1)[:-5]
    pm = evaluate_pair(longer, shorter, s1, s2)
    assert abs(pm[VOCAL].sir_db - 20.0) < 1e-6
    assert np.isfinite(pm[NON_VOCAL].sir_db)


def test_metrics_floor_for_silent_estimate(rng):
    refs = [rng.standard_normal(32), rng.standard_normal(32)]
    pm = evaluate_pair(np.zeros(32), refs[1] + 0.1 * refs[0], *refs)
    assert pm[VOCAL].as_tuple() == (-np.inf, -np.inf, -np.inf)
    assert np.isfinite(pm[NON_VOCAL].sdr_db)
    pm = evaluate_pair(refs[0] + 0.1 * refs[1], np.zeros(32), *refs)
    assert pm[NON_VOCAL].as_tuple() == (-np.inf, -np.inf, -np.inf)
    assert np.isfinite(pm[VOCAL].sdr_db)
    assert pm["mean"].as_tuple() == (-np.inf, -np.inf, -np.inf)


def test_evaluate_pair_reference_length_mismatch(rng):
    with pytest.raises(ValueError, match="reference lengths differ"):
        evaluate_pair(np.ones(8), np.ones(8), np.ones(8), np.ones(9))


def test_metrics_tuple_round_trip():
    m = SeparationMetrics(1.0, 2.0, 3.0)
    assert m.as_tuple() == (1.0, 2.0, 3.0)
