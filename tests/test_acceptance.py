"""Acceptance gate: every release criterion at its stated tolerance.

Each test wraps its body in `criterion(...)`, which reports one PASS/FAIL
line per criterion through the terminal-summary hook in conftest.py. The
desk-scale end-to-end run (criterion 8) is executed once and reused by the
determinism check (criterion 9), which repeats it from scratch in a second
directory and byte-compares the CSVs.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

from conftest import record_criterion
from maskforge.audio_io import VOCAL, AudioBuffer, load_manifest, pool_and_mix
from maskforge.bss_eval import decompose, evaluate_source
from maskforge.masking import (
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from maskforge.mlp import init_model, loss_and_gradient
from maskforge.nmf import infer_activations, nmf_factorize
from maskforge.patching import MeanPrediction, PatchSet, patch_offsets, repack_mean
from maskforge.pipeline import (
    METHOD_DNN,
    METHOD_MIXTURE,
    METHOD_NMF,
    ExperimentConfig,
    ideal_mask_separate,
    run_sweep_to_csv,
    train_dnn,
    train_nmf,
)
from maskforge.stft import StftConfig, istft, stft
from maskforge.synth import SynthConfig, disjoint_support_song, generate_corpus


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        record_criterion(number, label, False)
        raise
    record_criterion(number, label, True)


# ---------------------------------------------------------------------------
# 1. STFT round trip
# ---------------------------------------------------------------------------

def test_criterion_1_stft_round_trip():
    with criterion(1, "stft round trip"):
        rng = np.random.default_rng(101)
        cfg = StftConfig(frame_len=2048, hop=512)
        sr = 44100
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.uniform(0.1, 2.0) * sr)
            x = rng.uniform(-1.0, 1.0, size=n)
            y = istft(stft(AudioBuffer(x, sr), cfg)).samples
            assert len(y) == n
            inner = slice(cfg.frame_len, n - cfg.frame_len)
            err = y[inner] - x[inner]
            rel_rms = np.sqrt(np.mean(err ** 2)) / np.sqrt(np.mean(x[inner] ** 2))
            assert rel_rms < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round trips took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. mask boundary semantics and alpha monotonicity
# ---------------------------------------------------------------------------

def _mean_grid(values):
    v = np.asarray(values, dtype=np.float64)
    return MeanPrediction(values=v, counts=np.ones_like(v))


def test_criterion_2_mask_boundaries():
    with criterion(2, "mask boundary semantics"):
        delta = 1e-9
        rng = np.random.default_rng(202)
        alphas = [0.1, 0.3, 0.5, 0.7, 0.9] + list(rng.uniform(0.05, 0.95, size=20))
        for alpha in alphas:
            one_minus = 1.0 - alpha
            cases = [alpha - delta, alpha, alpha + delta,
                     one_minus - delta, one_minus, one_minus + delta]
            pred = _mean_grid([cases])
            got_v = vocal_mask_from_confidence(pred, alpha).values[0]
            got_nv = nonvocal_mask_from_confidence(pred, alpha).values[0]
            for j, c in enumerate(cases):
                # printed branch conditions: strictly above alpha for the
                # vocal mask, strictly below 1 - alpha for the other
                assert got_v[j] == (1.0 if c > alpha else 0.0), (alpha, c)
                assert got_nv[j] == (1.0 if c < one_minus else 0.0), (alpha, c)

        # monotonicity: raising alpha can only shrink both masks
        for _ in range(1000):
            grid = rng.uniform(0.0, 1.0, size=(4, 5))
            pred = _mean_grid(grid)
            a1, a2 = np.sort(rng.uniform(0.01, 0.99, size=2))
            if a1 == a2:
                continue
            v1 = vocal_mask_from_confidence(pred, a1).values
            v2 = vocal_mask_from_confidence(pred, a2).values
            nv1 = nonvocal_mask_from_confidence(pred, a1).values
            nv2 = nonvocal_mask_from_confidence(pred, a2).values
            assert np.all(v2 <= v1)
            assert np.all(nv2 <= nv1)


# ---------------------------------------------------------------------------
# 3. sliding-window averaging vs brute force
# ---------------------------------------------------------------------------

def test_criterion_3_repack_exact():
    with criterion(3, "sliding-window averaging"):
        rng = np.random.default_rng(303)
        F = 3
        for T in range(1, 9):
            for N in range(1, 51):
                for stride in {1, T}:
                    offsets = patch_offsets(N, T, stride)
                    patches = rng.uniform(0.0, 1.0, size=(len(offsets), F, T))
                    got = repack_mean(PatchSet(patches), stride, N)
                    # brute force, accumulating in the same offset order
                    padded = int(offsets[-1]) + T
                    acc = np.zeros((F, padded))
                    cnt = np.zeros(padded)
                    for p, o in enumerate(offsets):
                        acc[:, o:o + T] += patches[p]
                        cnt[o:o + T] += 1.0
                    expect = acc[:, :N] / cnt[None, :N]
                    assert np.array_equal(got.values, expect), (N, T, stride)
                    assert np.array_equal(got.counts[0], cnt[:N]), (N, T, stride)


# ---------------------------------------------------------------------------
# 4. MLP gradient check
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_check():
    with criterion(4, "mlp gradient check"):
        rng = np.random.default_rng(404)
        eps = 1e-5
        start = time.perf_counter()
        for trial in range(20):
            model = init_model([6, 5, 6], seed=trial)
            x = rng.standard_normal(6)
            y = (rng.uniform(size=6) > 0.5).astype(np.float64)
            _, grads = loss_and_gradient(model, x, y)

            def loss_at(m):
                v, _ = loss_and_gradient(m, x, y)
                return v

            for l in range(model.n_layers):
                for idx in np.ndindex(model.weights[l].shape):
                    probe = model.copy()
                    probe.weights[l][idx] += eps
                    up = loss_at(probe)
                    probe.weights[l][idx] -= 2.0 * eps
                    down = loss_at(probe)
                    fd = (up - down) / (2.0 * eps)
                    an = grads[l][0][idx]
                    rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
                    assert rel < 1e-4, (trial, l, idx, rel)
                if l < model.n_layers - 1:  # output bias frozen: no gradient
                    for j in range(model.biases[l].size):
                        probe = model.copy()
                        probe.biases[l][j] += eps
                        up = loss_at(probe)
                        probe.biases[l][j] -= 2.0 * eps
                        down = loss_at(probe)
                        fd = (up - down) / (2.0 * eps)
                        an = grads[l][1][j]
                        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
                        assert rel < 1e-4, (trial, l, j, rel)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. NMF descent, planted recovery, frozen-dictionary inference
# ---------------------------------------------------------------------------

def test_criterion_5_nmf():
    with criterion(5, "nmf descent and inference"):
        rng = np.random.default_rng(505)
        for trial in range(50):
            rows = int(rng.integers(5, 13))
            cols = int(rng.integers(4, 11))
            r = int(rng.integers(1, min(rows, cols)))
            V = rng.uniform(0.01, 2.0, size=(rows, cols))
            fac = nmf_factorize(V, r, iterations=80, seed=trial)
            diffs = np.diff(fac.trace)
            assert np.all(diffs <= 1e-9), (trial, diffs.max())

        w = rng.uniform(0.5, 2.0, size=(8, 1))
        h = rng.uniform(0.5, 2.0, size=(1, 10))
        fac = nmf_factorize(w @ h, r=1, iterations=500, seed=0)
        assert fac.trace[-1] < 1e-8, fac.trace[-1]

        V = rng.uniform(0.05, 1.0, size=(9, 7))
        W = rng.uniform(0.05, 1.0, size=(9, 3))
        W_before = W.copy()
        infer_activations(V, W, iterations=100, seed=1)
        assert np.array_equal(W, W_before)


# ---------------------------------------------------------------------------
# 6. BSS-EVAL oracle
# ---------------------------------------------------------------------------

def test_criterion_6_bss_eval():
    with criterion(6, "bss-eval oracle"):
        rng = np.random.default_rng(606)
        n = 64

        # 0.1-interference construction on random orthonormal references
        for trial in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            u1, u2 = q[:, 0], q[:, 1]
            m = evaluate_source(u1 + 0.1 * u2, [u1, u2], 0)
            assert abs(m.sir_db - 20.0) < 1e-6, m.sir_db

        # additivity and orthogonality of the decomposition; inner products
        # are normalized by the problem scale, not the component norms, so
        # a component that is pure rounding residue cannot dominate
        for trial in range(20):
            k = int(rng.integers(1, 4))
            refs = [rng.standard_normal(n) for _ in range(k)]
            est = rng.standard_normal(n)
            d = decompose(est, refs, 0)
            est_norm = np.linalg.norm(est)
            assert np.linalg.norm(d.estimate - est) / est_norm < 1e-9
            assert abs(d.e_interf @ d.s_target) / (est_norm ** 2) < 1e-9
            for r in refs:
                rel = abs(d.e_artif @ r) / (est_norm * np.linalg.norm(r))
                assert rel < 1e-9

        # projection agrees with a least-squares brute force
        for trial in range(20):
            k = int(rng.integers(1, 4))
            refs = [rng.standard_normal(n) for _ in range(k)]
            est = rng.standard_normal(n)
            d = decompose(est, refs, 0)
            R = np.stack(refs, axis=1)
            coeffs, *_ = np.linalg.lstsq(R, est, rcond=None)
            p_span = R @ coeffs
            assert np.max(np.abs((d.s_target + d.e_interf) - p_span)) < 1e-8


# ---------------------------------------------------------------------------
# 7. ideal-mask benchmark on disjoint spectral support
# ---------------------------------------------------------------------------

def test_criterion_7_ideal_mask_benchmark():
    with criterion(7, "ideal-mask benchmark"):
        stems = disjoint_support_song(frame_len=512)
        vocal_mix, nonvocal_mix, _ = pool_and_mix(stems)
        est_v, est_nv = ideal_mask_separate(stems, StftConfig(512, 128))
        refs = [vocal_mix.samples, nonvocal_mix.samples]
        m_v = evaluate_source(est_v.samples, refs, 0)
        m_nv = evaluate_source(est_nv.samples, refs, 1)
        assert m_v.sir_db > 40.0, m_v.sir_db
        assert m_nv.sir_db > 40.0, m_nv.sir_db


# ---------------------------------------------------------------------------
# 8 + 9. desk-scale end-to-end run, repeated for determinism
# ---------------------------------------------------------------------------

_RUNS: dict[str, dict] = {}


def _desk_scale_run(root) -> dict:
    """Corpus -> both models -> alpha sweep; returns CSV bytes and timings."""
    cfg = ExperimentConfig()
    train_manifest, test_manifest = generate_corpus(
        root, n_train=20, n_test=5, cfg=SynthConfig())
    train_songs = load_manifest(train_manifest)
    test_songs = load_manifest(test_manifest)

    t0 = time.perf_counter()
    dnn, _ = train_dnn(train_songs, cfg)
    dnn_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    nmf = train_nmf(train_songs, cfg)
    nmf_seconds = time.perf_counter() - t0

    fig2, fig3, per_song = (root / "fig2.csv", root / "fig3.csv",
                            root / "per_song.csv")
    sweep = run_sweep_to_csv(test_songs, {METHOD_DNN: dnn, METHOD_NMF: nmf},
                             cfg, fig2, fig3, per_song)
    return {
        "cfg": cfg,
        "sweep": sweep,
        "dnn_seconds": dnn_seconds,
        "nmf_seconds": nmf_seconds,
        "csv_bytes": {p.name: p.read_bytes() for p in (fig2, fig3, per_song)},
    }


def _get_run(name: str, tmp_path_factory) -> dict:
    if name not in _RUNS:
        _RUNS[name] = _desk_scale_run(tmp_path_factory.mktemp(f"accept_{name}"))
    return _RUNS[name]


def _mean_vocal(sweep, method: str, alpha: float, field: str) -> float:
    return float(np.mean([getattr(scores[method][alpha][VOCAL], field)
                          for _, scores in sweep.songs]))


def test_criterion_8_end_to_end(tmp_path_factory):
    with criterion(8, "end-to-end desk-scale run"):
        run = _get_run("a", tmp_path_factory)
        assert run["dnn_seconds"] < 300.0, run["dnn_seconds"]
        assert run["nmf_seconds"] < 300.0, run["nmf_seconds"]

        sweep = run["sweep"]
        dnn_sir = _mean_vocal(sweep, METHOD_DNN, 0.5, "sir_db")
        baseline_sir = _mean_vocal(sweep, METHOD_MIXTURE, 0.5, "sir_db")
        assert dnn_sir >= baseline_sir + 6.0, (dnn_sir, baseline_sir)

        alphas = list(sweep.alphas)
        sirs = [_mean_vocal(sweep, METHOD_DNN, a, "sir_db") for a in alphas]
        sars = [_mean_vocal(sweep, METHOD_DNN, a, "sar_db") for a in alphas]
        rho_sir, _ = stats.spearmanr(alphas, sirs)
        rho_sar, _ = stats.spearmanr(alphas, sars)
        assert rho_sir >= 0.9, (rho_sir, sirs)
        assert rho_sar <= -0.9, (rho_sar, sars)


def test_criterion_9_determinism(tmp_path_factory):
    with criterion(9, "determinism"):
        run_a = _get_run("a", tmp_path_factory)
        run_b = _get_run("b", tmp_path_factory)
        for name in ("fig2.csv", "fig3.csv", "per_song.csv"):
            assert run_b["csv_bytes"][name] == run_a["csv_bytes"][name], name
