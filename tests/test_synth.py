"""Synthetic corpus generator: determinism, file layout, spectral structure."""

import numpy as np
import pytest

from maskforge.audio_io import NON_VOCAL, VOCAL, load_manifest, load_song, read_wav
from maskforge.stft import StftConfig, stft
from maskforge.synth import (
    SynthConfig,
    disjoint_support_song,
    generate_corpus,
    generate_song,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(sample_rate=100)
    with pytest.raises(ValueError):
        SynthConfig(duration=0.0)
    # 0 and 1 samples at 22050 Hz, and no sample count at all
    for duration in (0.00001, 0.00005, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="at least 2 samples"):
            SynthConfig(duration=duration)
    assert len(generate_song(SynthConfig(duration=0.0001), 0).stems[0][0]) == 2


def test_song_shape_and_labels():
    cfg = SynthConfig(duration=0.5, seed=5)
    stems = generate_song(cfg, 3)
    assert stems.song_id == "synth_003"
    assert [label for _, label in stems.stems] == [VOCAL, NON_VOCAL]
    n = int(round(0.5 * 22050))
    for buf, _ in stems.stems:
        assert len(buf) == n
        assert buf.sample_rate == 22050
        peak = np.max(np.abs(buf.samples))
        assert 0.85 <= peak <= 0.9 + 1e-12


def test_song_deterministic_per_index():
    cfg = SynthConfig(duration=0.4, seed=9)
    a = generate_song(cfg, 0)
    b = generate_song(cfg, 0)
    for (b1, _), (b2, _) in zip(a.stems, b.stems):
        assert np.array_equal(b1.samples, b2.samples)
    c = generate_song(cfg, 1)
    assert not np.array_equal(a.stems[0][0].samples, c.stems[0][0].samples)


def test_seed_changes_song():
    a = generate_song(SynthConfig(duration=0.4, seed=1), 0)
    b = generate_song(SynthConfig(duration=0.4, seed=2), 0)
    assert not np.array_equal(a.stems[0][0].samples, b.stems[0][0].samples)


def test_corpus_layout(tmp_path):
    cfg = SynthConfig(duration=0.3, seed=11)
    train, test = generate_corpus(tmp_path, 2, 1, cfg)
    assert train == tmp_path / "train.json"
    assert test == tmp_path / "test.json"
    train_songs = load_manifest(train)
    test_songs = load_manifest(test)
    assert [s.song_id for s in train_songs] == ["synth_000", "synth_001"]
    # test indices continue after the training range
    assert [s.song_id for s in test_songs] == ["synth_002"]
    for song in train_songs + test_songs:
        stems = load_song(song)
        assert [label for _, label in stems.stems] == [VOCAL, NON_VOCAL]
        # float32 stems round-trip the synthesizer output exactly
        regenerated = generate_song(cfg, int(song.song_id.split("_")[1]))
        for (disk, _), (mem, _) in zip(stems.stems, regenerated.stems):
            assert np.array_equal(
                disk.samples, mem.samples.astype(np.float32).astype(np.float64)
            )


def test_corpus_regeneration_is_byte_stable(tmp_path):
    cfg = SynthConfig(duration=0.3, seed=12)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    generate_corpus(dir_a, 1, 1, cfg)
    generate_corpus(dir_b, 1, 1, cfg)
    for rel in ("synth_000/vocal.wav", "synth_000/accomp.wav",
                "synth_001/vocal.wav", "synth_001/accomp.wav"):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()
    assert (dir_a / "train.json").read_text() == (dir_b / "train.json").read_text()


def test_disjoint_song_spectral_separation():
    frame_len = 512
    stems = disjoint_support_song(frame_len=frame_len)
    assert stems.song_id == "disjoint"
    cfg = StftConfig(frame_len=frame_len, hop=frame_len // 4)
    vocal_bins = {12, 18, 24, 30, 36}
    accomp_bins = {60, 70, 80, 90, 100}

    def energy_profile(buf):
        spec = stft(buf, cfg)
        interior = spec.bins[:, 4:-4]
        return np.sum(np.abs(interior) ** 2, axis=1)

    e_v = energy_profile(stems.stems[0][0])
    e_nv = energy_profile(stems.stems[1][0])
    # each source keeps nearly all energy near its own bins (slow amplitude
    # modulation smears support into the immediate neighbours)
    def near(bins):
        mask = np.zeros(cfg.n_bins, dtype=bool)
        for k in bins:
            mask[k - 2:k + 3] = True
        return mask

    assert e_v[near(vocal_bins)].sum() / e_v.sum() > 0.999
    assert e_nv[near(accomp_bins)].sum() / e_nv.sum() > 0.999
    # supports never touch
    assert not (near(vocal_bins) & near(accomp_bins)).any()
