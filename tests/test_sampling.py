import numpy as np
import pytest

from dbnkit import HmmModel, SizeCapError, random_chmm, random_hmm, sample, validate_chmm, validate_hmm


def test_same_seed_reproduces_hmm_sample(worked_model):
    s1, y1 = sample(worked_model, 200, seed=9)
    s2, y2 = sample(worked_model, 200, seed=9)
    assert np.array_equal(s1, s2)
    assert np.array_equal(y1, y2)
    s3, y3 = sample(worked_model, 200, seed=10)
    assert not (np.array_equal(s1, s3) and np.array_equal(y1, y3))


def test_deterministic_model_ignores_seed():
    m = HmmModel(pi=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], emit=np.eye(2))
    for seed in (0, 1, 12345):
        states, symbols = sample(m, 6, seed)
        assert states.tolist() == [0, 1, 0, 1, 0, 1]
        assert np.array_equal(states, symbols)


def test_transition_frequencies_converge():
    m = HmmModel(pi=[0.5, 0.5], trans=[[0.8, 0.2], [0.35, 0.65]], emit=np.eye(2))
    states, _ = sample(m, 100_000, seed=77)
    counts = np.zeros((2, 2))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    freqs = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(freqs - m.trans).max() < 0.01


def test_emission_frequencies_converge():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.15, 0.25, 0.6]])
    _, symbols = sample(m, 100_000, seed=5)
    freqs = np.bincount(symbols, minlength=3) / symbols.size
    assert np.abs(freqs - m.emit[0]).max() < 0.01


def test_chmm_sampling_shape_and_determinism():
    rng = np.random.default_rng(2)
    m = random_chmm([2, 3], [2, 2], rng)
    s1, y1 = sample(m, 50, seed=4)
    s2, y2 = sample(m, 50, seed=4)
    assert s1.shape == (50, 2) and y1.shape == (50, 2)
    assert np.array_equal(s1, s2) and np.array_equal(y1, y2)
    assert s1[:, 0].max() < 2 and s1[:, 1].max() < 3


def test_sample_rejects_bad_length(worked_model):
    with pytest.raises(ValueError):
        sample(worked_model, 0, seed=1)


def test_random_models_are_valid():
    rng = np.random.default_rng(6)
    for _ in range(10):
        validate_hmm(random_hmm(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng))
        L = int(rng.integers(1, 4))
        validate_chmm(
            random_chmm(
                [int(rng.integers(1, 4)) for _ in range(L)],
                [int(rng.integers(1, 4)) for _ in range(L)],
                rng,
            )
        )


def test_chmm_sample_refuses_an_oversized_chain_table_before_building_it(monkeypatch):
    # chain 0's parents are all 6 chains of 31 states, so its transition table
    # has 31**7 entries (220 GB)
    parents = [tuple(range(6))] + [(l,) for l in range(1, 6)]
    m = random_chmm([31] * 6, [2] * 6, np.random.default_rng(3), parents=parents)

    def never(*args):
        raise AssertionError("chain table built for an oversized model")

    # The table is built over an np.ix_ grid, so nothing of it exists before that call.
    monkeypatch.setattr(np, "ix_", never)
    with pytest.raises(SizeCapError, match="chain 0 transition table"):
        sample(m, 5, seed=0)
