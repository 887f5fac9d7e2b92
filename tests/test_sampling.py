import tracemalloc

import numpy as np
import pytest

from dbnkit import (
    HmmModel,
    SizeCapError,
    Tbn2Model,
    TbnVariable,
    random_chmm,
    random_hmm,
    sample,
    unroll_tbn,
    validate_chmm,
    validate_hmm,
)
from dbnkit.sampling import _chains


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
    for length in ("3", 2.5):
        with pytest.raises(ValueError, match=f"length must be an integer, got {length!r}"):
            sample(worked_model, length, seed=0)


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


def test_chmm_construction_refuses_an_oversized_chain_table_before_building_it(monkeypatch):
    # chain 0's parents are all 6 chains of 31 states, so its transition table
    # has 31**7 entries (220 GB)
    parents = [tuple(range(6))] + [(l,) for l in range(1, 6)]

    def never(*args):
        raise AssertionError("chain table built for an oversized model")

    # The table is built over an np.ix_ grid, so nothing of it exists before that call.
    monkeypatch.setattr(np, "ix_", never)
    with pytest.raises(SizeCapError, match="chain 0 transition table"):
        random_chmm([31] * 6, [2] * 6, np.random.default_rng(3), parents=parents)


def test_chmm_construction_refuses_chain_tables_that_fit_only_one_by_one(monkeypatch):
    # two chains of 4 states, each with both chains as parents: two 4**3-entry tables of 512 bytes
    parents = [(0, 1), (0, 1)]
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 1024)
    random_chmm([4, 4], [2, 2], np.random.default_rng(5), parents=parents)

    def never(*args):
        raise AssertionError("chain table built for an oversized model")

    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 1023)
    monkeypatch.setattr(np, "ix_", never)
    message = r"^chain transition table total \(128\) needs 1024 bytes, over the budget of 1023$"
    with pytest.raises(SizeCapError, match=message):
        random_chmm([4, 4], [2, 2], np.random.default_rng(5), parents=parents)


def test_sample_refuses_a_path_over_the_byte_budget(monkeypatch, worked_model):
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 800)
    chmm = random_chmm([2, 2], [2, 2], np.random.default_rng(4))
    assert sample(worked_model, 100, seed=0)[0].shape == (100,)
    assert sample(chmm, 50, seed=0)[0].shape == (50, 2)
    with pytest.raises(SizeCapError, match=r"sampled path \(101\) needs 808 bytes, over the budget of 800"):
        sample(worked_model, 101, seed=0)
    with pytest.raises(SizeCapError, match=r"sampled path \(51 x 2\) needs 816 bytes"):
        sample(chmm, 51, seed=0)


def _reference_hmm_sample(model, length, seed):
    """The HMM-only sampler that ``sample`` replaced: one chain, drawn through a clamped ``searchsorted``."""

    def draw(cumulative):
        i = np.searchsorted(cumulative, rng.random(), side="right")
        return min(int(i), cumulative.shape[0] - 1)

    rng = np.random.default_rng(seed)
    pi_cum = np.cumsum(model.pi)
    trans_cum = np.cumsum(model.trans, axis=1)
    emit_cum = np.cumsum(model.emit, axis=1)
    states = np.empty(length, dtype=np.int64)
    symbols = np.empty(length, dtype=np.int64)
    x = draw(pi_cum)
    for t in range(length):
        if t > 0:
            x = draw(trans_cum[x])
        states[t] = x
        symbols[t] = draw(emit_cum[x])
    return states, symbols


@pytest.mark.parametrize("num_states", [1, 2, 7, 40, 256])
def test_hmm_sample_matches_the_reference_sampler_bit_for_bit(num_states):
    rng = np.random.default_rng(num_states)
    for _ in range(4):
        model = random_hmm(num_states, int(rng.integers(1, 9)), rng)
        if num_states > 1:  # zero entries, trailing ones included, make runs of equal cumulative values
            trans = model.trans * (rng.random(model.trans.shape) < 0.5)
            trans[:, 0] += 0.125
            model = HmmModel(pi=model.pi, trans=trans / trans.sum(axis=1, keepdims=True), emit=model.emit)
        length, seed = int(rng.integers(1, 400)), int(rng.integers(2**31))
        for got, expected in zip(sample(model, length, seed), _reference_hmm_sample(model, length, seed)):
            assert got.dtype == expected.dtype == np.int64
            assert got.shape == expected.shape == (length,)
            assert np.array_equal(got, expected)


def test_tbn2_sample_is_the_sample_of_its_unrolled_chain():
    # variable 1 depends on its own past and on variable 0 in the same slice
    a = TbnVariable(card=2, init_parents=(), init_cpt=[[0.3, 0.7]], trans_parents=((0, 0),),
                    trans_cpt=[[0.9, 0.1], [0.25, 0.75]])
    b = TbnVariable(card=3, init_parents=(0,), init_cpt=[[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]],
                    trans_parents=((0, 1), (1, 0)),
                    trans_cpt=np.random.default_rng(8).dirichlet(np.ones(3), size=6))
    tbn = Tbn2Model(variables=[a, b])
    chain = unroll_tbn(tbn)
    for seed in range(5):
        got, expected = sample(tbn, 50, seed), sample(chain, 50, seed)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and x.shape == y.shape == (50,)
            assert np.array_equal(x, y)
        assert np.array_equal(got[0], got[1])  # a 2TBN observes its joint assignment


def test_a_2tbn_is_sampled_without_an_identity_emission_table():
    # eight binary variables, each following its own past: 256 joint states, the size of hmm-query's template
    variables = [
        TbnVariable(card=2, init_parents=(), init_cpt=[[0.5, 0.5]], trans_parents=((0, v),),
                    trans_cpt=[[0.9, 0.1], [0.2, 0.8]])
        for v in range(8)
    ]
    tbn = Tbn2Model(variables=variables)
    chain = unroll_tbn(tbn)

    def held_bytes(model):
        tracemalloc.start()
        try:
            view = _chains(model)  # alive while the traced bytes are read
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # the unrolled chain's view holds two 256 x 256 cumulative tables, the 2TBN's one
    assert held_bytes(tbn) <= 2 / 3 * held_bytes(chain)
    for seed in range(3):
        for x, y in zip(sample(tbn, 300, seed), sample(chain, 300, seed)):
            assert np.array_equal(x, y)


def test_sample_refuses_an_unknown_model_type():
    with pytest.raises(TypeError, match="^cannot sample from model type dict$"):
        sample({}, 5, seed=0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: random_hmm(0, 2, 0), "^num_states must be >= 1, got 0$"),
        (lambda: random_hmm(2.7, 2, 0), "^num_states must be an integer, got 2.7$"),
        (lambda: random_hmm(2, "3", 0), "^num_symbols must be an integer, got '3'$"),
        (lambda: random_chmm([2.7, 3], [2, 2], 0), r"^states_per_chain\[0\] must be an integer, got 2.7$"),
        (lambda: random_chmm([2, 3], [2, 2.2], 0), r"^symbols_per_chain\[1\] must be an integer, got 2.2$"),
        (lambda: random_chmm(["3"], [2], 0), r"^states_per_chain\[0\] must be an integer, got '3'$"),
        (lambda: random_chmm([2], [0], 0), r"^symbols_per_chain\[0\] must be >= 1, got 0$"),
        (lambda: random_chmm([2, 2], [2], 0), "^states_per_chain and symbols_per_chain must have the same length$"),
    ],
    ids=["hmm-zero", "hmm-fraction", "hmm-text", "chmm-fraction", "chmm-symbol-fraction", "chmm-text", "chmm-zero",
         "chmm-lengths"],
)
def test_random_model_counts_are_positive_integers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_random_hmm_refuses_tables_over_the_byte_budget_before_drawing(monkeypatch):
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 2**20)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(SizeCapError, match=r"^transition table \(512 x 512\) needs 2097152 bytes"):
        random_hmm(512, 2, rng)
    with pytest.raises(SizeCapError, match=r"^emission table \(2 x 65537\) needs 1048592 bytes"):
        random_hmm(2, 65537, rng)
    assert rng.bit_generator.state == state
    assert random_hmm(362, 2, rng).num_states == 362
