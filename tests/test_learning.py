from fractions import Fraction

import numpy as np
import pytest

from dbnkit import (
    EmConfig,
    HmmModel,
    ImpossibleObservationError,
    baum_welch,
    chmm_em,
    hmm_to_chmm,
    mle_complete,
    random_hmm,
    sample,
)


def test_mle_transition_counts():
    # path 0,0,1,0: from state 0 one self-loop and one 0->1; from state 1 one 1->0
    data = [(np.array([0, 0, 1, 0]), np.array([0, 1, 0, 1]))]
    m = mle_complete(data, num_states=2, num_symbols=2)
    assert np.allclose(m.trans[0], [0.5, 0.5])
    assert np.allclose(m.trans[1], [1.0, 0.0])
    assert np.allclose(m.pi, [1.0, 0.0])


def test_mle_exact_rational_frequencies():
    states = np.array([0, 1, 0, 0, 1, 1, 0, 0])
    symbols = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    m = mle_complete([(states, symbols)], num_states=2, num_symbols=2)
    trans_counts = np.zeros((2, 2), dtype=int)
    np.add.at(trans_counts, (states[:-1], states[1:]), 1)
    for i in range(2):
        total = trans_counts[i].sum()
        for j in range(2):
            assert m.trans[i, j] == float(Fraction(int(trans_counts[i, j]), int(total)))


def test_mle_unseen_state_uniform_fallback():
    data = [(np.array([0, 1, 0]), np.array([0, 0, 1]))]
    m = mle_complete(data, num_states=3, num_symbols=2)
    assert np.allclose(m.trans[2], [1 / 3] * 3)
    assert np.allclose(m.emit[2], [0.5, 0.5])
    m1 = mle_complete(data, num_states=3, num_symbols=2, pseudocount=1.0)
    assert np.allclose(m1.trans[2], [1 / 3] * 3)


def test_mle_pseudocount_smooths_counts():
    data = [(np.array([0, 0]), np.array([0, 0]))]
    m = mle_complete(data, num_states=2, num_symbols=2, pseudocount=1.0)
    # one 0->0 transition plus pseudocount 1 in each cell
    assert np.allclose(m.trans[0], [2 / 3, 1 / 3])


def test_mle_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        mle_complete([], 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        mle_complete([(np.array([0, 5]), np.array([0, 0]))], 2, 2)


def test_mle_recovers_generating_model():
    true = HmmModel(
        pi=[0.5, 0.3, 0.2],
        trans=[[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
        emit=[[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.2, 0.6]],
    )
    states, symbols = sample(true, 10_000, seed=123)
    m = mle_complete([(states, symbols)], 3, 3)
    assert np.abs(m.trans - true.trans).max() < 0.02
    assert np.abs(m.emit - true.emit).max() < 0.02


def test_baum_welch_fixed_point_unchanged():
    m = HmmModel(pi=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], emit=np.eye(2))
    _, symbols = sample(m, 9, seed=0)
    trained, trace = baum_welch(m, [symbols], EmConfig(max_iterations=1))
    assert np.abs(trained.trans - m.trans).max() < 1e-12
    assert np.abs(trained.emit - m.emit).max() < 1e-12
    assert np.abs(trained.pi - m.pi).max() < 1e-12
    assert trace.iterations_run == 1


def test_baum_welch_single_state_emission_frequencies():
    init = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.25, 0.25]])
    obs = np.array([0, 1, 1, 2, 1, 0])
    trained, _ = baum_welch(init, [obs], EmConfig(max_iterations=1))
    freqs = np.bincount(obs, minlength=3) / obs.size
    assert np.allclose(trained.emit[0], freqs, atol=1e-12)


def test_baum_welch_monotone_trace():
    rng = np.random.default_rng(52)
    true = random_hmm(2, 2, rng)
    seqs = [sample(true, 100, seed)[1] for seed in range(50, 55)]
    init = random_hmm(2, 2, rng)
    trained, trace = baum_welch(init, seqs, EmConfig(max_iterations=80))
    diffs = np.diff(trace.log_likelihoods)
    assert diffs.size == 0 or diffs.min() >= -1e-9
    assert trace.log_likelihoods[-1] >= trace.log_likelihoods[0]


def test_baum_welch_one_iteration_matches_mle_on_observed_states():
    rng = np.random.default_rng(53)
    true = random_hmm(3, 3, rng)
    paths = []
    for seed in range(6):
        states, _ = sample(true, 50, seed)
        paths.append(states)
    # encode states directly as observations through an identity emission
    init = HmmModel(pi=np.full(3, 1 / 3), trans=np.full((3, 3), 1 / 3), emit=np.eye(3))
    trained, _ = baum_welch(init, paths, EmConfig(max_iterations=1))
    ref = mle_complete([(p, p) for p in paths], 3, 3)
    assert np.abs(trained.trans - ref.trans).max() < 1e-9
    assert np.abs(trained.pi - ref.pi).max() < 1e-9


def test_baum_welch_improves_perturbed_model():
    true = HmmModel(pi=[0.7, 0.3], trans=[[0.85, 0.15], [0.2, 0.8]], emit=[[0.9, 0.1], [0.25, 0.75]])
    seqs = [sample(true, 100, seed)[1] for seed in range(10)]
    init = HmmModel(pi=[0.5, 0.5], trans=[[0.6, 0.4], [0.4, 0.6]], emit=[[0.7, 0.3], [0.4, 0.6]])
    trained, trace = baum_welch(init, seqs, EmConfig(max_iterations=100))
    assert trace.log_likelihoods[-1] >= trace.log_likelihoods[0]
    diffs = np.diff(trace.log_likelihoods)
    assert diffs.size == 0 or diffs.min() >= -1e-9


def test_baum_welch_error_names_sequence():
    init = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0, 0.0]])
    with pytest.raises(ImpossibleObservationError, match="sequence 1"):
        baum_welch(init, [np.array([0, 0]), np.array([0, 1])], EmConfig(max_iterations=2))


def test_baum_welch_rejects_empty_sequences(worked_model):
    with pytest.raises(ValueError, match="nonempty"):
        baum_welch(worked_model, [], EmConfig())


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(max_iterations=0)
    with pytest.raises(ValueError):
        EmConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        EmConfig(pseudocount=-1.0)


def test_baum_welch_converges_flag():
    true = HmmModel(pi=[0.6, 0.4], trans=[[0.9, 0.1], [0.15, 0.85]], emit=[[0.8, 0.2], [0.3, 0.7]])
    seqs = [sample(true, 60, seed)[1] for seed in range(5)]
    trained, trace = baum_welch(true, seqs, EmConfig(max_iterations=200, rel_tolerance=1e-4))
    assert trace.converged
    assert trace.iterations_run == trace.log_likelihoods.shape[0]


@pytest.mark.parametrize("max_iterations,converged", [(200, True), (3, False)])
def test_em_trace_times_every_e_step_and_m_step(max_iterations, converged):
    true = HmmModel(pi=[0.6, 0.4], trans=[[0.9, 0.1], [0.15, 0.85]], emit=[[0.8, 0.2], [0.3, 0.7]])
    seqs = [sample(true, 60, seed)[1] for seed in range(5)]
    config = EmConfig(max_iterations=max_iterations, rel_tolerance=1e-4)
    for run in (lambda: baum_welch(true, seqs, config),
                lambda: chmm_em(hmm_to_chmm(true), [s[:, None] for s in seqs], config)):
        _, trace = run()
        assert trace.converged is converged
        assert len(trace.e_step_seconds) == trace.iterations_run
        # A converged run stops before the final iteration's M-step.
        assert len(trace.m_step_seconds) == trace.iterations_run - converged
        assert all(s >= 0.0 for s in trace.e_step_seconds + trace.m_step_seconds)
