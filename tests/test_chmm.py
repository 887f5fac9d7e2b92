import numpy as np
import pytest

from dbnkit import (
    ChmmModel,
    EmConfig,
    ImpossibleObservationError,
    SizeCapError,
    backward,
    baum_welch,
    chmm_backward,
    chmm_em,
    chmm_forward,
    chmm_likelihood,
    chmm_smooth,
    flatten_chmm,
    flatten_obs,
    forward,
    hmm_to_chmm,
    log_likelihood,
    random_chmm,
    random_hmm,
    sample,
    smooth,
)


def _rand_obs(model, T, rng):
    return np.stack(
        [rng.integers(0, m, size=T) for m in model.symbols_per_chain], axis=1
    )


def test_single_chain_reduces_to_hmm(worked_model, worked_obs):
    chain = hmm_to_chmm(worked_model)
    cobs = worked_obs[:, None]
    fwd = forward(worked_model, worked_obs)
    cfwd = chmm_forward(chain, cobs)
    assert cfwd.log_likelihood == pytest.approx(fwd.log_likelihood, abs=1e-12)
    assert np.abs(cfwd.scaled_alpha - fwd.scaled_alpha).max() < 1e-12
    assert np.abs(cfwd.scale_factors - fwd.scale_factors).max() < 1e-12
    beta = backward(worked_model, worked_obs, fwd.scale_factors).scaled_beta
    cbeta = chmm_backward(chain, cobs, cfwd.scale_factors)
    assert np.abs(cbeta - beta).max() < 1e-12
    post = smooth(worked_model, worked_obs)
    cpost = chmm_smooth(chain, cobs)
    assert np.abs(cpost.gamma - post.gamma).max() < 1e-12
    assert np.abs(cpost.chain_gammas[0] - post.gamma).max() < 1e-12


def test_uncoupled_chains_factorize_likelihood():
    rng = np.random.default_rng(21)
    h1 = random_hmm(2, 2, rng)
    h2 = random_hmm(3, 2, rng)
    m = ChmmModel(
        initials=[h1.pi, h2.pi],
        emissions=[h1.emit, h2.emit],
        couplings={(0, 0): h1.trans, (1, 1): h2.trans},
    )
    obs = _rand_obs(m, 6, rng)
    joint = chmm_likelihood(m, obs)
    separate = log_likelihood(h1, obs[:, 0]) + log_likelihood(h2, obs[:, 1])
    assert joint == pytest.approx(separate, abs=1e-10)


def test_backward_final_slice_ones_and_reconstruction():
    rng = np.random.default_rng(22)
    m = random_chmm([2, 2], [2, 3], rng)
    obs = _rand_obs(m, 5, rng)
    fwd = chmm_forward(m, obs)
    beta = chmm_backward(m, obs, fwd.scale_factors)
    assert np.array_equal(beta[-1], np.ones(4))
    from dbnkit.chmm import _evidence_table, _joint_initial

    first = float(np.dot(_joint_initial(m) * _evidence_table(m, obs)[0], beta[0]))
    recon = np.log(first) + float(np.log(fwd.scale_factors[1:]).sum())
    assert recon == pytest.approx(fwd.log_likelihood, abs=1e-10)


def test_flattening_equivalence_seeded():
    rng = np.random.default_rng(23)
    for _ in range(30):
        L = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(L)]
        symbols = [int(rng.integers(1, 4)) for _ in range(L)]
        m = random_chmm(sizes, symbols, rng)
        obs = _rand_obs(m, int(rng.integers(1, 6)), rng)
        flat = flatten_chmm(m)
        fobs = flatten_obs(m, obs)
        assert chmm_likelihood(m, obs) == pytest.approx(
            log_likelihood(flat, fobs), abs=1e-12
        )
        joint_gamma = chmm_smooth(m, obs).gamma
        flat_gamma = smooth(flat, fobs).gamma
        assert np.abs(joint_gamma - flat_gamma).max() < 1e-12


def test_chain_marginals_normalized():
    rng = np.random.default_rng(24)
    m = random_chmm([2, 3], [2, 2], rng)
    obs = _rand_obs(m, 7, rng)
    post = chmm_smooth(m, obs)
    assert np.allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9)
    for chain_gamma in post.chain_gammas:
        assert np.allclose(chain_gamma.sum(axis=1), 1.0, atol=1e-9)


def test_size_cap_applies():
    rng = np.random.default_rng(25)
    m = random_chmm([3, 3, 3], [2, 2, 2], rng)
    obs = _rand_obs(m, 3, rng)
    with pytest.raises(SizeCapError):
        chmm_forward(m, obs, max_joint_states=26)
    with pytest.raises(SizeCapError):
        chmm_backward(m, obs, np.ones(3), max_joint_states=26)
    with pytest.raises(SizeCapError):
        chmm_smooth(m, obs, max_joint_states=26)


def test_em_checks_size_cap_before_building_joint_arrays(monkeypatch):
    # 101^3 = 1,030,301 joint states, just over DEFAULT_JOINT_CAP: the dense
    # transition would take 8.5 TB, so it must be refused before it is built.
    def never(model):
        raise AssertionError("joint transition built for an oversized model")

    monkeypatch.setattr("dbnkit.chmm._joint_transition", never)
    rng = np.random.default_rng(27)
    m = random_chmm([101, 101, 101], [2, 2, 2], rng)
    with pytest.raises(SizeCapError):
        chmm_em(m, [_rand_obs(m, 4, rng)], EmConfig(max_iterations=1))


def test_em_single_chain_matches_baum_welch_per_iteration():
    rng = np.random.default_rng(26)
    true = random_hmm(3, 2, rng)
    seqs = [sample(true, 40, seed)[1] for seed in range(4)]
    init = random_hmm(3, 2, rng)
    config = EmConfig(max_iterations=15)
    hmm_model, hmm_trace = baum_welch(init, seqs, config)
    chmm_model, chmm_trace = chmm_em(hmm_to_chmm(init), [s[:, None] for s in seqs], config)
    assert np.abs(hmm_trace.log_likelihoods - chmm_trace.log_likelihoods).max() < 1e-10
    assert np.abs(hmm_model.trans - chmm_model.couplings[(0, 0)]).max() < 1e-10
    assert np.abs(hmm_model.emit - chmm_model.emissions[0]).max() < 1e-10
    assert np.abs(hmm_model.pi - chmm_model.initials[0]).max() < 1e-10


def test_em_deterministic_fixed_point():
    m = ChmmModel(
        initials=[[1.0, 0.0]],
        emissions=[np.eye(2)],
        couplings={(0, 0): [[0.0, 1.0], [1.0, 0.0]]},
    )
    obs = np.array([0, 1, 0, 1, 0])[:, None]
    trained, trace = chmm_em(m, [obs], EmConfig(max_iterations=1))
    assert np.abs(trained.couplings[(0, 0)] - m.couplings[(0, 0)]).max() < 1e-12
    assert np.abs(trained.emissions[0] - m.emissions[0]).max() < 1e-12
    assert np.abs(trained.initials[0] - m.initials[0]).max() < 1e-12


def test_em_monotone_on_coupled_chains():
    for s in (3, 7, 15):
        rng = np.random.default_rng(1000 + s)
        true = random_chmm([2, 2], [2, 2], rng)
        seqs = [sample(true, 30, 50 + s * 10 + j)[1] for j in range(5)]
        init = random_chmm([2, 2], [2, 2], rng)
        _, trace = chmm_em(init, seqs, EmConfig(max_iterations=40))
        diffs = np.diff(trace.log_likelihoods)
        if diffs.size:
            assert diffs.min() >= -1e-9


def test_joint_recursion_cost_quadratic_in_joint_size():
    # The per-step cost is quadratic in the joint state count.  At tiny
    # joint sizes constant per-step overhead hides the arithmetic, so the
    # doubling ratio is measured where the matrix work dominates.
    import time

    rng = np.random.default_rng(71)
    T = 300
    times = {}
    for L in (9, 10):
        m = random_chmm([2] * L, [2] * L, rng)
        obs = np.stack([rng.integers(0, 2, T) for _ in range(L)], axis=1)
        chmm_forward(m, obs)  # warm-up
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            chmm_forward(m, obs)
            best = min(best, time.perf_counter() - start)
        times[L] = best
    ratio = times[10] / times[9]
    assert 2.0 <= ratio <= 6.0  # 4x expected, within 50%


def test_em_impossible_observation_names_sequence():
    m = ChmmModel(
        initials=[[1.0, 0.0]],
        emissions=[[[1.0, 0.0], [1.0, 0.0]]],
        couplings={(0, 0): [[0.5, 0.5], [0.5, 0.5]]},
    )
    good = np.zeros((4, 1), dtype=int)
    bad = np.array([0, 1, 0])[:, None]
    with pytest.raises(ImpossibleObservationError, match="sequence 1"):
        chmm_em(m, [good, bad], EmConfig(max_iterations=2))


def test_em_validates_each_sequence_once(monkeypatch):
    from dbnkit.models import validate_obs

    calls = []

    def counting(model, obs):
        calls.append(1)
        return validate_obs(model, obs)

    for module in ("dbnkit.learning", "dbnkit.inference", "dbnkit.chmm"):
        monkeypatch.setattr(f"{module}.validate_obs", counting)
    rng = np.random.default_rng(28)
    config = EmConfig(max_iterations=4)
    hmm = random_hmm(3, 2, rng)
    baum_welch(hmm, [sample(hmm, 20, seed)[1] for seed in range(3)], config)
    assert len(calls) == 3
    calls.clear()
    chmm = random_chmm([2, 2], [2, 2], rng)
    chmm_em(chmm, [sample(chmm, 20, seed)[1] for seed in range(3)], config)
    assert len(calls) == 3
