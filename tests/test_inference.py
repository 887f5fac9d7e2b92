import tracemalloc

import numpy as np
import pytest

from dbnkit import (
    DegenerateWeightsError,
    HmmModel,
    ImpossibleObservationError,
    backward,
    chmm_backward,
    filter,
    forward,
    hmm_to_chmm,
    log_likelihood,
    particle_filter,
    predict_obs,
    predict_state,
    random_hmm,
    smooth,
)
from dbnkit.oracle import enum_likelihood, enum_posterior


def test_single_state_log_likelihood():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.3, 0.7]])
    obs = [0, 1, 1]
    assert log_likelihood(m, obs) == pytest.approx(np.log(0.3) + 2 * np.log(0.7), abs=1e-12)


def test_uniform_model_likelihood():
    m = HmmModel(pi=np.full(3, 1 / 3), trans=np.full((3, 3), 1 / 3), emit=np.full((3, 4), 0.25))
    assert np.exp(log_likelihood(m, [0, 3, 2, 1, 0])) == pytest.approx(4.0**-5, abs=1e-15)


def test_worked_example_likelihood(worked_model, worked_obs):
    assert np.exp(log_likelihood(worked_model, worked_obs)) == pytest.approx(0.10893, abs=1e-12)


def test_forward_invariants(worked_model, worked_obs):
    result = forward(worked_model, worked_obs)
    assert np.allclose(result.scaled_alpha.sum(axis=1), 1.0, atol=1e-9)
    assert result.log_likelihood == pytest.approx(np.log(result.scale_factors).sum(), abs=1e-12)
    assert np.all(result.scale_factors > 0)


def test_impossible_observation_names_step():
    m = HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ImpossibleObservationError, match="time step 2") as exc:
        forward(m, [0, 0, 1])
    assert exc.value.t == 2


def test_backward_final_row_is_ones(worked_model, worked_obs):
    fwd = forward(worked_model, worked_obs)
    bwd = backward(worked_model, worked_obs, fwd.scale_factors)
    assert np.array_equal(bwd.scaled_beta[-1], np.ones(2))


def test_backward_single_state_all_ones():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.25, 0.75]])
    fwd = forward(m, [1, 0, 1])
    bwd = backward(m, [1, 0, 1], fwd.scale_factors)
    assert np.allclose(bwd.scaled_beta, 1.0)


def test_backward_reconstructs_likelihood(worked_model, worked_obs):
    fwd = forward(worked_model, worked_obs)
    bwd = backward(worked_model, worked_obs, fwd.scale_factors)
    first = float(np.dot(worked_model.pi * worked_model.emit[:, worked_obs[0]], bwd.scaled_beta[0]))
    recon = np.log(first) + float(np.log(fwd.scale_factors[1:]).sum())
    assert recon == pytest.approx(fwd.log_likelihood, abs=1e-12)


def test_backward_scale_length_mismatch(worked_model, worked_obs):
    with pytest.raises(ValueError, match="scale_factors"):
        backward(worked_model, worked_obs, np.ones(5))
    with pytest.raises(ValueError, match="scale_factors"):
        chmm_backward(hmm_to_chmm(worked_model), worked_obs[:, None], np.ones(5))


def test_filter_perfect_observability():
    m = HmmModel(pi=[0.5, 0.5], trans=[[0.3, 0.7], [0.6, 0.4]], emit=np.eye(2))
    obs = [1, 0, 0, 1]
    table = filter(m, obs)
    assert np.allclose(table, np.eye(2)[obs], atol=1e-12)


def test_filter_first_row_uniform_under_symmetry():
    m = HmmModel(pi=[0.25] * 4, trans=np.full((4, 4), 0.25), emit=np.full((4, 2), 0.5))
    assert np.allclose(filter(m, [1])[0], 0.25, atol=1e-12)


def test_filter_matches_prefix_posteriors(worked_model, worked_obs):
    table = filter(worked_model, worked_obs)
    for t in range(len(worked_obs)):
        gamma, _ = enum_posterior(worked_model, worked_obs[: t + 1])
        assert np.allclose(table[t], gamma[-1], atol=1e-12)


def test_smooth_final_row_equals_filter(worked_model, worked_obs):
    assert np.allclose(
        smooth(worked_model, worked_obs).gamma[-1],
        filter(worked_model, worked_obs)[-1],
        atol=1e-12,
    )


def test_smooth_single_state_all_ones():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.25, 0.75]])
    post = smooth(m, [0, 1, 1])
    assert np.allclose(post.gamma, 1.0)


def test_smooth_matches_oracle(worked_model, worked_obs):
    post = smooth(worked_model, worked_obs)
    ref_gamma, ref_xi = enum_posterior(worked_model, worked_obs)
    assert np.abs(post.gamma - ref_gamma).max() < 1e-12
    assert np.abs(post.xi - ref_xi).max() < 1e-12


def test_xi_marginalization_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=int(rng.integers(2, 8)))
        post = smooth(model, obs)
        assert np.abs(post.xi.sum(axis=2) - post.gamma[:-1]).max() < 1e-9
        assert np.abs(post.xi.sum(axis=1) - post.gamma[1:]).max() < 1e-9


def test_alpha_beta_product_sums_to_one_at_every_step():
    rng = np.random.default_rng(12)
    model = random_hmm(3, 3, rng)
    obs = rng.integers(0, 3, size=40)
    fwd = forward(model, obs)
    bwd = backward(model, obs, fwd.scale_factors)
    sums = (fwd.scaled_alpha * bwd.scaled_beta).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_predict_state_single_state():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]])
    for h in (1, 2, 5):
        assert np.allclose(predict_state(m, [0, 1], h), [1.0])


def test_predict_state_permutation_dynamics():
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    m = HmmModel(pi=np.full(3, 1 / 3), trans=perm, emit=np.eye(3))
    for h in range(1, 7):
        p = predict_state(m, [1], h)
        assert np.allclose(p, np.eye(3)[(1 + h) % 3], atol=1e-12)


def test_predict_state_matches_enumeration(worked_model, worked_obs):
    predicted = predict_state(worked_model, worked_obs, 1)
    gamma, _ = enum_posterior(worked_model, worked_obs)
    expected = gamma[-1] @ worked_model.trans
    assert np.allclose(predicted, expected, atol=1e-12)


def test_predict_state_rejects_bad_horizon(worked_model, worked_obs):
    with pytest.raises(ValueError):
        predict_state(worked_model, worked_obs, 0)


def test_predict_obs_normalized_and_uniform():
    m = HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=np.full((2, 3), 1 / 3))
    p = predict_obs(m, [0, 1])
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p, 1 / 3, atol=1e-12)


def test_predict_obs_matches_likelihood_ratios(worked_model, worked_obs):
    p = predict_obs(worked_model, worked_obs)
    base = enum_likelihood(worked_model, worked_obs)
    for k in range(worked_model.num_symbols):
        extended = np.append(worked_obs, k)
        assert p[k] == pytest.approx(enum_likelihood(worked_model, extended) / base, abs=1e-12)


def test_particle_filter_deterministic_model():
    m = HmmModel(pi=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], emit=np.eye(2))
    obs = [0, 1, 0, 1]
    result = particle_filter(m, obs, num_particles=64, seed=5)
    expected_states = np.array(obs)
    for t in range(4):
        assert np.all(result.particles[t] == expected_states[t])
        assert np.allclose(result.weights[t], 1.0 / 64)
        assert np.allclose(result.estimates[t], np.eye(2)[expected_states[t]])


def test_particle_filter_single_particle_one_hot(worked_model, worked_obs):
    result = particle_filter(worked_model, worked_obs, num_particles=1, seed=3)
    for t in range(len(worked_obs)):
        assert result.estimates[t].sum() == pytest.approx(1.0)
        assert np.count_nonzero(result.estimates[t]) == 1
    step = result.step(1)
    assert step.particles.shape == (1,)
    assert step.weights[0] == pytest.approx(1.0)


def test_particle_filter_deterministic_in_seed(worked_model, worked_obs):
    a = particle_filter(worked_model, worked_obs, 500, seed=42)
    b = particle_filter(worked_model, worked_obs, 500, seed=42)
    assert np.array_equal(a.particles, b.particles)
    assert np.array_equal(a.weights, b.weights)
    c = particle_filter(worked_model, worked_obs, 500, seed=43)
    assert not np.array_equal(a.particles, c.particles)


def test_particle_filter_degenerate_weights_error():
    m = HmmModel(pi=[1.0, 0.0], trans=[[1.0, 0.0], [0.5, 0.5]], emit=[[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(DegenerateWeightsError, match="time step 1") as exc:
        particle_filter(m, [0, 1], num_particles=16, seed=0)
    assert exc.value.t == 1


def test_particle_filter_approximates_exact_filter(worked_model):
    rng = np.random.default_rng(8)
    obs = rng.integers(0, 2, size=12)
    exact = filter(worked_model, obs)
    approx = particle_filter(worked_model, obs, num_particles=4000, seed=17).estimates
    assert np.abs(exact - approx).max() < 0.06


def test_particle_filter_validates_arguments(worked_model, worked_obs):
    with pytest.raises(ValueError):
        particle_filter(worked_model, worked_obs, 0, seed=1)
    with pytest.raises(ValueError):
        particle_filter(worked_model, worked_obs, 10, seed=1, resample_threshold=1.5)


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=int(rng.integers(1, 7)))
        assert np.exp(log_likelihood(model, obs)) == pytest.approx(
            enum_likelihood(model, obs), abs=1e-12
        )


def _xi_per_step(model, obs):
    """Pairwise posteriors slice by slice, each renormalised: the reference for smooth's xi."""
    fwd = forward(model, obs)
    beta = backward(model, obs, fwd.scale_factors).scaled_beta
    alpha = fwd.scaled_alpha
    E = model.emit.T[np.asarray(obs)]
    T, n = alpha.shape
    xi = np.empty((T - 1, n, n))
    for t in range(T - 1):
        m = (alpha[t][:, None] * model.trans) * (E[t + 1] * beta[t + 1])[None, :]
        xi[t] = m / m.sum()
    return xi


@pytest.mark.parametrize("T", [1, 2, 3, 17])
def test_xi_matches_per_step_reference(T):
    rng = np.random.default_rng(100 + T)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=T)
        xi = smooth(model, obs).xi
        assert xi.shape == (T - 1, n, n)
        assert not xi.flags.writeable
        assert np.abs(xi - _xi_per_step(model, obs)).max(initial=0.0) < 1e-14


def test_smooth_does_not_allocate_xi_until_read():
    rng = np.random.default_rng(13)
    n, T = 128, 400
    model = random_hmm(n, 4, rng)
    obs = rng.integers(0, 4, size=T)
    tracemalloc.start()
    try:
        post = smooth(model, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert post.gamma.shape == (T, n)
    assert peak < (T - 1) * n * n * 8 / 4
