import re

import numpy as np
import pytest

from dbnkit import (
    DegenerateWeightsError,
    HmmModel,
    ImpossibleObservationError,
    PosteriorResult,
    SizeCapError,
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
from dbnkit import models
from dbnkit.inference import _lifting_table, _propagate, _systematic_resample
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
    # A forward pass that succeeds gives finite, positive factors; the first other entry is named.
    for bad in (np.nan, -1.0, 0.0, np.inf):
        scale = np.array([0.5, bad, bad])
        want = f"scale_factors must be finite and positive, as forward's are; step 1 has {bad}"
        with pytest.raises(ValueError, match=re.escape(want)):
            backward(worked_model, worked_obs, scale)
        with pytest.raises(ValueError, match=re.escape(want)):
            chmm_backward(hmm_to_chmm(worked_model), worked_obs[:, None], scale)


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
    for horizon in (1.9, "1"):
        with pytest.raises(ValueError, match=f"horizon must be an integer, got {horizon!r}"):
            predict_state(worked_model, worked_obs, horizon)


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
    assert np.allclose(result.estimates, np.eye(2)[obs])
    assert np.all(result.final_particles == obs[-1])
    assert np.allclose(result.final_weights, 1.0 / 64)
    # every particle agrees, so the ESS is K, never below the threshold, even at 1.0 * K
    assert np.array_equal(result.ess, np.full(4, 64.0))
    assert not result.resampled.any()
    assert not particle_filter(m, obs, 64, seed=5, resample_threshold=1.0).resampled.any()


def test_particle_filter_single_particle_one_hot(worked_model, worked_obs):
    result = particle_filter(worked_model, worked_obs, num_particles=1, seed=3)
    for t in range(len(worked_obs)):
        assert result.estimates[t].sum() == pytest.approx(1.0)
        assert np.count_nonzero(result.estimates[t]) == 1
    assert result.final_particles.shape == (1,)
    assert result.final_weights[0] == pytest.approx(1.0)


def test_particle_filter_deterministic_in_seed(worked_model, worked_obs):
    a = particle_filter(worked_model, worked_obs, 500, seed=42)
    b = particle_filter(worked_model, worked_obs, 500, seed=42)
    for field in ("estimates", "ess", "resampled", "final_particles", "final_weights"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = particle_filter(worked_model, worked_obs, 500, seed=43)
    assert not np.array_equal(a.estimates, c.estimates)
    assert not np.array_equal(a.final_particles, c.final_particles)


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


def _particle_filter_by_comparison(model, obs, num_particles, seed):
    """The particle filter with an O(K·n) comparison count per step: the reference for the lifting."""
    obs = np.asarray(obs)
    K = num_particles
    rng = np.random.default_rng(seed)
    T = obs.shape[0]
    n = model.num_states
    trans_cum = np.cumsum(model.trans, axis=1)
    particles = np.empty((T, K), dtype=np.int64)
    weights = np.empty((T, K))
    estimates = np.empty((T, n))
    pi_cum = np.cumsum(model.pi)
    x = np.minimum(np.searchsorted(pi_cum, rng.random(K), side="right"), n - 1)
    w = model.emit[x, obs[0]].copy()
    for t in range(T):
        if t > 0:
            if 1.0 / np.sum(w * w) < 0.5 * K:
                keep = _systematic_resample(w, rng)
                x = x[keep]
                w = np.full(K, 1.0 / K)
            u = rng.random(K)
            x = np.minimum((trans_cum[x] <= u[:, None]).sum(axis=1), n - 1)
            w = w * model.emit[x, obs[t]]
        w = w / w.sum()
        particles[t] = x
        weights[t] = w
        estimates[t] = np.bincount(x, weights=w, minlength=n)
    return particles, weights, estimates


def _sparse_transitions(rng, n):
    """Random rows with about half their entries zero (flat stretches in the cumulative sums)."""
    trans = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.5)
    trans[np.arange(n), rng.integers(0, n, size=n)] += rng.random(n) + 0.1
    trans[0] = 0.0
    trans[0, n - 1] = 1.0
    return trans / trans.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 81, 256, 300])
def test_particle_filter_bit_identical_to_comparison_count(n):
    rng = np.random.default_rng(500 + n)
    for trans in (rng.dirichlet(np.ones(n), size=n), _sparse_transitions(rng, n)):
        model = HmmModel(pi=rng.dirichlet(np.ones(n)), trans=trans,
                         emit=rng.dirichlet(np.ones(4), size=n))
        obs = rng.integers(0, 4, size=25)
        result = particle_filter(model, obs, num_particles=300, seed=n)
        particles, weights, estimates = _particle_filter_by_comparison(model, obs, 300, n)
        assert np.array_equal(result.estimates, estimates)
        assert np.array_equal(result.ess, [1.0 / np.sum(w * w) for w in weights])
        assert np.array_equal(result.final_particles, particles[-1])
        assert np.array_equal(result.final_weights, weights[-1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
def test_propagate_counts_at_and_just_below_every_cumulative_value(n):
    rng = np.random.default_rng(n)
    trans = _sparse_transitions(rng, n)
    trans_cum = np.cumsum(trans, axis=1)
    table, P = _lifting_table(trans)
    x = np.repeat(np.arange(n), 2 * n + 2)
    u = np.concatenate([
        np.concatenate([row, np.nextafter(row, -np.inf), [0.0, 1.0]]) for row in trans_cum
    ])
    expected = np.minimum((trans_cum[x] <= u[:, None]).sum(axis=1), n - 1)
    assert np.array_equal(_propagate(table, P, x, u), expected)


def test_particle_filter_ess_is_inverse_sum_of_squared_weights():
    rng = np.random.default_rng(61)
    model = random_hmm(6, 3, rng)
    obs = rng.integers(0, 3, size=40)
    result = particle_filter(model, obs, num_particles=200, seed=4)
    _, weights, _ = _particle_filter_by_comparison(model, obs, 200, 4)
    assert np.array_equal(result.ess, 1.0 / np.sum(weights**2, axis=1))
    for field in ("estimates", "ess", "resampled", "final_particles", "final_weights"):
        assert not getattr(result, field).flags.writeable


@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.9, 1.0])
def test_particle_filter_resampled_follows_threshold_rule(worked_model, threshold):
    obs = np.random.default_rng(9).integers(0, 2, size=30)
    result = particle_filter(worked_model, obs, num_particles=64, seed=5, resample_threshold=threshold)
    assert not result.resampled[0]
    assert np.array_equal(result.resampled[1:], result.ess[:-1] < threshold * 64)
    assert result.resampled.any() == (threshold > 0.0)


def test_particle_filter_validates_arguments(worked_model, worked_obs):
    with pytest.raises(ValueError):
        particle_filter(worked_model, worked_obs, 0, seed=1)
    for count in (2.7, "2"):
        with pytest.raises(ValueError, match=f"num_particles must be an integer, got {count!r}"):
            particle_filter(worked_model, worked_obs, count, seed=0)
    with pytest.raises(ValueError):
        particle_filter(worked_model, worked_obs, 10, seed=1, resample_threshold=1.5)
    # 10**12 particles would take 8 TB per ensemble array
    with pytest.raises(SizeCapError, match="particle ensemble"):
        particle_filter(worked_model, worked_obs, 10**12, seed=1)


def test_particle_lifting_table_is_checked_against_the_byte_budget(monkeypatch):
    # A 5 x 5 transition is exactly 200 bytes; the lifting table is 5 x 8, 320 bytes.
    model = random_hmm(5, 2, np.random.default_rng(4))
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 200)
    with pytest.raises(SizeCapError, match=r"^particle lifting table \(5 x 8\) needs 320 bytes, over the budget of 200$"):
        particle_filter(model, [0, 1], 10, 0)


def test_particle_filter_holds_one_lifting_table_and_refuses_it_before_allocating(peak_in_budgets, traced_peak):
    # The lifting table is n x P = 1000 x 1024, just over one n x n table; no
    # other n x n table is built beside it, and none before its budget check.
    n = 1000
    model = random_hmm(n, 2, np.random.default_rng(8))
    obs = np.random.default_rng(9).integers(0, 2, size=5)
    result, peak = traced_peak(lambda: particle_filter(model, obs, 100, 3))
    assert result.estimates.shape == (5, n)
    assert peak / (8 * n * n) < 1.1

    def refused():
        with pytest.raises(SizeCapError, match=r"^particle lifting table \(1000 x 1024\)"):
            particle_filter(model, obs, 100, 3)

    _, peak = peak_in_budgets(8 * n * n, refused)
    assert peak < 0.1


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


def test_smooth_does_not_allocate_xi_until_read(traced_peak):
    rng = np.random.default_rng(13)
    n, T = 128, 400
    model = random_hmm(n, 4, rng)
    obs = rng.integers(0, 4, size=T)
    post, peak = traced_peak(lambda: smooth(model, obs))
    assert post.gamma.shape == (T, n)
    assert peak < (T - 1) * n * n * 8 / 4


class _NeverMultiplied(np.ndarray):
    """An array that fails any arithmetic, so that an attempt to build xi from it shows."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("xi built")


def test_xi_read_checks_its_bytes_before_building_it():
    n = 256
    slices = models.MAX_ARRAY_BYTES // (8 * n * n)
    trans = np.full((n, n), 1.0 / n).view(_NeverMultiplied)

    def posterior(steps):
        rows = np.broadcast_to(np.full(n, 1.0 / n), (steps, n))
        return PosteriorResult(rows, rows, trans, rows[1:])

    with pytest.raises(AssertionError, match="xi built"):
        posterior(slices + 1).xi  # (T-1) x n x n is exactly the budget: xi is built
    with pytest.raises(SizeCapError, match=rf"xi \({slices + 1} x 256 x 256\)"):
        posterior(slices + 2).xi
