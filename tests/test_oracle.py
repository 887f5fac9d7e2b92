import numpy as np
import pytest

from dbnkit import HmmModel, ImpossibleObservationError, SizeCapError
from dbnkit.oracle import enum_likelihood, enum_map_path, enum_posterior


def test_single_state_likelihood_is_emission_product():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.3, 0.7]])
    obs = [0, 1, 1, 0]
    assert enum_likelihood(m, obs) == pytest.approx(0.3 * 0.7 * 0.7 * 0.3, abs=1e-15)


def test_uniform_model_likelihood():
    m = HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=np.full((2, 3), 1 / 3))
    assert enum_likelihood(m, [0, 2, 1, 1]) == pytest.approx(3.0**-4, abs=1e-15)


def test_worked_example_likelihood(worked_model, worked_obs):
    assert enum_likelihood(worked_model, worked_obs) == pytest.approx(0.10893, abs=1e-12)


def test_worked_example_map_path(worked_model, worked_obs):
    result = enum_map_path(worked_model, worked_obs)
    assert result.path.tolist() == [0, 1, 0]
    assert np.exp(result.log_joint_score) == pytest.approx(0.046656, abs=1e-12)


def test_single_state_posterior_all_ones():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.4, 0.6]])
    gamma, xi = enum_posterior(m, [0, 1, 0])
    assert np.allclose(gamma, 1.0)
    assert np.allclose(xi, 1.0)


def test_posterior_rows_normalized(worked_model, worked_obs):
    gamma, xi = enum_posterior(worked_model, worked_obs)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(xi.sum(axis=(1, 2)), 1.0, atol=1e-12)


def test_map_probability_bounded_by_likelihood(worked_model, worked_obs):
    best = np.exp(enum_map_path(worked_model, worked_obs).log_joint_score)
    assert best <= enum_likelihood(worked_model, worked_obs)


def test_deterministic_model_has_unique_path():
    m = HmmModel(pi=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], emit=np.eye(2))
    result = enum_map_path(m, [0, 1, 0, 1])
    assert result.path.tolist() == [0, 1, 0, 1]
    assert np.exp(result.log_joint_score) == pytest.approx(1.0)


def test_size_guard(worked_model):
    with pytest.raises(SizeCapError):
        enum_likelihood(worked_model, np.zeros(21, dtype=int))


def test_posterior_of_an_impossible_sequence_blames_no_step():
    m = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
    with pytest.raises(ImpossibleObservationError, match="^observation sequence is impossible under the model$") as got:
        enum_posterior(m, [0, 1])
    assert got.value.t is None
