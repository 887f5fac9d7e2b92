import numpy as np
import pytest

from dbnkit import (
    HmmModel,
    ImpossibleObservationError,
    log_likelihood,
    random_hmm,
    viterbi,
)
from dbnkit.decoding import _viterbi_table
from dbnkit.oracle import enum_likelihood, enum_map_path


def test_perfect_observability_decodes_observations():
    m = HmmModel(pi=[0.5, 0.5], trans=[[0.3, 0.7], [0.6, 0.4]], emit=np.eye(2))
    obs = [1, 0, 0, 1, 1]
    assert viterbi(m, obs).path.tolist() == obs


def test_single_state_score_equals_likelihood():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.3, 0.7]])
    obs = [0, 1, 1]
    result = viterbi(m, obs)
    assert result.path.tolist() == [0, 0, 0]
    assert result.log_joint_score == pytest.approx(log_likelihood(m, obs), abs=1e-12)


def test_worked_example_path_and_score(worked_model, worked_obs):
    result = viterbi(worked_model, worked_obs)
    assert result.path.tolist() == [0, 1, 0]
    assert np.exp(result.log_joint_score) == pytest.approx(0.046656, abs=1e-12)
    ref = enum_map_path(worked_model, worked_obs)
    assert np.array_equal(result.path, ref.path)


def test_truncated_single_step_base_case(worked_model):
    result = viterbi(worked_model, [1])
    expected = int(np.argmax(worked_model.pi * worked_model.emit[:, 1]))
    assert result.path.tolist() == [expected]


def test_truncated_prefix_matches_enumeration(worked_model):
    prefix = np.array([0, 1])
    result = viterbi(worked_model, prefix)
    ref = enum_map_path(worked_model, prefix)
    assert np.array_equal(result.path, ref.path)
    assert result.log_joint_score == pytest.approx(ref.log_joint_score, abs=1e-12)


def test_score_dominated_by_likelihood():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=int(rng.integers(1, 10)))
        result = viterbi(model, obs)
        assert result.log_joint_score <= log_likelihood(model, obs) + 1e-12


def test_emission_column_shift_leaves_path_unchanged():
    rng = np.random.default_rng(37)
    model = random_hmm(3, 3, rng)
    obs = rng.integers(0, 3, size=15)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_trans = np.log(model.trans)
        log_emit = np.log(model.emit)
    base = _viterbi_table(log_pi, log_trans, log_emit.T[obs])
    shifted = log_emit.copy()
    shifted[:, 1] += 3.7
    moved = _viterbi_table(log_pi, log_trans, shifted.T[obs])
    assert np.array_equal(base.path, moved.path)


def test_uniform_model_ties_break_to_zero():
    m = HmmModel(pi=[0.25] * 4, trans=np.full((4, 4), 0.25), emit=np.full((4, 3), 1 / 3))
    assert viterbi(m, [0, 2, 1, 1, 0]).path.tolist() == [0] * 5


def test_impossible_observation_raises():
    m = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ImpossibleObservationError) as exc:
        viterbi(m, [0, 1])
    assert exc.value.t == 1


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=int(rng.integers(1, 7)))
        result = viterbi(model, obs)
        ref = enum_map_path(model, obs)
        assert np.array_equal(result.path, ref.path)
        assert np.exp(result.log_joint_score) == pytest.approx(
            np.exp(ref.log_joint_score), rel=1e-12
        )
        assert np.exp(result.log_joint_score) <= enum_likelihood(model, obs) * (1 + 1e-12)
