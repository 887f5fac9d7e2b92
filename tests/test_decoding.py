import numpy as np
import pytest

from dbnkit import (
    HmmModel,
    ImpossibleObservationError,
    log_likelihood,
    random_hmm,
    viterbi,
)
from dbnkit.decoding import DecodeResult, _viterbi_stack
from dbnkit.oracle import enum_likelihood, enum_map_path


def _viterbi_one(log_pi, log_trans, log_E):
    """``_viterbi_stack`` over the stack of one ``log_E[:, None]``, raising as ``viterbi`` does."""
    paths, scores, first = _viterbi_stack(log_pi, np.ascontiguousarray(log_trans.T), log_E[:, None])
    if first[0] < log_E.shape[0]:
        raise ImpossibleObservationError(int(first[0]))
    return DecodeResult(paths[0], scores[0])


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
    base = _viterbi_one(log_pi, log_trans, log_emit.T[obs])
    shifted = log_emit.copy()
    shifted[:, 1] += 3.7
    moved = _viterbi_one(log_pi, log_trans, shifted.T[obs])
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


def _viterbi_by_columns(log_pi, log_trans, log_E):
    """Viterbi with a fresh candidate table and a column argmax per step: the reference."""
    T, n = log_E.shape
    back = np.zeros((T, n), dtype=np.int64)
    score = log_pi + log_E[0]
    if np.all(np.isneginf(score)):
        raise ImpossibleObservationError(0)
    for t in range(1, T):
        candidates = score[:, None] + log_trans
        back[t] = np.argmax(candidates, axis=0)
        score = candidates[back[t], np.arange(n)] + log_E[t]
        if np.all(np.isneginf(score)):
            raise ImpossibleObservationError(t)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = int(np.argmax(score))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return DecodeResult(path, float(score[path[T - 1]]))


def _outcome(decode, *tables):
    try:
        result = decode(*tables)
    except ImpossibleObservationError as err:
        return ("impossible", err.t)
    return ("path", result.path.tolist(), result.log_joint_score)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 81])
def test_viterbi_bit_identical_to_column_reference(n):
    rng = np.random.default_rng(700 + n)
    outcomes = set()
    for trial in range(12):
        decimals = 1 if trial % 2 else 2
        pi = np.round(rng.dirichlet(np.ones(n)), decimals)
        trans = np.round(rng.dirichlet(np.ones(n), size=n), decimals)
        emit = np.round(rng.dirichlet(np.ones(3), size=n), decimals)
        if trial % 3 == 0:
            trans[:] = 1.0 / n
        if trial % 4 == 1:
            # symbol 2 only from state 0, which no transition enters: impossible after t = 0
            emit[1:, 2] = 0.0
            trans[:, 0] = 0.0
        with np.errstate(divide="ignore"):
            tables = (np.log(pi), np.log(trans), np.log(emit).T[rng.integers(0, 3, size=40)])
        expected = _outcome(_viterbi_by_columns, *tables)
        assert _outcome(_viterbi_one, *tables) == expected
        outcomes.add(expected[0])
    if n > 1:
        assert outcomes == {"path", "impossible"}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 81])
@pytest.mark.parametrize("B", [1, 2, 20])
def test_viterbi_stack_matches_column_reference_per_sequence(B, n):
    rng = np.random.default_rng(100 * B + n)
    T = 30
    # Rounded parameters make exact ties between predecessors common.
    pi = np.round(rng.dirichlet(np.ones(n)), 1)
    trans = np.round(rng.dirichlet(np.ones(n), size=n), 1)
    emit = np.round(rng.dirichlet(np.ones(3), size=n), 1)
    if n > 1:
        trans[:, 0] = 0.0  # state 0 is never entered after t = 0
        emit[1:, 2] = 0.0  # symbol 2 only from state 0: impossible after t = 0
    with np.errstate(divide="ignore"):
        log_pi, log_trans, log_emit = np.log(pi), np.log(trans), np.log(emit).T
    obs = rng.integers(0, 2, size=(T, B))
    obs[T // 2, B // 2] = 2  # an impossible sequence in the middle of the stack
    paths, scores, first = _viterbi_stack(log_pi, np.ascontiguousarray(log_trans.T), log_emit[obs])
    outcomes = []
    for b in range(B):
        expected = _outcome(_viterbi_by_columns, log_pi, log_trans, log_emit[obs[:, b]])
        if expected[0] == "impossible":
            assert first[b] == expected[1]
        else:
            assert first[b] == T
            assert ("path", paths[b].tolist(), float(scores[b])) == expected
        outcomes.append(expected[0])
    if n > 1:
        assert outcomes[B // 2] == "impossible"
        assert B == 1 or "path" in outcomes


def test_viterbi_holds_one_log_transition(peak_in_budgets):
    # Beyond the model, decoding holds the transposed log transition and the
    # B x n x n candidate buffer, one n x n table each here (B = 1).
    n = 1024
    model = random_hmm(n, 2, np.random.default_rng(6))
    obs = np.random.default_rng(7).integers(0, 2, size=5)
    result, peak = peak_in_budgets(8 * n * n, lambda: viterbi(model, obs))
    assert result.path.shape == (5,)
    assert peak <= 2.1
