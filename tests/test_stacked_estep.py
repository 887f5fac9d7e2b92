"""The length-stacked E-step against a one-sequence-at-a-time reference.

The reference below is the per-sequence scaled recursion and E-step that the
stacked kernel replaced.  EM driven by either must agree bit for bit: same
traces, same trained parameters, same error for an impossible observation.
"""

import tracemalloc

import numpy as np
import pytest

from dbnkit import (
    ChmmModel,
    EmConfig,
    HmmModel,
    ImpossibleObservationError,
    baum_welch,
    chmm_em,
    hmm_to_chmm,
    random_chmm,
    random_hmm,
    sample,
)
from dbnkit import chmm, inference, learning, models
from dbnkit.chmm import _chain_marginals, _evidence_table, _joint_chain, _safeguarded_update
from dbnkit.learning import SufficientStats, _m_step, _run_em

# Interleaved lengths: T = 1 twice, lengths that occur once, and a length that recurs.
LENGTHS = [7, 1, 12, 7, 3, 12, 1, 7, 20, 3, 5, 7]


def _ref_forward(pi, trans, E):
    T, n = E.shape
    scaled = np.empty((T, n))
    scale = np.empty(T)
    a = pi * E[0]
    for t in range(T):
        if t > 0:
            a = (scaled[t - 1] @ trans) * E[t]
        c = a.sum()
        if c == 0.0:
            raise ImpossibleObservationError(t)
        scale[t] = c
        scaled[t] = a / c
    return scaled, scale, float(np.log(scale).sum())


def _ref_expectations(pi, trans, tables):
    for idx, E in enumerate(tables):
        try:
            alpha, scale, ll = _ref_forward(pi, trans, E)
        except ImpossibleObservationError as err:
            raise ImpossibleObservationError(
                err.t,
                f"sequence {idx}: observation at time step {err.t} is impossible "
                "under the current model",
            ) from err
        T = E.shape[0]
        beta = np.empty(E.shape)
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = trans @ (E[t + 1] * beta[t + 1]) / scale[t + 1]
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        w = E[1:] * beta[1:] / scale[1:, None]
        yield gamma, trans * (alpha[:-1].T @ w), ll


def _ref_e_step(model, sequences):
    stats = SufficientStats.zeros(model.num_states, model.num_symbols)
    total_ll = 0.0
    tables = (model.emit.T[obs] for obs in sequences)
    for obs, (gamma, xi_sum, ll) in zip(sequences, _ref_expectations(model.pi, model.trans, tables)):
        total_ll += ll
        stats.expected_initial += gamma[0]
        stats.expected_transitions += xi_sum
        emis = np.zeros((model.num_symbols, model.num_states))
        np.add.at(emis, obs, gamma)
        stats.expected_emissions += emis.T
    return stats, total_ll


def _ref_chmm_e_step(model, sequences):
    sizes = model.states_per_chain
    L = model.num_chains
    pi, trans = _joint_chain(model)
    init_counts = [np.zeros(sizes[l]) for l in range(L)]
    emit_counts = [np.zeros((sizes[l], model.symbols_per_chain[l])) for l in range(L)]
    pair_counts = {key: np.zeros(mat.shape) for key, mat in model.couplings.items()}
    total_ll = 0.0
    tables = (_evidence_table(model, obs) for obs in sequences)
    for obs, (gamma, xi_sum, ll) in zip(sequences, _ref_expectations(pi, trans, tables)):
        total_ll += ll
        chain_gammas = _chain_marginals(model, gamma)
        for l in range(L):
            init_counts[l] += chain_gammas[l][0]
            np.add.at(emit_counts[l].T, obs[:, l], chain_gammas[l])
        shaped = xi_sum.reshape(sizes + sizes)
        for (k, l) in pair_counts:
            axes = tuple(i for i in range(2 * L) if i != k and i != L + l)
            pair_counts[(k, l)] += shaped.sum(axis=axes)
    return (init_counts, emit_counts, pair_counts), total_ll


def _ref_total_log_likelihood(model, sequences):
    pi, trans = _joint_chain(model)
    total = 0.0
    for obs in sequences:
        total += _ref_forward(pi, trans, _evidence_table(model, obs))[2]
    return total


def _ref_baum_welch(init, sequences, config):
    return _run_em(init, sequences, config, _ref_e_step, lambda m, stats, s, ll, pc: _m_step(stats, pc))


def _ref_chmm_em(init, sequences, config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(chmm, "_total_log_likelihood", _ref_total_log_likelihood)
        return _run_em(init, sequences, config, _ref_chmm_e_step, _safeguarded_update)


def _hmm_problem(seed, n=4, m=3):
    rng = np.random.default_rng(seed)
    true = random_hmm(n, m, rng)
    seqs = [sample(true, T, 100 * seed + i)[1] for i, T in enumerate(LENGTHS)]
    return random_hmm(n, m, rng), seqs


def _chmm_problem(seed):
    rng = np.random.default_rng(seed)
    true = random_chmm([2, 3, 2], [2, 2, 3], rng)
    seqs = [sample(true, T, 100 * seed + i)[1] for i, T in enumerate(LENGTHS)]
    return random_chmm([2, 3, 2], [2, 2, 3], rng), seqs


def _assert_same_hmm_run(a, b):
    (model_a, trace_a), (model_b, trace_b) = a, b
    assert np.array_equal(trace_a.log_likelihoods, trace_b.log_likelihoods)
    assert (trace_a.converged, trace_a.iterations_run) == (trace_b.converged, trace_b.iterations_run)
    for name in ("pi", "trans", "emit"):
        assert np.array_equal(getattr(model_a, name), getattr(model_b, name)), name


def _assert_same_chmm_run(a, b):
    (model_a, trace_a), (model_b, trace_b) = a, b
    assert np.array_equal(trace_a.log_likelihoods, trace_b.log_likelihoods)
    assert (trace_a.converged, trace_a.iterations_run) == (trace_b.converged, trace_b.iterations_run)
    for got, want in zip(model_a.initials + model_a.emissions, model_b.initials + model_b.emissions):
        assert np.array_equal(got, want)
    assert model_a.couplings.keys() == model_b.couplings.keys()
    for key in model_a.couplings:
        assert np.array_equal(model_a.couplings[key], model_b.couplings[key]), key


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,m", [(4, 3), (8, 6)])
def test_baum_welch_bit_identical_to_per_sequence_reference(seed, n, m):
    init, seqs = _hmm_problem(seed, n, m)
    config = EmConfig(max_iterations=15)
    _assert_same_hmm_run(baum_welch(init, seqs, config), _ref_baum_welch(init, seqs, config))


@pytest.mark.parametrize("seed", [0, 1])
def test_chmm_em_bit_identical_to_per_sequence_reference(seed, monkeypatch):
    init, seqs = _chmm_problem(seed)
    config = EmConfig(max_iterations=10)
    _assert_same_chmm_run(chmm_em(init, seqs, config), _ref_chmm_em(init, seqs, config, monkeypatch))


def test_total_log_likelihood_is_the_per_sequence_sum():
    model, seqs = _chmm_problem(3)
    total = 0.0
    for obs in seqs:
        total += chmm.chmm_likelihood(model, obs)
    assert chmm._total_log_likelihood(model, seqs) == total
    assert chmm._total_log_likelihood(model, seqs) == _ref_total_log_likelihood(model, seqs)


def test_a_group_split_by_the_byte_budget_changes_nothing(monkeypatch):
    hmm_init, hmm_seqs = _hmm_problem(4)
    chmm_init, chmm_seqs = _chmm_problem(4)
    config = EmConfig(max_iterations=8)
    whole = baum_welch(hmm_init, hmm_seqs, config), chmm_em(chmm_init, chmm_seqs, config)

    stacks = []
    kernel = inference._forward_stack

    def recording(pi, trans, E):
        stacks.append(E.shape[1::-1])  # (B, T) of a time-major stack
        return kernel(pi, trans, E)

    monkeypatch.setattr(inference, "_forward_stack", recording)
    # The smallest budget that admits the longest sequence's table: the
    # groups of length 7 and 12 then need more than one chunk each.
    split = []
    for run, n in ((lambda: baum_welch(hmm_init, hmm_seqs, config), 4),
                   (lambda: chmm_em(chmm_init, chmm_seqs, config), 12)):
        stacks.clear()
        monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 8 * n * max(LENGTHS))
        split.append(run())
        largest = {}
        for B, T in stacks:
            largest[T] = max(largest.get(T, 0), B)
        assert largest[7] < LENGTHS.count(7) and largest[12] < LENGTHS.count(12)
    _assert_same_hmm_run(split[0], whole[0])
    _assert_same_chmm_run(split[1], whole[1])


def _impossible_hmm():
    # Symbol 2 has probability zero in every state.
    return HmmModel(pi=[0.6, 0.4], trans=[[0.7, 0.3], [0.4, 0.6]], emit=[[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])


# Sequence 0 fails at step 4; the shorter sequence 2, in another length group,
# fails at step 1.  Sequence 3 shares sequence 2's group and is possible.
IMPOSSIBLE = [[0, 1, 0, 1, 2, 0], [1, 1, 0, 0, 1, 0], [0, 2, 1], [1, 0, 1]]


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 0, 2, 1]])
def test_impossible_observation_names_the_lowest_failing_sequence(order, monkeypatch):
    # In the second order the group of the step-1 failure runs first.
    seqs = [np.array(IMPOSSIBLE[i]) for i in order]
    want = order.index(0)
    config = EmConfig(max_iterations=3)
    hmm = _impossible_hmm()
    coupled = hmm_to_chmm(hmm)
    runs = [
        (lambda: baum_welch(hmm, seqs, config), lambda: _ref_baum_welch(hmm, seqs, config)),
        (
            lambda: chmm_em(coupled, [s[:, None] for s in seqs], config),
            lambda: _ref_chmm_em(coupled, [s[:, None] for s in seqs], config, monkeypatch),
        ),
    ]
    for run, reference in runs:
        with pytest.raises(ImpossibleObservationError) as got:
            run()
        with pytest.raises(ImpossibleObservationError) as ref:
            reference()
        assert got.value.t == ref.value.t == 4
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"sequence {want}: observation at time step 4 ")


def test_impossible_observation_in_a_coupled_candidate_names_the_sequence():
    model = ChmmModel(
        initials=[[1.0, 0.0]],
        emissions=[[[1.0, 0.0], [0.0, 1.0]]],
        couplings={(0, 0): [[1.0, 0.0], [0.0, 1.0]]},
    )
    seqs = [np.zeros((3, 1), dtype=int), np.array([[0], [1]]), np.array([[0], [0], [1]])]
    with pytest.raises(ImpossibleObservationError, match="sequence 1: observation at time step 1 "):
        chmm._total_log_likelihood(model, seqs)


@pytest.mark.parametrize("T", [1, 2, 50])
@pytest.mark.parametrize("n", [1, 8, 81])
@pytest.mark.parametrize("B", [1, 2, 20])
def test_time_major_stack_matches_stacks_of_one(B, n, T):
    rng = np.random.default_rng(1000 * B + 10 * n + T)
    pi = rng.dirichlet(np.ones(n))
    trans = rng.dirichlet(np.ones(n), size=n)
    E = rng.random((T, B, n))

    def one(stack, b):
        return stack[:, b : b + 1].copy()

    # One zero-mass table in the middle of the stack: its first impossible
    # step is found along the time axis, and the other tables run on.
    bad = B // 2
    E_bad = E.copy()
    E_bad[T // 2, bad] = 0.0
    alpha, scale, first = inference._forward_stack(pi, trans, E_bad)
    for b in range(B):
        alpha_1, scale_1, first_1 = inference._forward_stack(pi, trans, one(E_bad, b))
        assert np.array_equal(alpha[:, b], alpha_1[:, 0], equal_nan=True)
        assert np.array_equal(scale[:, b], scale_1[:, 0], equal_nan=True)
        assert first[b] == first_1[0] == (T // 2 if b == bad else T)

    alpha, scale, first = inference._forward_stack(pi, trans, E)
    assert np.array_equal(first, np.full(B, T))
    E_w = E.copy()
    beta = inference._backward_stack(trans, E_w, scale)
    E_g = E.copy()
    gamma, w = inference._posterior_stack(trans, E_g, alpha, scale)
    lls = inference._sequence_log_likelihoods(scale)
    for b in range(B):
        ref_alpha, ref_scale, ref_ll = _ref_forward(pi, trans, E[:, b])
        alpha_1, scale_1, _ = inference._forward_stack(pi, trans, one(E, b))
        assert np.array_equal(alpha[:, b], alpha_1[:, 0]) and np.array_equal(alpha_1[:, 0], ref_alpha)
        assert np.array_equal(scale[:, b], scale_1[:, 0]) and np.array_equal(scale_1[:, 0], ref_scale)
        E_w1 = one(E, b)
        assert np.array_equal(beta[:, b], inference._backward_stack(trans, E_w1, scale_1)[:, 0])
        assert np.array_equal(E_w[1:, b], E_w1[1:, 0])
        gamma_1, w_1 = inference._posterior_stack(trans, one(E, b), alpha_1, scale_1)
        assert np.array_equal(gamma[:, b], gamma_1[:, 0])
        assert np.array_equal(w[:, b], w_1[:, 0])
        assert lls[b] == inference._sequence_log_likelihoods(scale_1)[0] == ref_ll


def test_e_step_peak_memory_stays_within_four_stacks():
    # The evidence (then pair weights), alpha and beta (then gamma) stacks
    # are three T x B x n tables; the E-step's scratch must stay within one more.
    B, T, n, m = 20, 200, 8, 6
    rng = np.random.default_rng(7)
    true = random_hmm(n, m, rng)
    init = random_hmm(n, m, rng)
    seqs = [sample(true, T, seed)[1] for seed in range(B)]
    learning._e_step(init, seqs)
    tracemalloc.start()
    try:
        learning._e_step(init, seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * B * T * n * 8
