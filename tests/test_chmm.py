import itertools
import json
import sys

import numpy as np
import pytest

from dbnkit import (
    ChmmModel,
    EmConfig,
    ImpossibleObservationError,
    ModelValidationError,
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
    load_model,
    log_likelihood,
    random_chmm,
    random_hmm,
    sample,
    save_model,
    smooth,
)
from dbnkit.convert import _joint_transition, _joint_view
from dbnkit.inference import _forward_stack
from dbnkit import chmm, models
from dbnkit.cli import main
from dbnkit.learning import normalize_rows
from dbnkit.models import _chain_conditional


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
    from dbnkit.convert import _evidence_table

    first = float(np.dot(_joint_view(m)[0] * _evidence_table(m, obs)[0], beta[0]))
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


def test_size_cap_applies(monkeypatch):
    # 4 chains of 31 states build cheaply, but their 923,521 x 923,521 joint
    # transition would take 6.8 TB, so every route must refuse it unbuilt.
    def never(model):
        raise AssertionError("joint transition built for an oversized model")

    monkeypatch.setattr("dbnkit.convert._joint_transition", never)
    m = random_chmm([31] * 4, [2] * 4, np.random.default_rng(25))
    obs = np.zeros((3, 4), dtype=np.int64)
    for call in (
        lambda: chmm_forward(m, obs),
        lambda: chmm_backward(m, obs, np.ones(3)),
        lambda: chmm_smooth(m, obs),
        lambda: chmm_likelihood(m, obs),
        lambda: chmm_em(m, [obs], EmConfig(max_iterations=1)),
    ):
        with pytest.raises(SizeCapError, match=f"joint transition .* needs {8 * 31**8} bytes"):
            call()


def test_em_checks_size_cap_before_building_joint_arrays(monkeypatch):
    # 2^14 = 16,384 joint states: the dense transition would take 2 GiB, over
    # models.MAX_ARRAY_BYTES, so it must be refused before it is built (each
    # chain's own table has only 2^4 entries).
    def never(model):
        raise AssertionError("joint transition built for an oversized model")

    monkeypatch.setattr("dbnkit.convert._joint_transition", never)
    rng = np.random.default_rng(27)
    m = random_chmm([2] * 14, [2] * 14, rng)
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


def test_coupling_step_loop_ends_at_step_zero_without_a_likelihood_pass(monkeypatch):
    # Every positive step is rejected: the loop makes one likelihood pass for
    # each of 1, 0.5, 0.25 and 0.125, then takes step 0, which keeps the
    # previous couplings bit for bit and re-estimates initials and emissions.
    rng = np.random.default_rng(32)
    model = random_chmm([2, 3, 2], [2, 3, 2], rng)
    seqs = [sample(model, 25, seed)[1] for seed in range(4)]
    counts, ll = chmm._chmm_e_step(model, seqs)
    calls = []

    def rejecting(candidate, sequences):
        calls.append(candidate)
        return -np.inf

    monkeypatch.setattr(chmm, "_total_log_likelihood", rejecting)
    updated = chmm._safeguarded_update(model, counts, seqs, ll, 0.0)
    assert len(calls) == 4
    assert list(updated.couplings) == list(model.couplings)
    for key, mat in model.couplings.items():
        assert updated.couplings[key].tobytes() == mat.tobytes()
    init_counts, emit_counts, _ = counts
    for l in range(model.num_chains):
        assert np.array_equal(updated.initials[l], normalize_rows(init_counts[l][None, :])[0])
        assert np.array_equal(updated.emissions[l], normalize_rows(emit_counts[l]))


def test_joint_recursion_cost_quadratic_in_joint_size():
    # The per-step cost is quadratic in the joint state count.  At tiny
    # joint sizes constant per-step overhead hides the arithmetic, so the
    # doubling ratio is measured where the matrix work dominates.  Both
    # transitions must also sit on the same side of the per-core L2 cache:
    # on a Xeon with 2 MiB of it, the 2 MiB transition of 512 joint states
    # straddled it and the ratio of 1,024 to 512 states read up to 6.4.  A
    # 3-state chain and 8 or 9 binary ones give 768 and 1,536 joint states,
    # whose 4.5 and 18 MiB transitions both stream from L3.  Only the
    # recursion is timed: building the n x n joint transition is quadratic
    # too, and would hide a step that was not.
    import time

    rng = np.random.default_rng(71)
    T = 300
    problems = {}
    for L in (8, 9):
        sizes = [3] + [2] * L
        m = random_chmm(sizes, sizes, rng)
        pi, trans, evidence = _joint_view(m)
        problems[L] = pi, trans, evidence(np.stack([rng.integers(0, k, T) for k in sizes], axis=1))[:, None]
        _forward_stack(*problems[L])  # warm-up
    # Each repetition times both sizes back to back and forms its own ratio, so a
    # load change between repetitions moves none of them; the median then drops
    # the repetitions that a burst of load hit.
    ratios = []
    for _ in range(7):
        elapsed = {}
        for L in problems:
            start = time.perf_counter()
            _forward_stack(*problems[L])
            elapsed[L] = time.perf_counter() - start
        ratios.append(elapsed[9] / elapsed[8])
    ratio = np.median(ratios)
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

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dbnkit" and getattr(module, "validate_obs", None) is validate_obs:
            monkeypatch.setattr(module, "validate_obs", counting)
    rng = np.random.default_rng(28)
    config = EmConfig(max_iterations=4)
    hmm = random_hmm(3, 2, rng)
    baum_welch(hmm, [sample(hmm, 20, seed)[1] for seed in range(3)], config)
    assert len(calls) == 3
    calls.clear()
    chmm = random_chmm([2, 2], [2, 2], rng)
    chmm_em(chmm, [sample(chmm, 20, seed)[1] for seed in range(3)], config)
    assert len(calls) == 3


def _reference_joint_transition(model):
    """The joint transition built one source tuple at a time (the original route)."""
    sizes = model.states_per_chain
    n = int(np.prod(sizes))
    out = np.empty((n, n))
    for s, src in enumerate(itertools.product(*(range(k) for k in sizes))):
        row = None
        for l in range(model.num_chains):
            w = np.ones(sizes[l])
            for p in model.parents(l):
                w = w * model.couplings[(p, l)][src[p]]
            w = w / w.sum()
            row = w if row is None else np.multiply.outer(row, w)
        out[s] = row.reshape(-1)
    return out


def _draw(cumulative, rng):
    i = np.searchsorted(cumulative, rng.random(), side="right")
    return min(int(i), cumulative.shape[0] - 1)


def _reference_sample(model, length, seed):
    """The CHMM sampler that renormalizes the coupling product at every step."""
    rng = np.random.default_rng(seed)
    L = model.num_chains
    states = np.empty((length, L), dtype=np.int64)
    symbols = np.empty((length, L), dtype=np.int64)
    for t in range(length):
        for l in range(L):
            if t == 0:
                states[t, l] = _draw(np.cumsum(model.initials[l]), rng)
            else:
                w = np.ones(model.states_per_chain[l])
                for p in model.parents(l):
                    w = w * model.couplings[(p, l)][states[t - 1, p]]
                states[t, l] = _draw(np.cumsum(w / w.sum()), rng)
        for l in range(L):
            symbols[t, l] = _draw(np.cumsum(model.emissions[l][states[t, l]]), rng)
    return states, symbols


def test_chain_tables_match_reference_routes_bit_for_bit():
    # Chains of 8 or more states are included: numpy sums rows that long
    # pairwise, so a different summation order would show up here.
    rng = np.random.default_rng(29)
    largest = {1: 40, 2: 12, 3: 9, 4: 4}
    for i in range(60):
        L = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, largest[L] + 1)) for _ in range(L)]
        if L < 4 and i % 2:
            sizes[0] = int(rng.integers(8, largest[L] + 1))
        parents = [
            sorted({l} | {k for k in range(L) if rng.random() < 0.5}) for l in range(L)
        ]
        m = random_chmm(sizes, [2] * L, rng, parents=parents)
        expected = _reference_joint_transition(m)
        assert np.array_equal(_joint_transition(m), expected)
        assert np.array_equal(flatten_chmm(m).trans, expected)
        for got, want in zip(sample(m, 30, i), _reference_sample(m, 30, i)):
            assert np.array_equal(got, want)


def test_chain_tables_are_derived_once_at_construction(tmp_path, capsys, calls_to):
    calls = calls_to(models, "_chain_conditional")
    rng = np.random.default_rng(33)
    m = random_chmm([2, 3, 2], [2, 2, 2], rng)
    assert [chain for _, chain in calls] == [0, 1, 2]
    assert all(not table.flags.writeable for table in m._chain_tables)
    calls.clear()
    obs = _rand_obs(m, 6, rng)
    chmm_likelihood(m, obs)
    chmm_smooth(m, obs)
    flatten_chmm(m)
    sample(m, 10, 0)
    assert calls == []
    path = tmp_path / "chmm.json"
    save_model(m, path)
    for command in ("smooth", "decode"):
        assert main([command, "--model", str(path), "--obs", "0,1,1 1,1,0"]) == 0
    assert [chain for _, chain in calls] == [0, 1, 2, 0, 1, 2]  # one construction per command, in load_model


def test_chain_conditional_with_two_parents_matches_hand_computation():
    c01 = [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]]
    c11 = [[0.7, 0.3], [0.2, 0.8]]
    m = ChmmModel(
        initials=[[0.2, 0.3, 0.5], [0.5, 0.5]],
        emissions=[np.eye(3), np.eye(2)],
        couplings={(0, 0): np.full((3, 3), 1 / 3), (0, 1): c01, (1, 1): c11},
    )
    table = _chain_conditional(m, 1)
    # table[a, b, j] = c01[a, j] * c11[b, j] / sum_j(...)
    expected = np.array([
        [[0.63 / 0.66, 0.03 / 0.66], [0.18 / 0.26, 0.08 / 0.26]],
        [[0.28 / 0.46, 0.18 / 0.46], [0.08 / 0.56, 0.48 / 0.56]],
        [[0.7, 0.3], [0.2, 0.8]],
    ])
    assert table.shape == (3, 2, 2)
    assert np.abs(table - expected).max() < 1e-15
    joint = _joint_transition(m)
    for a0, b0, a1, b1 in itertools.product(range(3), range(2), range(3), range(2)):
        want = (1 / 3) * expected[a0, b0, b1]
        assert joint[a0 * 2 + b0, a1 * 2 + b1] == pytest.approx(want, abs=1e-15)


def test_zero_mass_coupling_product_is_a_model_error(tmp_path, capsys):
    # Chain 1's parents are chains 0 and 1; for parent states (0, 0) and
    # (1, 1) the rows of (0->1) and (1->1) share no support.
    chain = {"states": 2, "symbols": 2, "pi": [0.5, 0.5], "emit": [[0.9, 0.1], [0.2, 0.8]]}
    doc = {
        "type": "chmm",
        "chains": [chain, chain],
        "couplings": [
            {"from": 0, "to": 0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            {"from": 0, "to": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
            {"from": 1, "to": 1, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        ],
    }
    message = "coupling product for chain 1 has zero mass when its parent chains (0, 1) are in states (0, 0)"
    path = tmp_path / "zero_mass.json"
    path.write_text(json.dumps(doc))
    for call in (
        lambda: ChmmModel(
            initials=[c["pi"] for c in doc["chains"]],
            emissions=[c["emit"] for c in doc["chains"]],
            couplings={(c["from"], c["to"]): c["matrix"] for c in doc["couplings"]},
        ),
        lambda: load_model(path),
    ):
        with pytest.raises(ModelValidationError) as err:
            call()
        assert str(err.value) == message
    for argv in (["smooth", "--obs", "0,1 1,1"], ["sample", "--length", "5", "--seed", "0"], ["validate"]):
        assert main(argv + ["--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
