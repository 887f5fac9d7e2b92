"""The CLI's multi-sequence queries, run over length stacks, against per-sequence library calls.

``likelihood``, ``filter``, ``smooth``, ``predict`` and ``decode`` group a
file's sequences by length and run each group as one stack.  Their stdout
must be byte for byte the text of the per-sequence library results, whatever
the grouping, the order of the lengths or the byte budget's chunking.
``filter --particles`` runs one sequence at a time.  Every query runs on a
CHMM's joint chain, never on its flattening; the references of ``decode``,
``filter --particles`` and ``predict`` are the library on the flattened
model, so the two routes check each other.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from dbnkit import (
    TbnVariable,
    Tbn2Model,
    chmm_forward,
    chmm_likelihood,
    chmm_smooth,
    cli,
    SizeCapError,
    decoding,
    flatten_chmm,
    flatten_obs,
    inference,
    models,
    particle_filter,
    random_chmm,
    random_hmm,
    sample,
    save_model,
    save_observations,
    unroll_tbn,
    viterbi,
)
from dbnkit.cli import main

# Interleaved lengths: T = 1 twice, a length that occurs once, lengths that recur.
LENGTHS = [7, 1, 12, 7, 3, 12, 1, 7]
PARTICLES, SEED = 500, 3
# The options after --model and --obs of a query that does not spell them out.
FLAGS = {"decode": ["--score"], "filter --particles": ["--particles", str(PARTICLES), "--seed", str(SEED)]}


def _tbn(rng):
    # Variable 1 depends on its own past and on variable 0's current value.
    a = TbnVariable(
        card=2, init_parents=(), init_cpt=rng.dirichlet(np.ones(2), size=1),
        trans_parents=((0, 0),), trans_cpt=rng.dirichlet(np.ones(2), size=2),
    )
    b = TbnVariable(
        card=3, init_parents=(0,), init_cpt=rng.dirichlet(np.ones(3), size=2),
        trans_parents=((0, 1), (1, 0)), trans_cpt=rng.dirichlet(np.ones(3), size=6),
    )
    return Tbn2Model(variables=[a, b])


def _problem(kind, seed=0):
    """(model, sequences, per-query library functions of one sequence)."""
    rng = np.random.default_rng(seed)
    if kind == "chmm":
        model = random_chmm([2, 3, 2], [2, 2, 3], rng)
        flat = flatten_chmm(model)
        seqs = [sample(model, T, 10 + i)[1] for i, T in enumerate(LENGTHS)]
        queries = {
            "likelihood": lambda s: chmm_likelihood(model, s),
            "filter": lambda s: chmm_forward(model, s).scaled_alpha,
            "smooth": lambda s: chmm_smooth(model, s).gamma,
            "decode": lambda s: viterbi(flat, flatten_obs(model, s)),
            "filter --particles": lambda s: particle_filter(flat, flatten_obs(model, s), PARTICLES, SEED).estimates,
            "predict": lambda s: inference.predict_state(flat, flatten_obs(model, s)),
            "predict --horizon 3": lambda s: inference.predict_state(flat, flatten_obs(model, s), 3),
            "predict --observation": lambda s: inference.predict_obs(flat, flatten_obs(model, s)),
        }
        return model, seqs, queries
    model = random_hmm(4, 3, rng) if kind == "hmm" else _tbn(rng)
    hmm = model if kind == "hmm" else unroll_tbn(model)
    seqs = [sample(hmm, T, 10 + i)[1] for i, T in enumerate(LENGTHS)]
    queries = {
        "likelihood": lambda s: inference.log_likelihood(hmm, s),
        "filter": lambda s: inference.filter(hmm, s),
        "smooth": lambda s: inference.smooth(hmm, s).gamma,
        "decode": lambda s: viterbi(hmm, s),
        "filter --particles": lambda s: particle_filter(hmm, s, PARTICLES, SEED).estimates,
        "predict": lambda s: inference.predict_state(hmm, s),
        "predict --horizon 3": lambda s: inference.predict_state(hmm, s, 3),
        "predict --observation": lambda s: inference.predict_obs(hmm, s),
    }
    return model, seqs, queries


def _text(command, results):
    def table(t):
        return "".join("\t".join(format(float(v), ".12g") for v in row) + "\n" for row in t)

    if command == "likelihood":
        return "".join(format(float(ll), ".12g") + "\n" for ll in results)
    if command.startswith("predict"):  # one row per sequence
        return table(results)
    if command == "decode":
        return "".join(
            "\t".join(map(str, r.path.tolist())) + "\n" + format(r.log_joint_score, ".12g") + "\n"
            for r in results
        )
    return "\n".join(table(t) for t in results)


def _files(tmp_path, model, seqs):
    model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.txt"
    save_model(model, model_path)
    save_observations(seqs, obs_path)
    return str(model_path), str(obs_path)


def _argv(query, model_path, obs_path):
    command, *options = query.split()
    return [command, "--model", model_path, "--obs", obs_path] + FLAGS.get(query, options)


@pytest.mark.parametrize("kind", ["hmm", "chmm", "tbn2"])
def test_cli_queries_print_the_per_sequence_library_results(kind, tmp_path, capsys):
    model, seqs, queries = _problem(kind)
    model_path, obs_path = _files(tmp_path, model, seqs)
    for command, query in queries.items():
        assert main(_argv(command, model_path, obs_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == _text(command, [query(s) for s in seqs]), command


class _Flattened(Exception):
    pass


def test_no_query_flattens_a_chmm(tmp_path, monkeypatch, capsys):
    model, seqs, queries = _problem("chmm")
    model_path, obs_path = _files(tmp_path, model, seqs)
    expected = {query: _text(query, [reference(s) for s in seqs]) for query, reference in queries.items()}

    def refuse(*args):
        raise _Flattened

    monkeypatch.setattr("dbnkit.convert.flatten_chmm", refuse)
    monkeypatch.setattr("dbnkit.convert.flatten_obs", refuse)
    assert not {"flatten_chmm", "flatten_obs"} & set(vars(cli))
    for query, text in expected.items():
        assert main(_argv(query, model_path, obs_path)) == 0
        assert capsys.readouterr().out == text, query


def test_a_joint_emission_over_the_budget_refuses_only_predict(tmp_path, monkeypatch, capsys):
    # 2 chains of 2 states and 30 symbols each: the flattened emission is 4 x 900
    # (28,800 bytes), while the joint chain and every evidence table fit 10,000.
    model = random_chmm([2, 2], [30, 30], np.random.default_rng(2))
    seqs = [sample(model, T, 20 + i)[1] for i, T in enumerate([9, 4, 9])]
    model_path, obs_path = _files(tmp_path, model, seqs)
    flat = flatten_chmm(model)
    expected = {
        "decode": _text("decode", [viterbi(flat, flatten_obs(model, s)) for s in seqs]),
        "filter --particles": _text(
            "filter --particles",
            [particle_filter(flat, flatten_obs(model, s), PARTICLES, SEED).estimates for s in seqs],
        ),
        "predict": _text("predict", [inference.predict_state(flat, flatten_obs(model, s)) for s in seqs]),
        "predict --horizon 2": _text(
            "predict", [inference.predict_state(flat, flatten_obs(model, s), 2) for s in seqs]
        ),
    }
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 10_000)
    with pytest.raises(SizeCapError):
        flatten_chmm(model)
    for query, text in expected.items():
        assert main(_argv(query, model_path, obs_path)) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (text, ""), query
    assert main(["predict", "--model", model_path, "--obs", obs_path, "--observation"]) == 2
    assert capsys.readouterr().err == (
        "error: joint emission (4 x 900) needs 28800 bytes, over the budget of 10000\n"
    )


def test_a_budget_split_decode_and_smooth_changes_nothing(tmp_path, monkeypatch, capsys):
    model, seqs, _ = _problem("chmm", seed=1)
    model_path, obs_path = _files(tmp_path, model, seqs)
    whole = {}
    for command in ("smooth", "decode"):
        assert main(_argv(command, model_path, obs_path)) == 0
        whole[command] = capsys.readouterr().out

    stacks = []

    def recording(kernel):
        def record(*args):
            stacks.append(args[-1].shape[1::-1])  # (B, T) of a time-major stack
            return kernel(*args)

        return record

    monkeypatch.setattr(inference, "_forward_stack", recording(inference._forward_stack))
    monkeypatch.setattr(decoding, "_viterbi_stack", recording(decoding._viterbi_stack))
    # The smallest budget that admits the longest sequence's table (n = 12
    # joint states): the groups of length 7 and 12 then need more than one chunk.
    n = 12
    budget = 8 * n * max(LENGTHS)
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", budget)
    for command in ("smooth", "decode"):
        stacks.clear()
        assert main(_argv(command, model_path, obs_path)) == 0
        assert capsys.readouterr().out == whole[command], command
        # Viterbi's B x n x n candidate buffer must fit the budget too.
        width = n if command == "decode" else 0
        assert all(8 * B * max(T, width) * n <= budget for B, T in stacks)
        for T in set(LENGTHS):
            chunks = [B for B, length in stacks if length == T]
            assert sum(chunks) == LENGTHS.count(T)
            if T in (7, 12):
                assert len(chunks) > 1


@pytest.mark.parametrize(
    "command", ["likelihood", "filter", "smooth", "decode", "predict", "predict --observation"]
)
def test_an_impossible_observation_names_the_lowest_failing_sequence(command, tmp_path, capsys):
    # Symbol 2 has probability zero in every state.  Sequence 3 fails at step 1,
    # and sequence 1, shorter and in another length group, fails at step 2.
    model = random_hmm(2, 3, np.random.default_rng(5))
    emit = np.array(model.emit)
    emit[:, :2] += emit[:, 2:] / 2
    emit[:, 2] = 0.0
    model = type(model)(pi=model.pi, trans=model.trans, emit=emit)
    seqs = [[0, 1, 0, 1, 0], [1, 0, 2], [0, 1, 1], [0, 2, 0, 1, 0]]
    model_path, obs_path = _files(tmp_path, model, seqs)
    assert main(_argv(command, model_path, obs_path)) == 2
    assert capsys.readouterr().err == (
        "error: sequence 1: observation at time step 2 is impossible under the current model\n"
    )


@pytest.mark.parametrize("kind", ["hmm", "chmm"])
def test_every_obs_command_validates_each_sequence_once(kind, tmp_path, monkeypatch, capsys):
    model, seqs, queries = _problem(kind)
    model_path, obs_path = _files(tmp_path, model, seqs)
    validate_obs = models.validate_obs
    calls = []

    def counting(model, obs):
        calls.append(len(obs))
        return validate_obs(model, obs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dbnkit" and getattr(module, "validate_obs", None) is validate_obs:
            monkeypatch.setattr(module, "validate_obs", counting)
    train = ["train-chmm" if kind == "chmm" else "train", "--model", model_path, "--obs", obs_path]
    train += ["--out", str(tmp_path / "trained.json"), "--max-iters", "2"]
    for argv in [_argv(query, model_path, obs_path) for query in queries] + [train]:
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == LENGTHS, argv  # each sequence once, in file order


def test_stacked_smooth_peak_memory_stays_within_four_stacks():
    # The evidence, alpha and beta (then gamma) stacks are three T x B x n
    # tables, and the scratch must stay within one more.  A reader that keeps
    # every sequence's table holds a fourth stack of copies, which fits only
    # because the evidence and alpha stacks are let go once the tables are made.
    B, T, n, m = 20, 200, 8, 6
    rng = np.random.default_rng(7)
    model = random_hmm(n, m, rng)
    seqs = [sample(model, T, seed)[1] for seed in range(B)]
    emit_T = model.emit.T

    def run():
        tables = list(inference._smoothed(model.pi, model.trans, seqs, lambda obs: emit_T[obs]))
        # Each a copy, which holds only its own rows, not the stack.
        assert all(g.shape == (T, n) and g.base is None for g in tables)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * B * T * n * 8
