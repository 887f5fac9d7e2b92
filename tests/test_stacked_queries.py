"""The CLI's multi-sequence queries, run over length stacks, against per-sequence library calls.

``likelihood``, ``filter``, ``smooth``, ``predict`` and ``decode`` cut a
file, in order, into windows whose tables fit the byte budget together, and
run the sequences of each length in a window as one stack.  Their stdout
must be byte for byte the text of the per-sequence library results, whatever
the grouping, the order of the lengths or the byte budget's windows.
``filter --particles`` runs one sequence at a time.  Every query runs on a
CHMM's joint chain, never on its flattening; the references of ``decode``,
``filter --particles`` and ``predict`` are the library on the flattened
model, so the two routes check each other.
"""

import os
import sys

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
    learning,
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
    return model, seqs, _hmm_queries(hmm)


def _hmm_queries(hmm):
    return {
        "likelihood": lambda s: inference.log_likelihood(hmm, s),
        "filter": lambda s: inference.filter(hmm, s),
        "smooth": lambda s: inference.smooth(hmm, s).gamma,
        "decode": lambda s: viterbi(hmm, s),
        "filter --particles": lambda s: particle_filter(hmm, s, PARTICLES, SEED).estimates,
        "predict": lambda s: inference.predict_state(hmm, s),
        "predict --horizon 3": lambda s: inference.predict_state(hmm, s, 3),
        "predict --observation": lambda s: inference.predict_obs(hmm, s),
    }


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


def _record_stacks(monkeypatch):
    """A list to which every later forward or Viterbi stack appends its (B, T)."""
    stacks = []

    def recording(kernel):
        def record(*args):
            stacks.append(args[-1].shape[1::-1])  # (B, T) of a time-major stack
            return kernel(*args)

        return record

    monkeypatch.setattr(inference, "_forward_stack", recording(inference._forward_stack))
    monkeypatch.setattr(decoding, "_viterbi_stack", recording(decoding._viterbi_stack))
    return stacks


@pytest.mark.parametrize("kind", ["hmm", "chmm", "tbn2"])
def test_cli_queries_print_the_per_sequence_library_results(kind, tmp_path, monkeypatch, capsys):
    model, seqs, queries = _problem(kind)
    model_path, obs_path = _files(tmp_path, model, seqs)
    expected = {command: _text(command, [query(s) for s in seqs]) for command, query in queries.items()}
    stacks = _record_stacks(monkeypatch)
    for command, text in expected.items():
        assert main(_argv(command, model_path, obs_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == text, command
    assert max(B for B, T in stacks) >= 3


@pytest.mark.parametrize(
    "columns, expected",
    [
        # The whole file fits: one stack per length, across its runs.
        (None, [(3, 7), (1, 1), (3, 12)]),
        # Windows of at most 30 columns (n = 4 states): [7, 7, 1, 12],
        # [12, 12] and [7], whatever the route's width, which is at most 4.
        (30, [(2, 7), (1, 1), (1, 12), (2, 12), (1, 7)]),
    ],
)
def test_stacks_group_each_length_within_budget_windows_in_file_order(
    columns, expected, tmp_path, monkeypatch, capsys
):
    model = random_hmm(4, 3, np.random.default_rng(4))
    seqs = [sample(model, T, 30 + i)[1] for i, T in enumerate([7, 7, 1, 12, 12, 12, 7])]
    model_path, obs_path = _files(tmp_path, model, seqs)
    if columns:
        monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 8 * 4 * columns)
    stacks = _record_stacks(monkeypatch)
    for query in ("likelihood", "filter", "smooth", "predict", "decode"):
        stacks.clear()
        assert main(_argv(query, model_path, obs_path)) == 0
        capsys.readouterr()
        assert stacks == expected, query
    stacks.clear()
    learning._e_step(model, seqs)
    assert stacks == expected


def test_a_window_counts_a_sequence_as_at_least_its_route_width(tmp_path, monkeypatch, capsys):
    # Viterbi's B x n x n buffer: decode counts each length-1 sequence as
    # n = 4 columns, so that windows of 8 columns hold two of them, while
    # the forward routes fit all five into one.
    model = random_hmm(4, 3, np.random.default_rng(4))
    seqs = [sample(model, 1, 40 + i)[1] for i in range(5)]
    model_path, obs_path = _files(tmp_path, model, seqs)
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 8 * 4 * 8)
    stacks = _record_stacks(monkeypatch)
    for query, expected in (("likelihood", [(5, 1)]), ("decode", [(2, 1), (2, 1), (1, 1)])):
        stacks.clear()
        assert main(_argv(query, model_path, obs_path)) == 0
        capsys.readouterr()
        assert stacks == expected, query


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

    stacks = _record_stacks(monkeypatch)
    # The smallest budget that admits the longest sequence's table (n = 12
    # joint states): the sequences of length 7 and 12 then need more than one stack.
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


IMPOSSIBLE_QUERIES = ["likelihood", "filter", "smooth", "decode", "predict", "predict --observation"]
# Sequence 3 fails at step 1, and sequence 1, shorter, at step 2.
IMPOSSIBLE = [[0, 1, 0, 1, 0], [1, 0, 2], [0, 1, 1], [0, 2, 0, 1, 0]]
IMPOSSIBLE_ERROR = "error: sequence 1: observation at time step 2 is impossible under the current model\n"


def _impossible_hmm():
    # Symbol 2 has probability zero in every state.
    model = random_hmm(2, 3, np.random.default_rng(5))
    emit = np.array(model.emit)
    emit[:, :2] += emit[:, 2:] / 2
    emit[:, 2] = 0.0
    return type(model)(pi=model.pi, trans=model.trans, emit=emit)


@pytest.mark.parametrize("command", IMPOSSIBLE_QUERIES)
def test_an_impossible_observation_names_the_lowest_failing_sequence(command, tmp_path, monkeypatch, capsys):
    # The file is one window: both stacks run, the stack of sequence 3's
    # failure first, and nothing is printed.
    model_path, obs_path = _files(tmp_path, _impossible_hmm(), IMPOSSIBLE)
    stacks = _record_stacks(monkeypatch)
    assert main(_argv(command, model_path, obs_path)) == 2
    assert capsys.readouterr() == ("", IMPOSSIBLE_ERROR)
    assert stacks == [(2, 5), (2, 3)]


@pytest.mark.parametrize("command", IMPOSSIBLE_QUERIES)
def test_a_failing_window_stops_the_file_after_the_windows_before_it(command, tmp_path, monkeypatch, capsys):
    # Windows of 7 columns (n = 2 states): [0], [1, 2] and [3].  Sequence 0 is
    # printed, sequence 1 fails in the second window, and the third never runs.
    model = _impossible_hmm()
    model_path, obs_path = _files(tmp_path, model, IMPOSSIBLE)
    printed = _text(command, [_hmm_queries(model)[command](np.array(IMPOSSIBLE[0]))])
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 8 * 2 * 7)
    stacks = _record_stacks(monkeypatch)
    assert main(_argv(command, model_path, obs_path)) == 2
    assert capsys.readouterr() == (printed, IMPOSSIBLE_ERROR)
    assert stacks == [(1, 5), (2, 3)]


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


def test_stacked_smooth_peak_memory_stays_within_four_stacks(traced_peak):
    # The evidence, alpha and beta (then gamma) stacks are three T x B x n
    # tables, and the scratch must stay within one more.  A reader that keeps
    # every sequence's table keeps the gamma stack, and the peak stays within
    # four stacks because the evidence and alpha stacks are let go once the
    # tables are made.
    B, T, n, m = 20, 200, 8, 6
    rng = np.random.default_rng(7)
    model = random_hmm(n, m, rng)
    seqs = [sample(model, T, seed)[1] for seed in range(B)]

    def run():
        tables = [r.gamma for r in inference._smoothed(model, seqs)]
        assert all(g.shape == (T, n) for g in tables)

    run()
    _, peak = traced_peak(run)
    assert peak <= 4 * B * T * n * 8


def test_streamed_smooth_peak_memory_is_bounded_by_the_budget_not_the_file(monkeypatch, traced_peak):
    # A budget of 10 tables; a short sequence second in the file.  Stacks
    # grouped by length across the whole file would make every later table
    # wait for it, so the peak would grow with the number of sequences.  A
    # window's evidence, alpha and beta stacks (then gamma) are three budgets,
    # and no table of an earlier window may be held while they are made.
    T, n, m = 200, 32, 4
    table = 8 * T * n
    model = random_hmm(n, m, np.random.default_rng(8))
    long, short = sample(model, T, 1)[1], sample(model, 3, 2)[1]
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 10 * table)
    peaks = []
    for count in (60, 240):
        seqs = [long, short] + [long] * count

        def drain():
            for result in inference._smoothed(model, seqs):
                assert result.gamma.shape[1] == n  # read, then dropped, as the CLI does
                del result

        peaks.append(traced_peak(drain)[1])
    assert peaks[1] <= 3.5 * 10 * table
    assert peaks[1] <= peaks[0] + table


def test_cli_smooth_peak_memory_is_bounded_by_the_budget_not_the_file(tmp_path, monkeypatch, traced_peak):
    # The file of the test above, through the CLI, whose printing loop must
    # not hold a window's last table while the next window is made.  Parsing
    # and formatting take about one budget more.
    T, n, m = 200, 32, 4
    table = 8 * T * n
    model = random_hmm(n, m, np.random.default_rng(8))
    long, short = sample(model, T, 1)[1], sample(model, 3, 2)[1]
    model_path, obs_path = _files(tmp_path, model, [long, short] + [long] * 60)
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 10 * table)
    with open(tmp_path / "out.txt", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        code, peak = traced_peak(lambda: main(["smooth", "--model", model_path, "--obs", obs_path]))
        assert code == 0
    assert peak <= 4.5 * 10 * table


# The multiple of the byte budget at which each stacked command peaks, as README states it: a window's
# evidence and alpha stacks fill about one budget each, decode adds its back pointers and candidate
# buffer, smooth its beta (then gamma) stack, and EM the emission counts beside all three.
PEAK_BUDGETS = {"likelihood": 2.5, "filter": 2.5, "predict": 2.5, "decode": 2.5, "smooth": 3.5, "train": 4.0}


@pytest.fixture(scope="module")
def budget_files(tmp_path_factory):
    """An HMM at n = 64 and two files of it: 100 sequences of 200 steps, and lengths 200 and 100 interleaved."""
    model = random_hmm(64, 4, np.random.default_rng(0))
    files = {}
    for layout, lengths in (("equal", [200] * 100), ("interleaved", ([200] * 4 + [100] * 12) * 6)):
        seqs = [sample(model, T, seed)[1] for seed, T in enumerate(lengths)]
        files[layout] = _files(tmp_path_factory.mktemp(layout), model, seqs)
    return files


@pytest.mark.parametrize("layout", ["equal", "interleaved"])
@pytest.mark.parametrize("command", list(PEAK_BUDGETS))
def test_a_stacked_command_peaks_within_its_stated_multiple_of_the_budget(
    budget_files, tmp_path, monkeypatch, peak_in_budgets, command, layout
):
    model_path, obs_path = budget_files[layout]
    argv = [command, "--model", model_path, "--obs", obs_path]
    if command == "train":
        argv += ["--max-iters", "2", "--out", str(tmp_path / "trained.json")]
    with open(os.devnull, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        code, peak = peak_in_budgets(2 * 2**20, lambda: main(argv))
    assert code == 0
    assert peak <= PEAK_BUDGETS[command]
