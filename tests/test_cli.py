import dataclasses
import io
import json

import numpy as np
import pytest

from dbnkit import HmmModel, cli, convert, inference, load_model, random_chmm, random_hmm, sampling, save_model
from dbnkit.cli import main


@pytest.fixture
def model_file(tmp_path, worked_model):
    path = tmp_path / "model.json"
    save_model(worked_model, path)
    return str(path)


@pytest.fixture
def chmm_file(tmp_path):
    path = tmp_path / "chmm.json"
    save_model(random_chmm([2, 2], [2, 2], np.random.default_rng(31)), path)
    return str(path)


def test_validate_ok(model_file, capsys):
    assert main(["validate", "--model", model_file]) == 0
    assert capsys.readouterr().out == ""


def test_validate_refuses_a_chain_table_over_the_byte_budget(tmp_path, capsys, monkeypatch):
    # chain 1's parents are chains 0 and 1 of 4 states: its table has 4**3 entries (512 bytes)
    path = tmp_path / "chmm.json"
    save_model(random_chmm([4, 4], [2, 2], np.random.default_rng(3), parents=[(0,), (0, 1)]), path)
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 511)
    assert main(["validate", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chain 1 transition table (4 x 4 x 4) needs 512 bytes, over the budget of 511\n"


def test_validate_reports_a_row_sum_past_the_float_range_in_one_line(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"type": "hmm", "num_states": 2, "num_symbols": 2, "pi": [0.5, 0.5], '
                    '"A": [[1e308, 1e308], [0.5, 0.5]], "B": [[0.5, 0.5], [0.5, 0.5]]}')
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: A row 0 sums to inf, expected 1\n"


def test_validate_bad_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "hmm", "num_states": 1, "num_symbols": 1, "pi": [0.9], "A": [[1.0]], "B": [[1.0]]}')
    assert main(["validate", "--model", str(path)]) == 2
    assert "pi sums to" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"type": "hmm", "num_states": 1, "num_symbols": 1, "pi": 5, "A": [[1.0]], "B": [[1.0]]},
            '"pi" must be an array, got 5',
        ),
        ({"type": "chmm", "chains": [3], "couplings": []}, "chain 0 must be an object, got 3"),
        (
            {
                "type": "tbn2",
                "vars": [
                    {
                        "card": "x",
                        "init_parents": [],
                        "init_cpt": [[1.0]],
                        "trans_parents": [],
                        "trans_cpt": [[1.0]],
                    }
                ],
            },
            'var 0: "card" must be an integer, got "x"',
        ),
    ],
)
def test_validate_malformed_model_names_path_and_field(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "content, command, message",
    [
        (b"\xff\xfe{}", "validate", "not UTF-8 text"),
        (b"\xff\xfe0 1", "likelihood", "not UTF-8 text"),
        (b"[" * 100_000, "validate", "JSON nested too deeply"),
    ],
)
def test_unreadable_input_file_is_data_error(tmp_path, model_file, capsys, content, command, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    if command == "validate":
        argv = ["validate", "--model", str(path)]
    else:
        argv = ["likelihood", "--model", model_file, "--obs", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_missing_file_is_data_error(capsys):
    assert main(["validate", "--model", "/nonexistent/model.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exit_code(model_file, capsys):
    assert main(["validate"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--model", "{model}", "--obs", "0 1", "--particles", "0"],
        ["filter", "--model", "{model}", "--obs", "0 1", "--particles", "-5"],
        ["sample", "--model", "{model}", "--length", "3", "--count", "0"],
        ["sample", "--model", "{model}", "--length", "3", "--count", "-1"],
        ["sample", "--model", "{model}", "--length", "0"],
        ["sample", "--model", "{model}", "--length", "3", "--seed", "-1"],
        ["predict", "--model", "{model}", "--obs", "0 1", "--horizon", "0"],
        ["train", "--model", "{model}", "--obs", "0 1", "--out", "{out}", "--max-iters", "0"],
        ["train", "--model", "{model}", "--obs", "0 1", "--out", "{out}", "--tol", "-1"],
        ["train", "--model", "{model}", "--obs", "0 1", "--out", "{out}", "--tol", "nan"],
        ["train", "--model", "{model}", "--obs", "0 1", "--out", "{out}", "--pseudocount", "-0.5"],
        ["oracle-check", "--count", "0"],
        ["train", "--model", "{model}", "--obs", "0 1", "--out", "{out}", "--pseudocount", "inf"],
    ],
)
def test_out_of_range_number_is_a_usage_error(model_file, tmp_path, capsys, argv):
    out = tmp_path / "trained.json"
    argv = [arg.format(model=model_file, out=out) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_likelihood_worked_example(model_file, capsys):
    assert main(["likelihood", "--model", model_file, "--obs", "0 1 0"]) == 0
    out = capsys.readouterr().out.strip()
    # output carries 12 significant digits, so compare at that resolution
    assert float(out) == pytest.approx(np.log(0.10893), abs=1e-11)


def test_likelihood_byte_identical(model_file, capsys):
    main(["likelihood", "--model", model_file, "--obs", "0 1 0"])
    first = capsys.readouterr().out
    main(["likelihood", "--model", model_file, "--obs", "0 1 0"])
    assert capsys.readouterr().out == first


def test_decode_prints_observation_for_identity_emissions(tmp_path, capsys):
    from dbnkit import HmmModel

    m = HmmModel(pi=[0.5, 0.5], trans=[[0.4, 0.6], [0.7, 0.3]], emit=np.eye(2))
    path = tmp_path / "ident.json"
    save_model(m, path)
    assert main(["decode", "--model", str(path), "--obs", "0 1 1 0"]) == 0
    assert capsys.readouterr().out == "0\t1\t1\t0\n"


def test_decode_score_flag(model_file, capsys):
    assert main(["decode", "--model", model_file, "--obs", "0 1 0", "--score"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0\t1\t0"
    assert float(lines[1]) == pytest.approx(np.log(0.046656), abs=1e-9)


def test_filter_table_rows_normalized(model_file, capsys):
    assert main(["filter", "--model", model_file, "--obs", "0 1 0 0"]) == 0
    rows = [list(map(float, line.split("\t"))) for line in capsys.readouterr().out.splitlines()]
    table = np.array(rows)
    assert table.shape == (4, 2)
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)


def test_filter_multiple_sequences_blank_separated(model_file, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("0 1\n1 0 0\n")
    assert main(["filter", "--model", model_file, "--obs", str(obs)]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2
    assert len(blocks[0].splitlines()) == 2
    assert len(blocks[1].splitlines()) == 3


def test_filter_with_particles(model_file, capsys):
    assert main(["filter", "--model", model_file, "--obs", "0 1 0", "--particles", "200", "--seed", "3"]) == 0
    rows = [list(map(float, line.split("\t"))) for line in capsys.readouterr().out.splitlines()]
    table = np.array(rows)
    assert table.shape == (3, 2)
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)


def test_smooth_table(model_file, capsys):
    assert main(["smooth", "--model", model_file, "--obs", "0 1 0"]) == 0
    rows = [list(map(float, line.split("\t"))) for line in capsys.readouterr().out.splitlines()]
    assert np.allclose(np.array(rows).sum(axis=1), 1.0, atol=1e-9)


def test_predict_state_and_observation(model_file, capsys):
    assert main(["predict", "--model", model_file, "--obs", "0 1 0", "--horizon", "2"]) == 0
    row = list(map(float, capsys.readouterr().out.split("\t")))
    assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert main(["predict", "--model", model_file, "--obs", "0 1 0", "--observation"]) == 0
    row = list(map(float, capsys.readouterr().out.split("\t")))
    assert sum(row) == pytest.approx(1.0, abs=1e-9)
    # A usage error, reported before any file is read.
    for model in (model_file, "/nonexistent/model.json"):
        assert main(["predict", "--model", model, "--obs", "0 1 0", "--observation", "--horizon", "2"]) == 1
        assert capsys.readouterr().err == "usage error: --observation predicts one step ahead; --horizon must be 1\n"


def test_a_degenerate_particle_ensemble_names_its_sequence(tmp_path, capsys):
    # The chain stays in state 0, which emits only symbol 0, so every particle
    # has zero weight at the first 1: step 2 of sequence 1.
    model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.txt"
    save_model(HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2)), model_path)
    obs_path.write_text("0 0 0\n0 0 1\n0 1\n")
    assert main(["filter", "--model", str(model_path), "--obs", str(obs_path), "--particles", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "1\t0\n" * 3  # sequence 0's table
    assert captured.err == "error: sequence 1: all particle weights are zero at time step 2\n"


def test_sample_writes_files(model_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.txt"
    states_path = tmp_path / "states.txt"
    code = main(
        [
            "sample", "--model", model_file, "--length", "10", "--seed", "7",
            "--count", "3", "--out", str(obs_path), "--states-out", str(states_path),
        ]
    )
    assert code == 0
    assert len(obs_path.read_text().splitlines()) == 3
    assert len(states_path.read_text().splitlines()) == 3


def test_sample_stdout_deterministic(model_file, capsys):
    main(["sample", "--model", model_file, "--length", "5", "--seed", "1"])
    first = capsys.readouterr().out
    main(["sample", "--model", model_file, "--length", "5", "--seed", "1"])
    assert capsys.readouterr().out == first
    assert len(first.split()) == 5


def test_sample_refuses_a_path_over_the_byte_budget(model_file, monkeypatch, capsys):
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 800)
    assert main(["sample", "--model", model_file, "--length", "101"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sampled path (101) needs 808 bytes, over the budget of 800\n"


def test_particle_filter_refuses_a_lifting_table_over_the_byte_budget(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.json"
    save_model(random_hmm(5, 2, np.random.default_rng(4)), path)
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 200)
    assert main(["filter", "--model", str(path), "--obs", "0 1", "--particles", "10", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: particle lifting table (5 x 8) needs 320 bytes, over the budget of 200\n"


def test_particle_filter_checks_its_arguments_and_builds_its_lifting_table_once_per_file(tmp_path, capsys, calls_to):
    model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.txt"
    save_model(random_hmm(5, 2, np.random.default_rng(4)), model_path)
    obs_path.write_text("0 1 1\n1 0\n0 0 1 1\n")
    tables = calls_to(inference, "_lifting_table")
    checks = calls_to(inference, "_check_array_bytes")
    assert main(["filter", "--model", str(model_path), "--obs", str(obs_path), "--particles", "10"]) == 0
    assert len(tables) == 1
    assert checks == [("particle ensemble", 10), ("particle lifting table", 5, 8)]
    assert capsys.readouterr().out.count("\n\n") == 2


def test_sample_refused_by_the_budget_opens_no_output_file(model_file, tmp_path, monkeypatch, capsys):
    obs_path, states_path = tmp_path / "obs.txt", tmp_path / "states.txt"
    obs_path.write_text("0 1\n")
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 800)
    args = ["--length", "101", "--out", str(obs_path), "--states-out", str(states_path)]
    assert main(["sample", "--model", model_file, *args]) == 2
    assert capsys.readouterr().out == ""
    assert obs_path.read_text() == "0 1\n"
    assert not states_path.exists()


@pytest.mark.parametrize("states_name", ["same.txt", "./same.txt", "sub/../same.txt"])
def test_sample_refuses_one_file_for_symbols_and_states(model_file, tmp_path, monkeypatch, capsys, states_name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "same.txt").write_text("0 1\n")
    args = ["--length", "5", "--count", "3", "--out", "same.txt", "--states-out", states_name]
    assert main(["sample", "--model", model_file, *args]) == 1
    assert capsys.readouterr() == ("", "usage error: --out and --states-out name the same file\n")
    assert (tmp_path / "same.txt").read_text() == "0 1\n"


def test_sample_peak_memory_does_not_grow_with_the_count(model_file, tmp_path, traced_peak):
    # Each draw is written as it is made.  Keeping the draws of --count 40
    # would add 72 paths of 8T bytes (36 draws, states and symbols), 144 KB,
    # to the peak of --count 4; the slack covers each output file's write
    # buffer and a joined chunk of pending text.
    T = 250
    out = ["--out", str(tmp_path / "obs.txt"), "--states-out", str(tmp_path / "states.txt")]
    assert main(["sample", "--model", model_file, "--length", str(T), *out]) == 0  # warm caches
    peaks = []
    for count in (4, 40):
        code, peak = traced_peak(
            lambda: main(["sample", "--model", model_file, "--length", str(T), "--count", str(count), *out])
        )
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 4 * io.DEFAULT_BUFFER_SIZE


@pytest.mark.parametrize("form", ["inline", "comma", "file"])
def test_a_symbol_too_large_for_int64_is_a_data_error(model_file, chmm_file, tmp_path, capsys, form):
    big = 2**63  # one more than the largest int64
    text = f"0,0 1,{big} 1,1" if form == "comma" else f"0 {big} 1"
    obs = text
    ctx = "--obs"
    if form == "file":
        obs = str(tmp_path / "obs.txt")
        (tmp_path / "obs.txt").write_text(f"0 1\n{text}\n")
        ctx = f"{obs}: line 2"
    model = chmm_file if form == "comma" else model_file
    assert main(["likelihood", "--model", model, "--obs", obs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ctx}: step 1: symbol {big} does not fit in 64 bits\n"


def test_pipeline_sample_train_likelihood(model_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.txt"
    trained_path = tmp_path / "trained.json"
    assert main(["sample", "--model", model_file, "--length", "50", "--seed", "2", "--count", "5", "--out", str(obs_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--model", model_file, "--obs", str(obs_path), "--out", str(trained_path), "--max-iters", "20"]) == 0
    trace = [float(x) for x in capsys.readouterr().out.split()]
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert main(["likelihood", "--model", str(trained_path), "--obs", str(obs_path)]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert len(values) == 5


def test_train_rejects_chmm(chmm_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["train", "--model", chmm_file, "--obs", "0,1 1,0", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: train expects an hmm initial model, got ChmmModel; use train-chmm for coupled models\n"
    )
    assert not out.exists()


def test_train_chmm_rejects_hmm(model_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["train-chmm", "--model", model_file, "--obs", "0 1 0", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: train-chmm expects a chmm initial model, got HmmModel\n")
    assert not out.exists()


def test_train_chmm_pipeline(chmm_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.txt"
    trained_path = tmp_path / "trained.json"
    assert main(["sample", "--model", chmm_file, "--length", "20", "--seed", "3", "--count", "4", "--out", str(obs_path)]) == 0
    capsys.readouterr()
    assert main(["train-chmm", "--model", chmm_file, "--obs", str(obs_path), "--out", str(trained_path), "--max-iters", "10"]) == 0
    trace = [float(x) for x in capsys.readouterr().out.split()]
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    loaded = load_model(trained_path)
    assert loaded.num_chains == 2


def test_chmm_likelihood_and_tables(chmm_file, capsys):
    assert main(["likelihood", "--model", chmm_file, "--obs", "0,1 1,1 0,0"]) == 0
    ll = float(capsys.readouterr().out)
    assert ll < 0
    assert main(["filter", "--model", chmm_file, "--obs", "0,1 1,1 0,0"]) == 0
    rows = [list(map(float, line.split("\t"))) for line in capsys.readouterr().out.splitlines()]
    assert np.array(rows).shape == (3, 4)
    assert main(["decode", "--model", chmm_file, "--obs", "0,1 1,1 0,0"]) == 0
    path = [int(x) for x in capsys.readouterr().out.split("\t")]
    assert len(path) == 3 and all(0 <= s < 4 for s in path)


@pytest.fixture
def tbn_file(tmp_path):
    doc = {
        "type": "tbn2",
        "vars": [
            {
                "card": 2,
                "init_parents": [],
                "init_cpt": [[0.5, 0.5]],
                "trans_parents": [{"slice": 0, "var": 0}],
                "trans_cpt": [[0.9, 0.1], [0.2, 0.8]],
            }
        ],
    }
    path = tmp_path / "tbn.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_tbn2_commands(tbn_file, tmp_path, capsys):
    assert main(["validate", "--model", tbn_file]) == 0
    assert main(["likelihood", "--model", tbn_file, "--obs", "0 0 1"]) == 0
    ll = float(capsys.readouterr().out)
    assert ll == pytest.approx(np.log(0.5 * 0.9 * 0.1), abs=1e-9)
    obs_path = tmp_path / "obs.txt"
    assert main(["sample", "--model", tbn_file, "--length", "8", "--seed", "1", "--out", str(obs_path)]) == 0
    assert main(["likelihood", "--model", tbn_file, "--obs", str(obs_path)]) == 0


@pytest.mark.parametrize("command", ["likelihood", "smooth", "filter", "predict"])
def test_tbn2_unrolled_once_per_command(tbn_file, tmp_path, capsys, calls_to, command):
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text("0 0 1\n1 1\n0 1 1 0\n")
    calls = calls_to(convert, "_tbn_chain")
    assert main([command, "--model", tbn_file, "--obs", str(obs_path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("\n\n") == (2 if command in ("smooth", "filter") else 0)


@pytest.mark.parametrize(
    "argv",
    [["likelihood"], ["filter"], ["smooth"], ["predict"], ["decode"], ["filter", "--particles", "100"]],
    ids=["likelihood", "filter", "smooth", "predict", "decode", "particles"],
)
@pytest.mark.parametrize("kind", ["tbn2", "chmm"])
def test_every_query_builds_the_joint_chain_once(tbn_file, chmm_file, tmp_path, capsys, calls_to, kind, argv):
    # Three sequences of two lengths make two stacks; the route builds the chain once for all of them.
    obs_path = tmp_path / "obs.txt"
    if kind == "tbn2":
        model, builder = tbn_file, "_tbn_chain"
        obs_path.write_text("0 0 1\n1 1\n0 1 1\n")
    else:
        model, builder = chmm_file, "_joint_transition"
        obs_path.write_text("0,1 1,1 0,0\n1,0 0,0\n1,1 0,1 1,0\n")
    calls = calls_to(convert, builder)
    assert main([argv[0], "--model", model, "--obs", str(obs_path)] + argv[1:]) == 0, capsys.readouterr().err
    assert len(calls) == 1


def test_tbn2_unrolled_once_per_sample_command(tbn_file, capsys, calls_to):
    calls = calls_to(sampling, "_tbn_chain")
    assert main(["sample", "--model", tbn_file, "--length", "6", "--count", "3", "--seed", "4"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("\n") == 3


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--count", "8", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_oracle_check_fails_a_nan_deviation(monkeypatch, capsys):
    forward = inference.forward
    monkeypatch.setattr(inference, "forward", lambda *args: dataclasses.replace(forward(*args), log_likelihood=np.nan))
    assert main(["oracle-check", "--count", "5"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split(":")[0] for line in lines if line.endswith(" FAIL")]
    assert failed == ["hmm likelihood vs enumeration", "backward likelihood reconstruction"]
    assert "max deviation nan" in lines[0]
    assert lines[-1] == "checks FAILED"


def test_obs_file_and_inline_agree(model_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text("0 1 0\n")
    main(["likelihood", "--model", model_file, "--obs", str(obs_path)])
    from_file = capsys.readouterr().out
    main(["likelihood", "--model", model_file, "--obs", "0 1 0"])
    assert capsys.readouterr().out == from_file


def test_consecutive_calls_share_the_parser_but_not_its_arguments(model_file, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["filter", "--model", model_file, "--obs", "0 1 0"]) == 0
    exact = capsys.readouterr().out
    assert main(["filter", "--model", model_file, "--obs", "0 1 0", "--particles", "5"]) == 0
    assert capsys.readouterr().out != exact
    assert main(["filter", "--model", model_file, "--obs", "0 1 0"]) == 0
    assert capsys.readouterr().out == exact
    assert main(["filter", "--model", model_file, "--obs", "0 1 0", "--particles", "0"]) == 1
    assert capsys.readouterr().err.startswith("usage error: argument --particles")
    assert main(["filter", "--model", model_file]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("command", ["likelihood", "filter", "smooth", "decode", "predict", "train"])
def test_a_bad_symbol_error_names_its_sequence(model_file, tmp_path, capsys, command):
    obs = tmp_path / "obs.txt"
    obs.write_text("0 1\n1 0 0\n0 1 7 0\n1 1\n")
    argv = [command, "--model", model_file, "--obs", str(obs)]
    if command == "train":
        argv += ["--out", str(tmp_path / "trained.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sequence 2: symbol 7 at step 2 outside valid range 0..1\n"
