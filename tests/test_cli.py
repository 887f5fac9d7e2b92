import json

import numpy as np
import pytest

from dbnkit import cli, load_model, random_chmm, save_model, unroll_tbn
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
    assert main(["predict", "--model", model_file, "--obs", "0 1 0", "--observation", "--horizon", "2"]) == 1


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
    assert "train-chmm" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["likelihood", "smooth", "filter"])
def test_tbn2_unrolled_once_per_command(tbn_file, tmp_path, monkeypatch, capsys, command):
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text("0 0 1\n1 1\n0 1 1 0\n")
    calls = []

    def counting_unroll(model):
        calls.append(model)
        return unroll_tbn(model)

    monkeypatch.setattr(cli, "unroll_tbn", counting_unroll)
    assert main([command, "--model", tbn_file, "--obs", str(obs_path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("\n\n") == (0 if command == "likelihood" else 2)


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--count", "8", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_obs_file_and_inline_agree(model_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text("0 1 0\n")
    main(["likelihood", "--model", model_file, "--obs", str(obs_path)])
    from_file = capsys.readouterr().out
    main(["likelihood", "--model", model_file, "--obs", "0 1 0"])
    assert capsys.readouterr().out == from_file
