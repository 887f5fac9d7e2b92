import re

import numpy as np
import pytest

from dbnkit import (
    ChmmModel,
    ModelFormatError,
    ModelValidationError,
    Tbn2Model,
    TbnVariable,
    format_obs,
    load_model,
    load_observations,
    parse_obs_line,
    random_chmm,
    random_hmm,
    save_model,
    save_observations,
)


def test_hmm_round_trip(tmp_path, worked_model):
    path = tmp_path / "m.json"
    save_model(worked_model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.pi, worked_model.pi)
    assert np.array_equal(loaded.trans, worked_model.trans)
    assert np.array_equal(loaded.emit, worked_model.emit)


def test_chmm_round_trip(tmp_path):
    m = random_chmm([2, 3], [2, 2], np.random.default_rng(5))
    path = tmp_path / "c.json"
    save_model(m, path)
    loaded = load_model(path)
    assert isinstance(loaded, ChmmModel)
    assert loaded.states_per_chain == m.states_per_chain
    assert set(loaded.couplings) == set(m.couplings)
    for key in m.couplings:
        assert np.array_equal(loaded.couplings[key], m.couplings[key])
    for l in range(m.num_chains):
        assert np.array_equal(loaded.initials[l], m.initials[l])
        assert np.array_equal(loaded.emissions[l], m.emissions[l])


def test_tbn2_round_trip(tmp_path):
    var_a = TbnVariable(
        card=2,
        init_parents=(),
        init_cpt=[[0.5, 0.5]],
        trans_parents=((0, 0),),
        trans_cpt=[[0.9, 0.1], [0.3, 0.7]],
    )
    var_b = TbnVariable(
        card=2,
        init_parents=(0,),
        init_cpt=[[0.8, 0.2], [0.3, 0.7]],
        trans_parents=((0, 1), (1, 0)),
        trans_cpt=[[0.6, 0.4], [0.5, 0.5], [0.2, 0.8], [0.1, 0.9]],
    )
    m = Tbn2Model(variables=[var_a, var_b])
    path = tmp_path / "t.json"
    save_model(m, path)
    loaded = load_model(path)
    assert isinstance(loaded, Tbn2Model)
    assert loaded.cardinalities == (2, 2)
    for orig, back in zip(m.variables, loaded.variables):
        assert back.init_parents == orig.init_parents
        assert back.trans_parents == orig.trans_parents
        assert np.array_equal(back.init_cpt, orig.init_cpt)
        assert np.array_equal(back.trans_cpt, orig.trans_cpt)


def test_missing_field_names_it(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "hmm", "num_states": 1, "num_symbols": 1, "A": [[1.0]], "B": [[1.0]]}')
    with pytest.raises(ModelFormatError, match='"pi"'):
        load_model(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "hmm",\n  "pi": [0.5, ]}')
    with pytest.raises(ModelFormatError, match="line 2"):
        load_model(path)


def test_unknown_type_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "kalman"}')
    with pytest.raises(ModelFormatError, match="unknown model type"):
        load_model(path)


def test_declared_size_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"type": "hmm", "num_states": 3, "num_symbols": 1,'
        ' "pi": [1.0], "A": [[1.0]], "B": [[1.0]]}'
    )
    with pytest.raises(ModelFormatError, match='"num_states" is 3'):
        load_model(path)


def test_validation_failure_after_load(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"type": "hmm", "num_states": 2, "num_symbols": 2,'
        ' "pi": [0.5, 0.5], "A": [[0.9, 0.2], [0.5, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]]}'
    )
    with pytest.raises(ModelValidationError, match="A row 0"):
        load_model(path)


def test_hand_written_fixture_loads(tmp_path):
    path = tmp_path / "two-state.json"
    path.write_text(
        """
{
  "type": "hmm",
  "num_states": 2,
  "num_symbols": 2,
  "pi": [0.6, 0.4],
  "A": [[0.7, 0.3], [0.4, 0.6]],
  "B": [[0.9, 0.1], [0.2, 0.8]]
}
"""
    )
    m = load_model(path)
    assert m.num_states == 2
    assert m.trans[1, 0] == 0.4


def test_duplicate_coupling_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"type": "chmm", "chains": [{"states": 1, "symbols": 1, "pi": [1.0], "emit": [[1.0]]}],'
        ' "couplings": [{"from": 0, "to": 0, "matrix": [[1.0]]},'
        ' {"from": 0, "to": 0, "matrix": [[1.0]]}]}'
    )
    with pytest.raises(ModelFormatError, match="duplicate coupling"):
        load_model(path)


def test_round_trip_preserves_float_precision(tmp_path):
    m = random_hmm(3, 4, np.random.default_rng(77))
    path = tmp_path / "m.json"
    save_model(m, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.trans, m.trans)
    assert np.array_equal(loaded.emit, m.emit)


def test_observation_round_trip(tmp_path):
    seqs = [np.array([0, 1, 2]), np.array([[0, 1], [1, 1], [0, 0]])]
    path = tmp_path / "obs.txt"
    save_observations(seqs, path)
    assert path.read_text() == "0 1 2\n0,1 1,1 0,0\n"
    loaded = load_observations(path)
    assert np.array_equal(loaded[0], seqs[0])
    assert np.array_equal(loaded[1], seqs[1])


def test_parse_rejects_non_integer():
    # Python's int() accepts a sign, "_" separators and non-ASCII digits (U+0663 is Arabic-Indic 3).
    for token in ["x", "1.5", "+1", "1_0", "\u0663", "0x1", "--1"]:
        with pytest.raises(ModelFormatError, match=re.escape(f"step 1: {token!r} is not an integer symbol")):
            parse_obs_line(f"0 {token} 1")


def test_parse_rejects_negative_as_missing():
    with pytest.raises(ModelFormatError, match="missing observations are not supported"):
        parse_obs_line("0 -1 1")


def test_parse_rejects_inconsistent_arity():
    with pytest.raises(ModelFormatError, match="step 1 has 1 chain symbols, expected 2"):
        parse_obs_line("0,1 1 0,0")


def test_parse_rejects_empty_chain_entry():
    with pytest.raises(ModelFormatError, match="not an integer"):
        parse_obs_line("0,1 1, 0,0")


def test_load_observations_reports_line(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("0 1\n0 oops\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        load_observations(path)


def test_load_observations_skips_blank_lines(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("0 1\n\n1 0\n")
    assert len(load_observations(path)) == 2


def test_empty_observation_file_rejected(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("\n")
    with pytest.raises(ModelFormatError, match="no observation sequences"):
        load_observations(path)


def _load_text(path, text):
    path.write_text(text)
    return load_model(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda path: _load_text(
                path,
                '{"type": "hmm", "num_states": 2, "num_symbols": 3, "pi": [0.5, 0.5],'
                ' "A": [[0.5, 0.5], [0.5, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]]}',
            ),
            ModelFormatError,
            '^.*m.json: "num_symbols" is 3 but "B" rows have length 2$',
        ),
        (lambda path: save_model(object(), path), TypeError, "^cannot save model type object$"),
        (lambda path: format_obs(np.zeros((1, 1, 1), dtype=int)), ValueError,
         r"^cannot format observation array of shape \(1, 1, 1\)$"),
    ],
    ids=["symbols-vs-B", "save-unknown-model", "format-3-d"],
)
def test_io_refuses_a_symbol_count_unlike_B_an_unknown_model_and_a_3_d_sequence(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path / "m.json")
