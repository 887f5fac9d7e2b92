"""The CLI's table writer prints exactly what ``format(float(v), ".12g")`` prints.

``cli._write_table`` formats most values in numpy and sends the rest to
``format``; these tests compare it with the per-value loop on every class of
value where the fast path could go wrong, and compare whole CLI commands
against the per-value loop the writer replaced.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dbnkit import ChmmModel, HmmModel, cli, save_model
from dbnkit.cli import main


def _reference(table):
    return "".join("\t".join(format(float(v), ".12g") for v in row) + "\n" for row in table)


def _written(table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_table(table)
    return out.getvalue()


def _assert_same_text(table):
    got, want = _written(table), _reference(table)
    if got == want:
        return
    # Name the first differing value instead of diffing megabytes of text.
    for row, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
        for col, (gv, wv) in enumerate(zip(g.split("\t"), w.split("\t"))):
            if gv != wv:
                pytest.fail(f"row {row} col {col}: {float(table[row, col])!r} written {gv!r}, expected {wv!r}")
    pytest.fail(f"texts differ in length: {len(got)} written, {len(want)} expected")


def _neighbours(values, ulps):
    """Each value and the floats up to ``ulps`` steps either side of it."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _edge_values(rng):
    powers = [float(f"1e{k}") for k in range(-323, 309)] + [10.0**k for k in range(-300, 300)]
    # 12 nines then 5 at every exponent: the rounding boundary where a value
    # carries into the next power of ten.
    carries = [9.9999999999995e-05, 0.99999999999995, 9.99999999999951]
    carries += [float(f"9.999999999995e{k}") for k in range(-300, 301)]
    # Decimal ties at the 13th significant digit, the nearest floats to them,
    # and exact ties: integers ending in 5 past the 12th digit, and dyadic
    # fractions.
    mantissas = rng.integers(10**11, 10**12, size=100_000)
    exponents = rng.integers(-300, 300, size=mantissas.size)
    halfway = [float(f"{m}5e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    exact_ties = [float((10 * m + 5) * 10**j) for m in mantissas[:2000].tolist() for j in range(4)]
    dyadic = (2 * rng.integers(0, 2**20, size=20_000) + 1) / 2.0 ** rng.integers(1, 60, size=20_000)
    boundaries = [1e-280, 1e280, 1e12, 1e-4, 1e-5, 10.0, 1.0, 9.999999999995e-281, 9.999999999995e279]
    return np.concatenate(
        [
            _neighbours(powers, 3),
            _neighbours(carries, 20),
            _neighbours(halfway, 2),
            _neighbours(exact_ties, 1),
            dyadic,
            _neighbours(boundaries, 50),
            10.0 ** rng.uniform(1, 12, size=100_000),  # [10, 1e12): always formatted by format()
            10.0 ** rng.uniform(-300, -270, size=20_000),
            10.0 ** rng.uniform(270, 300, size=20_000),
            rng.random(20_000) * 2.0**-1022,  # subnormals
            rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),  # any bit pattern
            rng.random(100_000),
            np.where(rng.random(20_000) < 0.5, 0.0, 1.0),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max, np.finfo(float).tiny],
        ]
    )


def test_writer_matches_format_over_a_million_edge_values():
    values = _edge_values(np.random.default_rng(2026))
    assert values.size >= 10**6
    rng = np.random.default_rng(7)
    values = values[rng.permutation(values.size)]
    cols = 7
    _assert_same_text(values[: values.size // cols * cols].reshape(-1, cols))
    # the same classes in one row, one column, and a wide table of many blocks
    sample = values[:30_000]
    _assert_same_text(sample[:5000][None, :])
    _assert_same_text(sample[:5000, None])
    _assert_same_text(sample[: 117 * 256].reshape(117, 256))


def test_writer_matches_format_on_probability_tables():
    rng = np.random.default_rng(11)
    table = rng.dirichlet(np.full(256, 0.05), size=300)  # many values below 1e-5
    table[::7, ::3] = 0.0
    table[5::11] = np.eye(256)[rng.integers(0, 256, size=table[5::11].shape[0])]
    _assert_same_text(table)
    _assert_same_text(np.zeros((3000, 2)))
    _assert_same_text(np.empty((0, 4)))


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_writer_matches_format_on_any_float64_table(table):
    assert _written(table) == _reference(table)


def test_lookup_tables_are_built_on_first_use():
    # Built at import they would cost memory in every command, printing a table or not.
    assert not [name for name, value in vars(cli).items() if isinstance(value, np.ndarray)]
    cli._format_tables.cache_clear()
    assert _written(np.array([[0.5, 1e-5]])) == "0.5\t1e-05\n"
    assert cli._format_tables.cache_info().currsize == 1


# The per-value loop the table writer replaced: the reference for CLI bytes.
def _loop_print_row(values):
    print("\t".join(format(float(v), ".12g") for v in values))


def _loop_print_tables(tables):
    for i, table in enumerate(tables):
        if i:
            print()
        for row in np.asarray(table):
            _loop_print_row(row)


@pytest.fixture
def edge_hmm_file(tmp_path):
    """Posteriors with exact 0s and 1s, and values near 1e-300."""
    # State 2 keeps about 1e-300 of the mass; symbol 2 is emitted only by state 0.
    model = HmmModel(
        pi=[0.5, 0.5, 1e-300],
        trans=[[0.6, 0.4, 1e-300], [0.3, 0.7, 0.0], [1e-300, 0.0, 1.0]],
        emit=[[0.3, 0.3, 0.4], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
    )
    path = tmp_path / "edge_hmm.json"
    save_model(model, path)
    return str(path)


@pytest.fixture
def edge_chmm_file(tmp_path):
    model = ChmmModel(
        initials=[[1.0, 0.0], [0.5, 0.5]],
        emissions=[[[1.0, 0.0], [1e-300, 1.0]], [[0.9, 0.1], [0.2, 0.8]]],
        couplings={
            (0, 0): [[0.5, 0.5], [0.0, 1.0]],
            (1, 1): [[0.7, 0.3], [0.4, 0.6]],
            (0, 1): [[1.0, 1e-300], [0.5, 0.5]],
        },
    )
    path = tmp_path / "edge_chmm.json"
    save_model(model, path)
    return str(path)


@pytest.fixture
def edge_obs_file(tmp_path):
    rng = np.random.default_rng(5)
    long = " ".join(map(str, rng.integers(0, 3, size=3000)))  # more rows than one block
    path = tmp_path / "obs.txt"
    path.write_text(f"0 0 1 2 0\n1 2 2 1\n{long}\n0\n")
    return str(path)


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth"],
        ["filter"],
        ["filter", "--particles", "50", "--seed", "2"],
        ["predict"],
        ["predict", "--horizon", "3"],
        ["predict", "--observation"],
    ],
)
def test_hmm_tables_match_the_per_value_loop(argv, edge_hmm_file, edge_obs_file, monkeypatch, capsys):
    argv = argv + ["--model", edge_hmm_file, "--obs", edge_obs_file]
    written = _stdout(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_print_tables", _loop_print_tables)
        patch.setattr(cli, "_print_row", _loop_print_row)
        expected = _stdout(argv, capsys)
    assert written == expected


def test_edge_model_prints_zeros_ones_and_tiny_values(edge_hmm_file, edge_obs_file, capsys):
    values = set(_stdout(["smooth", "--model", edge_hmm_file, "--obs", edge_obs_file], capsys).split())
    assert {"0", "1"} <= values
    assert any("e-30" in v for v in values)


def test_chmm_smooth_matches_the_per_value_loop(edge_chmm_file, monkeypatch, capsys):
    argv = ["smooth", "--model", edge_chmm_file, "--obs", "0,0 1,1 1,0 0,1"]
    written = _stdout(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_print_tables", _loop_print_tables)
        expected = _stdout(argv, capsys)
    assert written == expected
    assert {"0", "1"} <= set(written.split())
