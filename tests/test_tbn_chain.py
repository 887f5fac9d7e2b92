"""A 2TBN's joint chain, as every query and the sampler take it.

The chain is broadcast from the CPTs by the builder that also makes a coupled
HMM's joint transition.  Here it is compared, bit for bit, with a frozen copy
of the digit-and-index unrolling it replaced, and each 2TBN command's memory
is bounded in units of one n x n table.
"""

import math

import numpy as np
import pytest

from dbnkit import ModelValidationError, models, Tbn2Model, TbnVariable, log_likelihood, sample, save_model, unroll_tbn
from dbnkit.cli import main
from dbnkit.convert import _tbn_chain


def _reference_chain(model):
    """``(pi, trans)`` by joint-state digits: each CPT gathered through an n x n row-index array."""
    cards = model.cardinalities
    n = math.prod(cards)
    digit = np.unravel_index(np.arange(n), cards)

    pi = np.ones(n)
    for v, var in enumerate(model.variables):
        row = np.zeros(n, dtype=np.int64)
        for p in var.init_parents:
            row = row * cards[p] + digit[p]
        pi = pi * var.init_cpt[row, digit[v]]

    trans = np.ones((n, n))
    for v, var in enumerate(model.variables):
        row = np.zeros((n, n), dtype=np.int64)
        for s, p in var.trans_parents:
            vals = digit[p][:, None] if s == 0 else digit[p][None, :]
            row = row * cards[p] + vals
        trans = trans * var.trans_cpt[row, digit[v][None, :]]
    return pi, trans


def _rows(rng, rows, card):
    """``rows`` random distributions over ``card`` values, about a third of their entries zero."""
    table = rng.dirichlet(np.ones(card), size=rows) * (rng.random((rows, card)) > 0.3)
    table[np.arange(rows), rng.integers(card, size=rows)] += 0.1  # no row is all zero
    return table / table.sum(axis=1, keepdims=True)


def _random_template(rng):
    """A random 2TBN of 1-5 variables of cardinality 1-3, parents listed in random order.

    A random order of the variables is a topological order of both
    intra-slice graphs, so each variable's intra-slice parents come before it.
    """
    V = int(rng.integers(1, 6))
    cards = [int(c) for c in rng.integers(1, 4, size=V)]
    rank = rng.permutation(V)
    variables = []
    for v in range(V):
        earlier = [u for u in range(V) if rank[u] < rank[v]]
        init_parents = [u for u in earlier if rng.random() < 0.5]
        trans_parents = [(0, u) for u in range(V) if rng.random() < 0.5]
        trans_parents += [(1, u) for u in earlier if rng.random() < 0.5]
        init_parents = [init_parents[i] for i in rng.permutation(len(init_parents))]
        trans_parents = [trans_parents[i] for i in rng.permutation(len(trans_parents))]
        variables.append(
            TbnVariable(
                card=cards[v],
                init_parents=init_parents,
                init_cpt=_rows(rng, math.prod(cards[p] for p in init_parents), cards[v]),
                trans_parents=trans_parents,
                trans_cpt=_rows(rng, math.prod(cards[p] for _, p in trans_parents), cards[v]),
            )
        )
    return Tbn2Model(variables=variables)


def test_chain_matches_the_digit_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    covered = {}
    for _ in range(400):
        model = _random_template(rng)
        pi, trans = _reference_chain(model)
        chain = unroll_tbn(model)
        for got in (_tbn_chain(model), (chain.pi, chain.trans)):
            assert (got[0].tobytes(), got[1].tobytes()) == (pi.tobytes(), trans.tobytes())
        assert np.array_equal(chain.emit, np.eye(len(pi)))
        for var in model.variables:
            slice0 = [p for s, p in var.trans_parents if s == 0]
            slice1 = [p for s, p in var.trans_parents if s == 1]
            families = [list(var.init_parents), [p + len(model.variables) * s for s, p in var.trans_parents]]
            cases = {
                "out of order": any(f != sorted(f) for f in families),
                "both slices of one parent": bool(set(slice0) & set(slice1)),
                "init parent": bool(var.init_parents),
                "intra-slice trans parent": bool(slice1),
                "zero entry": not (var.init_cpt.all() and var.trans_cpt.all()),
                "cardinality 1": var.card == 1,
                "5 variables": len(model.variables) == 5,
            }
            for case, hit in cases.items():
                covered[case] = covered.get(case, False) or hit
    assert all(covered.values()), covered


def test_chain_holds_any_number_of_single_valued_variables():
    # 2 binary variables among 40 of cardinality 1: the transition's grid has
    # 84 axes, more than an array may have, but only 4 of them are not of size 1.
    rng = np.random.default_rng(5)
    cards = [1] * 20 + [2] + [1] * 20 + [2]
    variables = [
        TbnVariable(
            card=c,
            init_parents=[v - 1] if v else [],
            init_cpt=_rows(rng, cards[v - 1] if v else 1, c),
            trans_parents=[(0, v), (1, v - 1)] if v else [(0, 0)],
            trans_cpt=_rows(rng, c * (cards[v - 1] if v else 1), c),
        )
        for v, c in enumerate(cards)
    ]
    model = Tbn2Model(variables=variables)
    pi, trans = _tbn_chain(model)
    ref_pi, ref_trans = _reference_chain(model)
    assert (pi.tobytes(), trans.tobytes()) == (ref_pi.tobytes(), ref_trans.tobytes())
    assert trans.shape == (4, 4)


def _barely_normalized():
    # Each CPT row sums to 1 + 0.9e-9, within PROB_ATOL, but the joint initial
    # distribution of 4 such variables sums to 1 + 3.6e-9, outside it.
    row = [[0.5 + 0.9e-9, 0.5]]
    return Tbn2Model(
        variables=[
            TbnVariable(card=2, init_parents=[], init_cpt=row, trans_parents=[], trans_cpt=row) for _ in range(4)
        ]
    )


def test_queries_run_on_every_template_that_validates(tmp_path, capsys):
    model = _barely_normalized()
    obs = [0, 5, 15, 3]
    assert np.isfinite(log_likelihood(model, obs))
    states, symbols = sample(model, 6, 0)
    assert np.array_equal(states, symbols)
    path = tmp_path / "tbn.json"
    save_model(model, path)
    assert main(["validate", "--model", str(path)]) == 0
    assert main(["likelihood", "--model", str(path), "--obs", "0 5 15 3"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(log_likelihood(model, obs), abs=1e-9)
    assert main(["sample", "--model", str(path), "--length", "6", "--seed", "0"]) == 0
    assert capsys.readouterr().out.split() == [str(s) for s in symbols]
    # unroll_tbn returns a validated HmmModel, and this chain's pi is not normalized.
    with pytest.raises(ModelValidationError, match="^pi sums to"):
        unroll_tbn(model)


N_VARS = 10
BUDGET = 8 * 2 ** (2 * N_VARS)  # one n x n table of float64, n = 1,024


@pytest.fixture(scope="module")
def binary_template_files(tmp_path_factory):
    """A chain-structured template of 10 binary variables, and a file of 3 short observation sequences."""
    rng = np.random.default_rng(11)
    variables = [
        TbnVariable(
            card=2,
            init_parents=[v - 1] if v else [],
            init_cpt=rng.dirichlet(np.ones(2), size=2 if v else 1),
            trans_parents=[(0, v), (1, v - 1)] if v else [(0, 0)],
            trans_cpt=rng.dirichlet(np.ones(2), size=4 if v else 2),
        )
        for v in range(N_VARS)
    ]
    folder = tmp_path_factory.mktemp("tbn10")
    model_path, obs_path = folder / "tbn.json", folder / "obs.txt"
    save_model(Tbn2Model(variables=variables), model_path)
    lines = (" ".join(map(str, rng.integers(2**N_VARS, size=T))) for T in (4, 3, 4))
    obs_path.write_text("\n".join(lines) + "\n")
    return str(model_path), str(obs_path)


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["likelihood"], 1.1),
        (["filter"], 1.1),
        (["smooth"], 1.1),
        (["predict"], 1.1),
        (["decode"], 2.1),
        (["sample", "--length", "5", "--count", "2"], 1.1),
    ],
    ids=["likelihood", "filter", "smooth", "predict", "decode", "sample"],
)
def test_a_2tbn_command_holds_its_chain_once(binary_template_files, peak_in_budgets, capsys, argv, bound):
    # Each command holds one n x n transition, and decode adds its log; sample
    # accumulates its rows in place.  Building the chain makes no other n x n table.
    model_path, obs_path = binary_template_files
    args = [argv[0], "--model", model_path] + (argv[1:] if argv[0] == "sample" else ["--obs", obs_path])
    code, peak = peak_in_budgets(BUDGET, lambda: main(args))
    assert code == 0, capsys.readouterr().err
    assert peak <= bound


@pytest.mark.parametrize(
    "argv",
    [
        ["likelihood"],
        ["filter"],
        ["smooth"],
        ["predict"],
        ["predict", "--observation"],
        ["decode", "--score"],
        ["sample", "--length", "5"],
    ],
    ids=" ".join,
)
def test_a_2tbn_command_builds_no_hmm_index_array_or_identity(binary_template_files, monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(models, "validate_hmm", refuse)  # every HmmModel is validated at construction
    monkeypatch.setattr(np, "unravel_index", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    model_path, obs_path = binary_template_files
    extra = [] if argv[0] == "sample" else ["--obs", obs_path]
    assert main(argv[:1] + ["--model", model_path] + extra + argv[1:]) == 0, capsys.readouterr().err
