"""Every public query takes any model type, on the joint chain of :func:`dbnkit.convert._joint_view`.

A 2TBN must answer exactly as its unrolled chain does, and a coupled HMM as
its flattened HMM does on joint symbols, to 1e-12 (the flattened model is
built by a separate route, so only its Viterbi paths must match exactly).
"""

import math
import re

import numpy as np
import pytest

from dbnkit import (
    ChmmModel,
    DegenerateWeightsError,
    HmmModel,
    ImpossibleObservationError,
    Tbn2Model,
    TbnVariable,
    backward,
    filter,
    flatten_chmm,
    flatten_obs,
    forward,
    hmm_to_chmm,
    log_likelihood,
    particle_filter,
    predict_obs,
    predict_state,
    random_chmm,
    sample,
    save_model,
    smooth,
    unroll_tbn,
    viterbi,
)
from dbnkit.cli import main

def _fields(result, *names):
    return tuple(getattr(result, name) for name in names)


QUERIES = {
    "forward": lambda m, o: _fields(forward(m, o), "scaled_alpha", "scale_factors", "log_likelihood"),
    "backward": lambda m, o: backward(m, o, forward(m, o).scale_factors).scaled_beta,
    "log_likelihood": log_likelihood,
    "filter": filter,
    "smooth": lambda m, o: smooth(m, o).gamma,
    "smooth.xi": lambda m, o: smooth(m, o).xi,
    "predict_state": lambda m, o: predict_state(m, o, 2),
    "predict_obs": predict_obs,
    "particle_filter": lambda m, o: _fields(
        particle_filter(m, o, 200, 3), "estimates", "ess", "resampled", "final_particles", "final_weights"
    ),
    "viterbi": lambda m, o: _fields(viterbi(m, o), "path", "log_joint_score"),
}


def _parts(result):
    return [np.asarray(part) for part in (result if isinstance(result, tuple) else (result,))]


def _template():
    """Three variables of 2, 3 and 2 values, with intra-slice parents in both networks."""
    rng = np.random.default_rng(61)
    cards = (2, 3, 2)
    init_parents = ((), (0,), (1, 0))
    trans_parents = (((0, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 2), (1, 0)))
    return Tbn2Model(
        variables=[
            TbnVariable(
                card=card,
                init_parents=init_parents[v],
                init_cpt=rng.dirichlet(np.ones(card), size=math.prod(cards[p] for p in init_parents[v])),
                trans_parents=trans_parents[v],
                trans_cpt=rng.dirichlet(np.ones(card), size=math.prod(cards[p] for _, p in trans_parents[v])),
            )
            for v, card in enumerate(cards)
        ]
    )


@pytest.mark.parametrize("query", QUERIES)
def test_a_2tbn_query_is_its_unrolled_chain_query_bit_for_bit(query):
    tbn = _template()
    chain = unroll_tbn(tbn)
    for seed in range(3):
        obs = sample(chain, 12, seed)[1]
        got, expected = _parts(QUERIES[query](tbn, obs)), _parts(QUERIES[query](chain, obs))
        for a, b in zip(got, expected, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), query


@pytest.mark.parametrize("query", QUERIES)
def test_a_chmm_query_matches_the_flattened_hmm_query(query):
    model = random_chmm([2, 3, 2], [2, 2, 3], np.random.default_rng(62))
    flat = flatten_chmm(model)
    for seed in range(3):
        obs = sample(model, 12, seed)[1]
        got, expected = _parts(QUERIES[query](model, obs)), _parts(QUERIES[query](flat, flatten_obs(model, obs)))
        for a, b in zip(got, expected, strict=True):
            assert a.shape == b.shape, query
            if query == "viterbi" and a.dtype.kind == "i":
                assert np.array_equal(a, b)
            else:
                assert np.abs(a.astype(np.float64) - b.astype(np.float64)).max() <= 1e-12, query


def test_chmm_predict_observation_rows_are_unchanged(tmp_path, capsys):
    # The joint symbol distributions of a hand-written coupled model, printed before every
    # query took the library's joint view; they equal the library's predict_obs on the model.
    model = ChmmModel(
        initials=[[0.6, 0.4], [0.2, 0.5, 0.3]],
        emissions=[[[0.7, 0.3], [0.1, 0.9]], [[0.5, 0.25, 0.25], [0.2, 0.2, 0.6], [0.3, 0.6, 0.1]]],
        couplings={
            (0, 0): [[0.8, 0.2], [0.3, 0.7]],
            (1, 0): [[0.5, 0.5], [0.9, 0.1], [0.4, 0.6]],
            (0, 1): [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]],
            (1, 1): [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]],
        },
    )
    sequences = [[(0, 2), (1, 0), (1, 1)], [(1, 1)], [(0, 0), (0, 1)]]
    model_path, obs_path = tmp_path / "chmm.json", tmp_path / "obs.txt"
    save_model(model, model_path)
    obs_path.write_text("0,2 1,0 1,1\n1,1\n0,0 0,1\n")
    assert main(["predict", "--model", str(model_path), "--obs", str(obs_path), "--observation"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "0.156023481795\t0.126315687529\t0.166197934379\t0.194954847611\t0.183670927653\t0.172837121033\n"
        "0.133151161733\t0.13203636564\t0.160285149972\t0.18413395226\t0.214991383876\t0.17540198652\n"
        "0.220642171694\t0.148852707738\t0.225991600772\t0.155993594472\t0.105789953462\t0.142729971862\n"
    )
    assert out == "".join("\t".join(format(v, ".12g") for v in predict_obs(model, obs)) + "\n" for obs in sequences)


@pytest.mark.parametrize("kind", ["hmm", "chmm", "tbn2"])
@pytest.mark.parametrize(
    "query", ["forward", "filter", "log_likelihood", "smooth", "predict_state", "predict_obs", "viterbi", "particle_filter"]
)
def test_a_one_sequence_query_raises_the_one_sequence_message(query, kind):
    # Each query runs the CLI's route on a list of one sequence, whose errors name
    # the sequence; the query's own message names none.  Every model stays in
    # state 0, where symbol 1 is impossible, so step 2 has zero mass.
    hmm = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
    model, obs = {
        "hmm": (hmm, [0, 0, 1, 0]),
        "chmm": (hmm_to_chmm(hmm), [[0], [0], [1], [0]]),
        "tbn2": (
            Tbn2Model(variables=[TbnVariable(card=2, init_parents=(), init_cpt=[[1.0, 0.0]],
                                             trans_parents=((0, 0),), trans_cpt=np.eye(2))]),
            [0, 0, 1, 0],
        ),
    }[kind]
    if query == "particle_filter":
        error, message = DegenerateWeightsError, "all particle weights are zero at time step 2"
    else:
        error, message = ImpossibleObservationError, "observation at time step 2 is impossible under the model"
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        QUERIES[query](model, obs)
    assert exc.value.t == 2
