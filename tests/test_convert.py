import numpy as np
import pytest

from dbnkit import (
    SizeCapError,
    Tbn2Model,
    TbnVariable,
    chmm_likelihood,
    flatten_chmm,
    flatten_obs,
    hmm_to_chmm,
    log_likelihood,
    random_chmm,
    random_hmm,
    unroll_tbn,
)
from dbnkit.oracle import enum_likelihood


def test_flatten_single_chain_is_identity(worked_model):
    flat = flatten_chmm(hmm_to_chmm(worked_model))
    assert np.array_equal(flat.pi, worked_model.pi)
    assert np.array_equal(flat.trans, worked_model.trans)
    assert np.array_equal(flat.emit, worked_model.emit)


def test_flatten_uncoupled_chains_is_tensor_product():
    rng = np.random.default_rng(3)
    a = rng.dirichlet(np.ones(2), size=2)
    b = rng.dirichlet(np.ones(3), size=3)
    ea = rng.dirichlet(np.ones(2), size=2)
    eb = rng.dirichlet(np.ones(2), size=3)
    pia = rng.dirichlet(np.ones(2))
    pib = rng.dirichlet(np.ones(3))
    from dbnkit import ChmmModel

    m = ChmmModel(
        initials=[pia, pib],
        emissions=[ea, eb],
        couplings={(0, 0): a, (1, 1): b},
    )
    flat = flatten_chmm(m)
    assert np.allclose(flat.trans, np.kron(a, b), atol=1e-15)
    assert np.allclose(flat.emit, np.kron(ea, eb), atol=1e-15)
    assert np.allclose(flat.pi, np.kron(pia, pib), atol=1e-15)


def test_flatten_likelihood_matches_direct_recursion():
    rng = np.random.default_rng(14)
    m = random_chmm([2, 2], [2, 2], rng)
    obs = np.stack([rng.integers(0, 2, size=5), rng.integers(0, 2, size=5)], axis=1)
    direct = chmm_likelihood(m, obs)
    flat = log_likelihood(flatten_chmm(m), flatten_obs(m, obs))
    assert direct == pytest.approx(flat, abs=1e-12)


def test_flatten_size_cap(monkeypatch):
    # 4 chains of 31 states: the 923,521 x 923,521 joint transition would take 6.8 TB
    m = random_chmm([31] * 4, [2] * 4, np.random.default_rng(1))
    with pytest.raises(SizeCapError, match="joint transition"):
        flatten_chmm(m)
    # n = 4 joint states and m = 900 joint symbols: the emission is the larger array
    small = random_chmm([2, 2], [30, 30], np.random.default_rng(2))
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 8 * 4 * 900 - 1)
    with pytest.raises(SizeCapError, match=r"joint emission \(4 x 900\) needs 28800 bytes"):
        flatten_chmm(small)
    monkeypatch.setattr("dbnkit.models.MAX_ARRAY_BYTES", 8 * 4 * 900)
    assert flatten_chmm(small).emit.shape == (4, 900)


def test_flatten_obs_row_major_indexing():
    rng = np.random.default_rng(9)
    m = random_chmm([2, 2], [3, 4], rng)
    joint = flatten_obs(m, [[1, 2], [0, 3], [2, 0]])
    assert joint.tolist() == [1 * 4 + 2, 0 * 4 + 3, 2 * 4 + 0]


def _independent_pair():
    # two binary variables, each depending only on its own previous value
    cpt_a = np.array([[0.9, 0.1], [0.3, 0.7]])
    cpt_b = np.array([[0.6, 0.4], [0.2, 0.8]])
    va = TbnVariable(
        card=2, init_parents=(), init_cpt=[[0.5, 0.5]], trans_parents=((0, 0),), trans_cpt=cpt_a
    )
    vb = TbnVariable(
        card=2, init_parents=(), init_cpt=[[0.25, 0.75]], trans_parents=((0, 1),), trans_cpt=cpt_b
    )
    return Tbn2Model(variables=[va, vb]), cpt_a, cpt_b


def test_unroll_single_variable_identity():
    cpt = np.array([[0.85, 0.15], [0.4, 0.6]])
    var = TbnVariable(
        card=2, init_parents=(), init_cpt=[[0.7, 0.3]], trans_parents=((0, 0),), trans_cpt=cpt
    )
    chain = unroll_tbn(Tbn2Model(variables=[var]))
    assert chain.num_states == 2
    assert np.allclose(chain.trans, cpt, atol=1e-15)
    assert np.allclose(chain.pi, [0.7, 0.3], atol=1e-15)
    assert np.array_equal(chain.emit, np.eye(2))


def test_unroll_independent_variables_product_transitions():
    model, cpt_a, cpt_b = _independent_pair()
    chain = unroll_tbn(model)
    assert chain.num_states == 4
    assert np.allclose(chain.trans, np.kron(cpt_a, cpt_b), atol=1e-15)
    assert np.allclose(chain.pi, np.kron([0.5, 0.5], [0.25, 0.75]), atol=1e-15)


def _coupled_pair():
    # variable 0 depends on its own past; variable 1 depends on its own past
    # and on variable 0's current value (intra-slice edge 0 -> 1)
    cpt_a = np.array([[0.9, 0.1], [0.3, 0.7]])
    cpt_b = np.array(
        [
            [0.6, 0.4],  # b_prev=0, a_now=0
            [0.5, 0.5],  # b_prev=0, a_now=1
            [0.2, 0.8],  # b_prev=1, a_now=0
            [0.1, 0.9],  # b_prev=1, a_now=1
        ]
    )
    va = TbnVariable(
        card=2, init_parents=(), init_cpt=[[0.5, 0.5]], trans_parents=((0, 0),), trans_cpt=cpt_a
    )
    vb = TbnVariable(
        card=2,
        init_parents=(0,),
        init_cpt=[[0.8, 0.2], [0.3, 0.7]],
        trans_parents=((0, 1), (1, 0)),
        trans_cpt=cpt_b,
    )
    return Tbn2Model(variables=[va, vb]), cpt_a, cpt_b


def test_unroll_coupled_variables_matches_hand_computation():
    model, cpt_a, cpt_b = _coupled_pair()
    chain = unroll_tbn(model)
    for a0 in range(2):
        for b0 in range(2):
            for a1 in range(2):
                for b1 in range(2):
                    src = a0 * 2 + b0
                    dst = a1 * 2 + b1
                    expected = cpt_a[a0, a1] * cpt_b[b0 * 2 + a1, b1]
                    assert chain.trans[src, dst] == pytest.approx(expected, abs=1e-15)
    # initial: P(a0) * P(b0 | a0)
    init_b = np.array([[0.8, 0.2], [0.3, 0.7]])
    for a0 in range(2):
        for b0 in range(2):
            assert chain.pi[a0 * 2 + b0] == pytest.approx(0.5 * init_b[a0, b0], abs=1e-15)


def test_unroll_coupled_likelihood_matches_oracle():
    model, _, _ = _coupled_pair()
    chain = unroll_tbn(model)
    rng = np.random.default_rng(4)
    obs = rng.integers(0, 4, size=6)
    assert np.exp(log_likelihood(chain, obs)) == pytest.approx(
        enum_likelihood(chain, obs), abs=1e-12
    )


def test_unroll_size_cap():
    # 19 binary variables: 2**19 joint assignments, so the n x n transition would take 2.2 TB
    model = Tbn2Model(
        variables=[
            TbnVariable(
                card=2,
                init_parents=(),
                init_cpt=[[0.5, 0.5]],
                trans_parents=[(0, v)],
                trans_cpt=[[0.9, 0.1], [0.2, 0.8]],
            )
            for v in range(19)
        ]
    )
    with pytest.raises(SizeCapError, match=r"joint transition \(524288 x 524288\)"):
        unroll_tbn(model)


@pytest.mark.parametrize(
    "name, convert, expected, given",
    [
        ("flatten_chmm", flatten_chmm, "a ChmmModel", "HmmModel"),
        ("flatten_obs", lambda model: flatten_obs(model, [0, 1]), "a ChmmModel", "HmmModel"),
        ("unroll_tbn", unroll_tbn, "a Tbn2Model", "HmmModel"),
        ("hmm_to_chmm", hmm_to_chmm, "an HmmModel", "ChmmModel"),
    ],
    ids=["flatten_chmm", "flatten_obs", "unroll_tbn", "hmm_to_chmm"],
)
def test_converters_refuse_the_wrong_model_type(name, convert, expected, given):
    rng = np.random.default_rng(2)
    model = random_hmm(2, 2, rng) if given == "HmmModel" else random_chmm([2], [2], rng)
    with pytest.raises(TypeError, match=f"^{name} expects {expected}, got {given}$"):
        convert(model)
