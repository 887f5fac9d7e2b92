import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbnkit import (
    ChmmModel,
    HmmModel,
    ModelValidationError,
    ObservationError,
    SizeCapError,
    Tbn2Model,
    TbnVariable,
    check_distribution,
    nearest_neighbor_parents,
    random_chmm,
    validate_obs,
)
from dbnkit import models
from dbnkit.models import PROB_ATOL, _check_each


def test_degenerate_one_state_model_is_valid():
    m = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
    assert m.num_states == 1
    assert m.num_symbols == 1


def test_pi_stochasticity_error_reports_sum():
    with pytest.raises(ModelValidationError, match="pi sums to 1.1"):
        HmmModel(pi=[0.5, 0.6], trans=np.eye(2), emit=np.eye(2))


def test_row_stochasticity_error_names_row_and_sum():
    with pytest.raises(ModelValidationError, match="A row 1 sums to 0.89999"):
        HmmModel(pi=[0.5, 0.5], trans=[[0.5, 0.5], [0.7, 0.2]], emit=np.eye(2))


def _row_loop_check(mat, name):
    """The per-row loop that _check_each's matrix check replaced, kept as its reference."""
    for i in range(mat.shape[0]):
        check_distribution(mat[i], f"{name} row {i}")


def _rejection(check, mat):
    try:
        check(mat, "M")
    except ModelValidationError as err:
        return str(err)
    return None


_FAULT = st.tuples(
    st.sampled_from(["nan", "inf", "negative", "off_sum"]),
    st.integers(0, 15),
    st.integers(0, 15),
    # Sum offsets straddle PROB_ATOL, where the two summation orders could disagree.
    st.floats(-3 * PROB_ATOL, 3 * PROB_ATOL) | st.floats(-1.0, 1.0),
)


@settings(max_examples=400, deadline=None)
@given(
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(_FAULT, max_size=4),
)
def test_stochastic_matrix_check_matches_row_loop(rows, cols, seed, faults):
    mat = np.random.default_rng(seed).dirichlet(np.ones(cols), size=rows)
    for kind, r, c, offset in faults:
        r, c = r % rows, c % cols
        if kind == "nan":
            mat[r, c] = np.nan
        elif kind == "inf":
            mat[r, c] = np.inf
        elif kind == "negative":
            mat[r, c] = -abs(offset) or -1e-300
        else:
            mat[r, c] += offset
    assert _rejection(lambda m, name: _check_each([(m, name)]), mat) == _rejection(_row_loop_check, mat)


def test_dimension_error_names_field():
    with pytest.raises(ModelValidationError, match="A must be 2x2"):
        HmmModel(pi=[0.5, 0.5], trans=[[1.0], [1.0]], emit=np.eye(2))
    with pytest.raises(ModelValidationError, match="B must have 2 rows"):
        HmmModel(pi=[0.5, 0.5], trans=np.eye(2), emit=[[1.0]])


def test_ragged_matrix_rejected():
    with pytest.raises(ModelValidationError, match="rectangular"):
        HmmModel(pi=[0.5, 0.5], trans=[[0.5, 0.5], [1.0]], emit=np.eye(2))


def test_negative_entry_rejected():
    with pytest.raises(ModelValidationError, match="negative"):
        HmmModel(pi=[1.5, -0.5], trans=np.eye(2), emit=np.eye(2))


def test_model_arrays_are_read_only(worked_model):
    with pytest.raises(ValueError):
        worked_model.pi[0] = 0.0
    with pytest.raises(ValueError):
        worked_model.trans[0, 0] = 0.0


def test_check_distribution_tolerance():
    check_distribution(np.array([0.5, 0.5 + 5e-10]))
    with pytest.raises(ModelValidationError):
        check_distribution(np.array([0.5, 0.5 + 5e-9]))


def test_a_sum_past_the_float_range_is_rejected_without_numpy_warning():
    # tier-1 turns warnings into errors, so numpy's overflow warning would fail these first
    with pytest.raises(ModelValidationError, match=r"^distribution sums to inf, expected 1$"):
        check_distribution(np.array([1e308, 1e308]))
    with pytest.raises(ModelValidationError, match=r"^A row 0 sums to inf, expected 1$"):
        _check_each([(np.array([[1e308, 1e308], [0.5, 0.5]]), "A")])
    with pytest.raises(ModelValidationError, match=r"^A row 0 sums to inf, expected 1$"):
        HmmModel(pi=[0.5, 0.5], trans=[[1e308, 1e308], [0.5, 0.5]], emit=[[1.0], [1.0]])


def _one_chain_chmm():
    return ChmmModel(
        initials=[[0.3, 0.7]],
        emissions=[[[0.9, 0.1], [0.2, 0.8]]],
        couplings={(0, 0): [[0.6, 0.4], [0.5, 0.5]]},
    )


def test_single_chain_chmm_is_valid():
    m = _one_chain_chmm()
    assert m.num_chains == 1
    assert m.states_per_chain == (2,)
    assert m.symbols_per_chain == (2,)
    assert m.parents(0) == (0,)


def test_chmm_coupling_stochasticity_error():
    with pytest.raises(ModelValidationError, match=r"coupling \(0->0\) row 0 sums to 0.9"):
        ChmmModel(
            initials=[[0.3, 0.7]],
            emissions=[[[0.9, 0.1], [0.2, 0.8]]],
            couplings={(0, 0): [[0.5, 0.4], [0.5, 0.5]]},
        )


def test_chmm_missing_self_coupling_is_topology_error():
    with pytest.raises(ModelValidationError, match="chain 1 has no self-coupling"):
        ChmmModel(
            initials=[[1.0], [1.0]],
            emissions=[[[1.0]], [[1.0]]],
            couplings={(0, 0): [[1.0]], (0, 1): [[1.0]]},
        )


def test_chmm_coupling_shape_checked():
    with pytest.raises(ModelValidationError, match=r"coupling \(0->1\) must be 2x3"):
        ChmmModel(
            initials=[[0.5, 0.5], [0.2, 0.3, 0.5]],
            emissions=[np.full((2, 2), 0.5), np.full((3, 2), 0.5)],
            couplings={
                (0, 0): np.full((2, 2), 0.5),
                (1, 1): np.full((3, 3), 1 / 3),
                (0, 1): np.full((2, 2), 0.5),
            },
        )


def test_chmm_coupling_chain_range_checked():
    with pytest.raises(ModelValidationError, match="outside"):
        ChmmModel(
            initials=[[1.0]],
            emissions=[[[1.0]]],
            couplings={(0, 0): [[1.0]], (2, 0): [[1.0]]},
        )


def test_nearest_neighbor_parents():
    assert nearest_neighbor_parents(1) == ((0,),)
    assert nearest_neighbor_parents(3) == ((0, 1), (0, 1, 2), (1, 2))


def _chain_var(card=2):
    # one variable depending only on its own previous value
    return TbnVariable(
        card=card,
        init_parents=(),
        init_cpt=[np.full(card, 1.0 / card)],
        trans_parents=((0, 0),),
        trans_cpt=np.full((card, card), 1.0 / card),
    )


def _one_chain_with_key(key):
    return ChmmModel(initials=[[0.5, 0.5]], emissions=[np.eye(2)], couplings={key: np.full((2, 2), 0.5)})


def _var_with(card=2, init_parents=(), trans_parent=(0, 0)):
    return TbnVariable(
        card=card,
        init_parents=init_parents,
        init_cpt=[[0.5, 0.5]],
        trans_parents=(trans_parent,),
        trans_cpt=np.full((2, 2), 0.5),
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _one_chain_with_key((0.7, 0.2)), r"coupling key \(0.7, 0.2\) is not a \(from, to\) chain pair"),
        (lambda: _one_chain_with_key((0, 0, 5)), r"coupling key \(0, 0, 5\) is not a \(from, to\) chain pair"),
        (lambda: _one_chain_with_key((0, "0")), r"coupling key \(0, '0'\) is not a \(from, to\) chain pair"),
        (lambda: _var_with(card=2.9), "card must be an integer, got 2.9"),
        (lambda: _var_with(card="2"), "card must be an integer, got '2'"),
        (lambda: _var_with(init_parents=(0.5,)), "init parent must be an integer, got 0.5"),
        (lambda: _var_with(trans_parent=(0.4, 0)), "trans parent slice must be an integer, got 0.4"),
        (lambda: _var_with(trans_parent=(0, "0")), "trans parent var must be an integer, got '0'"),
    ],
    ids=["key-fractions", "key-triple", "key-text", "card-fraction", "card-text", "init-parent", "trans-slice", "trans-var"],
)
def test_model_indices_must_be_integers_not_truncated(build, message):
    with pytest.raises(ModelValidationError, match=f"^{message}$"):
        build()


def test_integral_indices_of_any_numeric_type_are_accepted():
    assert list(_one_chain_with_key((np.int64(0), 0.0)).couplings) == [(0, 0)]
    var = _var_with(card=np.float64(2.0), trans_parent=(np.uint8(0), 0.0))
    assert (var.card, var.trans_parents) == (2, ((0, 0),))
    assert all(type(i) is int for i in (var.card, *var.trans_parents[0]))


def test_tbn2_valid_single_variable():
    m = Tbn2Model(variables=[_chain_var()])
    assert m.num_vars == 1
    assert m.cardinalities == (2,)


def test_tbn2_intra_slice_cycle_rejected():
    a = TbnVariable(
        card=2,
        init_parents=(),
        init_cpt=[[0.5, 0.5]],
        trans_parents=((1, 1),),
        trans_cpt=np.full((2, 2), 0.5),
    )
    b = TbnVariable(
        card=2,
        init_parents=(),
        init_cpt=[[0.5, 0.5]],
        trans_parents=((1, 0),),
        trans_cpt=np.full((2, 2), 0.5),
    )
    with pytest.raises(ModelValidationError, match="intra-slice parent graph has a cycle"):
        Tbn2Model(variables=[a, b])


def test_tbn2_initial_cycle_rejected():
    a = TbnVariable(
        card=2,
        init_parents=(1,),
        init_cpt=np.full((2, 2), 0.5),
        trans_parents=((0, 0),),
        trans_cpt=np.full((2, 2), 0.5),
    )
    b = TbnVariable(
        card=2,
        init_parents=(0,),
        init_cpt=np.full((2, 2), 0.5),
        trans_parents=((0, 1),),
        trans_cpt=np.full((2, 2), 0.5),
    )
    with pytest.raises(ModelValidationError, match="initial-network parent graph has a cycle"):
        Tbn2Model(variables=[a, b])


def test_tbn2_cpt_row_count_checked():
    with pytest.raises(ModelValidationError, match="trans_cpt must be 2x2"):
        Tbn2Model(
            variables=[
                TbnVariable(
                    card=2,
                    init_parents=(),
                    init_cpt=[[0.5, 0.5]],
                    trans_parents=((0, 0),),
                    trans_cpt=np.full((3, 2), 0.5),
                )
            ]
        )


def test_tbn2_bad_slice_rejected():
    with pytest.raises(ModelValidationError, match="slice must be 0 or 1"):
        Tbn2Model(
            variables=[
                TbnVariable(
                    card=2,
                    init_parents=(),
                    init_cpt=[[0.5, 0.5]],
                    trans_parents=((2, 0),),
                    trans_cpt=np.full((2, 2), 0.5),
                )
            ]
        )


def test_validate_obs_hmm(worked_model):
    out = validate_obs(worked_model, [0, 1, 0])
    assert out.dtype == np.int64
    with pytest.raises(ObservationError, match="symbol 2 at step 1"):
        validate_obs(worked_model, [0, 2, 0])
    with pytest.raises(ObservationError, match="at least one step"):
        validate_obs(worked_model, [])
    with pytest.raises(ObservationError, match="integers"):
        validate_obs(worked_model, [0.5, 1.0])


@pytest.mark.parametrize(
    "obs, message",
    [
        ([[0, 0], [0]], "observation symbols must be a rectangular array of integers: .*inhomogeneous"),
        (["a"], "observation symbols must be a rectangular array of integers: .*'a'"),
        ([2**70], "^symbol 1180591620717411303424 at step 0 outside valid range 0..1$"),
        ([0, 2**63], "^symbol 9223372036854775808 at step 1 outside valid range 0..1$"),
        ([0.0, 1e30], "^symbol 1000000000000000019884624838656 at step 1 outside valid range 0..1$"),
        ([0.0, np.inf], "^observation symbols must be integers$"),
        (["1"], "^observation symbols must be a rectangular array of integers: '1' is text$"),
        ([b"1"], "^observation symbols must be a rectangular array of integers: b'1' is text$"),
        ([0, 10**400], f"^symbol 1{'0' * 400} at step 1 outside valid range 0..1$"),
        ([10**400, 0.5], "^observation symbols must be integers$"),
        ([1 + 1j, 0], "^observation symbols must be integers$"),
    ],
    ids=["ragged", "string", "2**70", "2**63", "1e30", "inf", "numeric-string", "bytes", "10**400", "10**400-and-fraction",
         "complex"],
)
def test_validate_obs_refuses_what_numpy_cannot_hold_as_int64(worked_model, obs, message):
    # No numpy error and no RuntimeWarning (which the suite turns into an error) gets through.
    with pytest.raises(ObservationError, match=message):
        validate_obs(worked_model, obs)


def test_validate_obs_chmm():
    m = ChmmModel(
        initials=[[0.5, 0.5], [0.5, 0.5]],
        emissions=[np.full((2, 2), 0.5), np.full((2, 3), 1 / 3)],
        couplings={
            (0, 0): np.full((2, 2), 0.5),
            (1, 1): np.full((2, 2), 0.5),
            (0, 1): np.full((2, 2), 0.5),
            (1, 0): np.full((2, 2), 0.5),
        },
    )
    out = validate_obs(m, [[0, 2], [1, 0]])
    assert out.shape == (2, 2)
    with pytest.raises(ObservationError, match="chain 1 symbol 3"):
        validate_obs(m, [[0, 3]])
    with pytest.raises(ObservationError, match="tuples of 2"):
        validate_obs(m, [0, 1, 0])


def test_validate_obs_single_chain_accepts_flat_sequence():
    m = _one_chain_chmm()
    out = validate_obs(m, [0, 1, 1])
    assert out.shape == (3, 1)


def test_validate_obs_refuses_an_evidence_table_over_the_byte_budget():
    # 4 chains of 31 states: each step of the evidence, alpha, beta and gamma
    # tables holds 923,521 joint states, 7.4 MB
    m = random_chmm([31] * 4, [2] * 4, np.random.default_rng(5))
    steps = models.MAX_ARRAY_BYTES // (8 * 31**4)
    assert validate_obs(m, np.zeros((steps, 4), dtype=np.int64)).shape == (steps, 4)
    with pytest.raises(SizeCapError, match=rf"evidence table \({steps + 1} x 923521\)"):
        validate_obs(m, np.zeros((steps + 1, 4), dtype=np.int64))
