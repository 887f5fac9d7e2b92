"""Bulk screens against the element-by-element code they replaced.

Model validation screens all of a model's probability tables at once, a
coupled model's chain tables are built by broadcasting, and an observation
line is checked and converted in one pass.  Each keeps the older code only
to name a failure, so every test here compares the library with a frozen
copy of that older code: the same arrays bit for bit, or the same exception
type and message, first failure included.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from dbnkit import ChmmModel, HmmModel, ModelValidationError, Tbn2Model, TbnVariable, parse_obs_line
from dbnkit import models
from dbnkit.errors import ModelFormatError
from dbnkit.models import PROB_ATOL, _check_array_bytes, _frozen_array

# ---------------------------------------------------------------------------
# Frozen reference: model validation and chain tables, checked table by table.


def _ref_check_distribution(probs, name="distribution"):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ModelValidationError(f"{name} must be a nonempty vector, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ModelValidationError(f"{name} has non-finite entries")
    if np.any(probs < 0.0):
        raise ModelValidationError(f"{name} has negative entries")
    with np.errstate(over="ignore"):
        total = float(probs.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise ModelValidationError(f"{name} sums to {total!r}, expected 1")


def _ref_check_stochastic_matrix(mat, name):
    with np.errstate(invalid="ignore", over="ignore"):
        flagged = (
            ~np.isfinite(mat).all(axis=1)
            | (mat < 0.0).any(axis=1)
            | (np.abs(mat.sum(axis=1) - 1.0) > PROB_ATOL / 2)
        )
    for i in np.flatnonzero(flagged):
        _ref_check_distribution(mat[i], f"{name} row {i}")


def _ref_validate_hmm(model):
    n = model.pi.shape[0]
    if n == 0:
        raise ModelValidationError("pi must have at least one state")
    if model.trans.shape != (n, n):
        raise ModelValidationError(f"A must be {n}x{n} to match pi, got shape {model.trans.shape}")
    if model.emit.shape[0] != n:
        raise ModelValidationError(f"B must have {n} rows to match pi, got shape {model.emit.shape}")
    if model.emit.shape[1] == 0:
        raise ModelValidationError("B must have at least one symbol column")
    _ref_check_distribution(model.pi, "pi")
    _ref_check_stochastic_matrix(model.trans, "A")
    _ref_check_stochastic_matrix(model.emit, "B")


def _ref_validate_chmm(model):
    L = len(model.initials)
    if L == 0:
        raise ModelValidationError("model must have at least one chain")
    if len(model.emissions) != L:
        raise ModelValidationError(
            f"expected {L} emission matrices to match {L} chains, got {len(model.emissions)}"
        )
    sizes = model.states_per_chain
    for l in range(L):
        _ref_check_distribution(model.initials[l], f"chain {l} pi")
        if model.emissions[l].shape[0] != sizes[l]:
            raise ModelValidationError(
                f"chain {l} emissions must have {sizes[l]} rows, got shape {model.emissions[l].shape}"
            )
        if model.emissions[l].shape[1] == 0:
            raise ModelValidationError(f"chain {l} emissions must have at least one symbol column")
        _ref_check_stochastic_matrix(model.emissions[l], f"chain {l} emissions")
    for (k, l), mat in model.couplings.items():
        if not (0 <= k < L and 0 <= l < L):
            raise ModelValidationError(f"coupling ({k}->{l}) references a chain outside 0..{L - 1}")
        if mat.shape != (sizes[k], sizes[l]):
            raise ModelValidationError(
                f"coupling ({k}->{l}) must be {sizes[k]}x{sizes[l]}, got shape {mat.shape}"
            )
        _ref_check_stochastic_matrix(mat, f"coupling ({k}->{l})")
    for l in range(L):
        if (l, l) not in model.couplings:
            raise ModelValidationError(
                f"chain {l} has no self-coupling; every chain must depend on its own past"
            )


def _ref_chain_conditional(model, chain):
    parents = model.parents(chain)
    dims = [model.states_per_chain[k] for k in parents + (chain,)]
    grid = np.ix_(*map(np.arange, dims))
    table = 1.0
    for axis, p in enumerate(parents):
        table = table * model.couplings[(p, chain)][grid[axis], grid[-1]]
    mass = table.sum(axis=-1, keepdims=True)
    if not mass.all():
        states = tuple(int(i) for i in np.argwhere(mass[..., 0] == 0.0)[0])
        raise ModelValidationError(
            f"coupling product for chain {chain} has zero mass when its parent chains "
            f"{parents} are in states {states}"
        )
    table /= mass
    return table


def _ref_chmm(initials, emissions, couplings):
    """The chain tables of a coupled model built as construction built them, or its error."""
    model = SimpleNamespace(
        initials=tuple(_frozen_array(p, f"chain {l} pi", ndim=1) for l, p in enumerate(initials)),
        emissions=tuple(_frozen_array(b, f"chain {l} emissions", ndim=2) for l, b in enumerate(emissions)),
        couplings={(k, l): _frozen_array(m, f"coupling ({k}->{l})", ndim=2) for (k, l), m in couplings.items()},
    )
    model.states_per_chain = tuple(p.shape[0] for p in model.initials)
    model.parents = lambda chain: tuple(sorted(k for (k, l) in model.couplings if l == chain))
    _ref_validate_chmm(model)
    L = len(model.initials)
    shapes = [[model.states_per_chain[k] for k in model.parents(l) + (l,)] for l in range(L)]
    for l, dims in enumerate(shapes):
        _check_array_bytes(f"chain {l} transition table", *dims)
    _check_array_bytes("chain transition table total", sum(int(np.prod(s)) for s in shapes))
    return [_ref_chain_conditional(model, l) for l in range(L)]


def _ref_validate_tbn2(model):
    V = len(model.variables)
    if V == 0:
        raise ModelValidationError("model must have at least one variable")
    cards = model.cardinalities
    for i, var in enumerate(model.variables):
        if var.card < 1:
            raise ModelValidationError(f"var {i} cardinality must be positive, got {var.card}")
        if len(set(var.init_parents)) != len(var.init_parents):
            raise ModelValidationError(f"var {i} init_parents contains duplicates")
        if len(set(var.trans_parents)) != len(var.trans_parents):
            raise ModelValidationError(f"var {i} trans_parents contains duplicates")
        for p in var.init_parents:
            if not 0 <= p < V:
                raise ModelValidationError(f"var {i} init parent {p} outside 0..{V - 1}")
        rows = 1
        for p in var.init_parents:
            rows *= cards[p]
        if var.init_cpt.shape != (rows, var.card):
            raise ModelValidationError(
                f"var {i} init_cpt must be {rows}x{var.card} for its parent list, "
                f"got shape {var.init_cpt.shape}"
            )
        _ref_check_stochastic_matrix(var.init_cpt, f"var {i} init_cpt")
        rows = 1
        for s, p in var.trans_parents:
            if s not in (0, 1):
                raise ModelValidationError(f"var {i} trans parent slice must be 0 or 1, got {s}")
            if not 0 <= p < V:
                raise ModelValidationError(f"var {i} trans parent {p} outside 0..{V - 1}")
            rows *= cards[p]
        if var.trans_cpt.shape != (rows, var.card):
            raise ModelValidationError(
                f"var {i} trans_cpt must be {rows}x{var.card} for its parent list, "
                f"got shape {var.trans_cpt.shape}"
            )
        _ref_check_stochastic_matrix(var.trans_cpt, f"var {i} trans_cpt")
    models._check_acyclic({i: var.init_parents for i, var in enumerate(model.variables)}, "initial-network")
    intra = {i: [p for s, p in var.trans_parents if s == 1] for i, var in enumerate(model.variables)}
    models._check_acyclic(intra, "transition-network intra-slice")


def _outcome(build):
    """``("ok", value)`` for a call that returns, or the type and message of what it raised.

    The test settings turn warnings into errors, so a numpy warning that
    either side let through, such as overflow in a row sum past the float
    range, is caught as RuntimeWarning and fails the comparison.
    """
    try:
        return "ok", build()
    except (ModelValidationError, models.SizeCapError, RuntimeWarning) as err:
        return type(err), str(err)


# ---------------------------------------------------------------------------
# Random models with injected defects.

_NUMERIC = ("nan", "inf", "-inf", "inf-inf", "negative", "off_sum", "huge")


def _stochastic(rng, rows, cols):
    return rng.dirichlet(np.ones(cols), size=rows) if cols else np.zeros((rows, 0))


def _spoil(rng, table):
    """``table`` (a copy) with one numeric defect, or unchanged if it has no entries."""
    table = np.array(table, dtype=np.float64)
    if table.size == 0:
        return table
    flat = table.reshape(-1, table.shape[-1])
    r, c = int(rng.integers(flat.shape[0])), int(rng.integers(flat.shape[1]))
    kind = _NUMERIC[int(rng.integers(len(_NUMERIC)))]
    if kind == "nan":
        flat[r, c] = np.nan
    elif kind == "inf":
        flat[r, c] = np.inf
    elif kind == "-inf":
        flat[r, c] = -np.inf
    elif kind == "inf-inf":
        flat[r, :] = np.inf
        flat[r, c] = -np.inf
    elif kind == "negative":
        flat[r, c] = -float(rng.choice([1e-300, 1e-12, 0.3]))
    elif kind == "off_sum":
        # Offsets straddle PROB_ATOL and PROB_ATOL / 2, where the screen and the 1-D sum could disagree.
        flat[r, c] += float(rng.choice([-1, 1])) * float(rng.choice([0.4, 0.6, 0.9, 1.1, 2.0, 1e6])) * PROB_ATOL
    else:
        flat[r, :] = 1e308  # two or more entries sum past the float range
    return table


def _random_hmm_inputs(rng):
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    parts = {"pi": _stochastic(rng, 1, n)[0], "trans": _stochastic(rng, n, n), "emit": _stochastic(rng, n, m)}
    for _ in range(int(rng.integers(0, 4))):
        kind = rng.choice(["numeric", "numeric", "pi_empty", "trans_shape", "emit_rows", "emit_cols0"])
        if kind == "numeric":
            key = str(rng.choice(list(parts)))
            parts[key] = _spoil(rng, parts[key])
        elif kind == "pi_empty":
            parts["pi"] = np.zeros(0)
        elif kind == "trans_shape":
            parts["trans"] = _stochastic(rng, n, n + 1)
        elif kind == "emit_rows":
            parts["emit"] = _stochastic(rng, n + 1, m)
        else:
            parts["emit"] = np.zeros((n, 0))
    return parts


def _random_chmm_inputs(rng):
    L = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, 4)) for _ in range(L)]
    symbols = [int(rng.integers(1, 4)) for _ in range(L)]
    initials = [_stochastic(rng, 1, n)[0] for n in sizes]
    emissions = [_stochastic(rng, n, m) for n, m in zip(sizes, symbols)]
    couplings = {}
    for l in range(L):
        for k in range(L):
            if k == l or rng.random() < 0.4:
                couplings[(k, l)] = _stochastic(rng, sizes[k], sizes[l])
    for _ in range(int(rng.integers(0, 4))):
        kind = str(rng.choice(["numeric"] * 6 + ["zero_mass", "zero_mass", "emissions_count", "emit_rows",
                               "emit_cols0", "pi_empty", "coupling_range", "coupling_shape", "no_self"]))
        l = int(rng.integers(L))
        if kind == "numeric":
            where = int(rng.integers(3))
            if where == 0:
                initials[l] = _spoil(rng, initials[l])
            elif where == 1 and l < len(emissions):
                emissions[l] = _spoil(rng, emissions[l])
            elif where == 2 and couplings:
                key = list(couplings)[int(rng.integers(len(couplings)))]
                couplings[key] = _spoil(rng, couplings[key])
        elif kind == "zero_mass":
            # One-hot rows on different states in two parents' couplings leave a configuration no mass.
            keys = [key for key in couplings if key[1] == l and couplings[key].shape[1] > 1]
            if len(keys) > 1:
                for j, key in enumerate(keys[:2]):
                    mat = np.array(couplings[key])
                    mat[0] = np.eye(mat.shape[1])[j]
                    couplings[key] = mat
        elif kind == "emissions_count":
            emissions = emissions[:-1] if rng.random() < 0.5 else emissions + [_stochastic(rng, 2, 2)]
        elif kind == "emit_rows" and l < len(emissions):
            emissions[l] = _stochastic(rng, sizes[l] + 1, symbols[l])
        elif kind == "emit_cols0" and l < len(emissions):
            emissions[l] = np.zeros((sizes[l], 0))
        elif kind == "pi_empty":
            initials[l] = np.zeros(0)
        elif kind == "coupling_range":
            couplings[(L, l) if rng.random() < 0.5 else (l, -1)] = _stochastic(rng, 2, 2)
        elif kind == "coupling_shape" and couplings:
            key = list(couplings)[int(rng.integers(len(couplings)))]
            rows, cols = (sizes[k] if 0 <= k < L else 2 for k in key)
            couplings[key] = _stochastic(rng, rows, cols + 1)
        elif kind == "no_self":
            couplings.pop((l, l), None)
    return initials, emissions, couplings


def _random_tbn2_variables(rng):
    V = int(rng.integers(1, 4))
    cards = [int(rng.integers(1, 4)) for _ in range(V)]
    init_parents = [[p for p in range(i) if rng.random() < 0.5] for i in range(V)]
    trans_parents = [
        [(0, p) for p in range(V) if rng.random() < 0.5] + [(1, p) for p in range(i) if rng.random() < 0.4]
        for i in range(V)
    ]
    shapes = {}
    for _ in range(int(rng.integers(0, 4))):
        kind = str(rng.choice(["numeric"] * 5 + ["card0", "dup_init", "dup_trans", "init_range",
                               "init_shape", "slice", "trans_range", "trans_shape", "cycle_init", "cycle_intra"]))
        i = int(rng.integers(V))
        if kind == "numeric":
            shapes[("spoil", i, int(rng.integers(2)))] = True
        elif kind == "card0":
            cards[i] = 0
        elif kind == "dup_init" and init_parents[i]:
            init_parents[i].append(init_parents[i][0])
        elif kind == "dup_trans" and trans_parents[i]:
            trans_parents[i].append(trans_parents[i][0])
        elif kind == "init_range":
            init_parents[i].append(V)
        elif kind == "init_shape":
            shapes[("init", i)] = True
        elif kind == "slice":
            trans_parents[i].append((2, 0))
        elif kind == "trans_range":
            trans_parents[i].append((0, V))
        elif kind == "trans_shape":
            shapes[("trans", i)] = True
        elif kind == "cycle_init" and V > 1:
            init_parents[0].append(V - 1)
            init_parents[V - 1].append(0)
        elif kind == "cycle_intra" and V > 1:
            trans_parents[0].append((1, V - 1))
            trans_parents[V - 1].append((1, 0))

    def rows(parents):
        return int(np.prod([cards[p] if 0 <= p < V else 2 for p in parents]))

    variables = []
    for i in range(V):
        init_cpt = _stochastic(rng, rows(init_parents[i]) + shapes.get(("init", i), 0), cards[i])
        trans_cpt = _stochastic(rng, rows([p for _, p in trans_parents[i]]) + shapes.get(("trans", i), 0), cards[i])
        if ("spoil", i, 0) in shapes:
            init_cpt = _spoil(rng, init_cpt)
        if ("spoil", i, 1) in shapes:
            trans_cpt = _spoil(rng, trans_cpt)
        variables.append(TbnVariable(cards[i], init_parents[i], init_cpt, trans_parents[i], trans_cpt))
    return variables


# ---------------------------------------------------------------------------
# Construction: the same first error, and the same chain tables bit for bit.


@pytest.mark.parametrize("budget", [None, 96])
def test_hmm_construction_raises_what_the_table_by_table_checks_raised(monkeypatch, budget):
    if budget:
        monkeypatch.setattr(models, "MAX_ARRAY_BYTES", budget)  # groups over the budget are screened table by table
    rng = np.random.default_rng(211)
    failures = 0
    for _ in range(1500):
        parts = _random_hmm_inputs(rng)
        ref = SimpleNamespace(
            pi=_frozen_array(parts["pi"], "pi", 1),
            trans=_frozen_array(parts["trans"], "A", 2),
            emit=_frozen_array(parts["emit"], "B", 2),
        )
        want = _outcome(lambda: _ref_validate_hmm(ref))
        got = _outcome(lambda: HmmModel(**parts))
        assert (got[0] == "ok") if want[0] == "ok" else (got == want), parts
        failures += want[0] != "ok"
    assert 500 < failures < 1400  # both outcomes are well represented


@pytest.mark.parametrize("budget", [None, 96])
def test_chmm_construction_raises_what_the_table_by_table_checks_raised(monkeypatch, budget):
    if budget:
        monkeypatch.setattr(models, "MAX_ARRAY_BYTES", budget)
    rng = np.random.default_rng(223)
    failures = 0
    for _ in range(1500):
        initials, emissions, couplings = _random_chmm_inputs(rng)
        want = _outcome(lambda: _ref_chmm(initials, emissions, couplings))
        got = _outcome(lambda: list(ChmmModel(initials, emissions, couplings)._chain_tables))
        if want[0] == "ok" and got[0] == "ok":
            assert len(got[1]) == len(want[1])
            for table, ref in zip(got[1], want[1]):
                assert table.shape == ref.shape and table.tobytes() == ref.tobytes()
        else:
            assert got == want, (initials, emissions, couplings)
            failures += 1
    assert 500 < failures < 1400


def test_tbn2_construction_raises_what_the_table_by_table_checks_raised():
    rng = np.random.default_rng(227)
    failures = 0
    for _ in range(1500):
        variables = _random_tbn2_variables(rng)
        ref = SimpleNamespace(variables=tuple(variables), cardinalities=tuple(v.card for v in variables))
        want = _outcome(lambda: _ref_validate_tbn2(ref))
        got = _outcome(lambda: Tbn2Model(variables))
        assert (got[0] == "ok") if want[0] == "ok" else (got == want), variables
        failures += want[0] != "ok"
    assert 500 < failures < 1400


def test_a_numeric_defect_in_an_early_table_wins_over_a_later_shape_defect():
    rng = np.random.default_rng(5)
    initials = [_stochastic(rng, 1, 3)[0] for _ in range(4)]
    emissions = [_stochastic(rng, 3, 2) for _ in range(4)]
    couplings = {(k, l): _stochastic(rng, 3, 3) for l in range(4) for k in (l - 1, l, l + 1) if 0 <= k < 4}
    emissions[0][1, 0] += 0.25
    couplings[(2, 3)] = _stochastic(rng, 3, 2)
    with pytest.raises(ModelValidationError, match=r"^chain 0 emissions row 1 sums to 1\.25"):
        ChmmModel(initials, emissions, couplings)
    emissions[0][1, 0] -= 0.25
    with pytest.raises(ModelValidationError, match=r"^coupling \(2->3\) must be 3x3, got shape \(3, 2\)$"):
        ChmmModel(initials, emissions, couplings)


def test_a_row_within_tolerance_passes_though_the_screen_flags_it():
    # The screen's tolerance is PROB_ATOL / 2; a row off by 0.9 PROB_ATOL is flagged, then accepted.
    trans = np.array([[0.5, 0.5], [0.25, 0.75 + 0.9 * PROB_ATOL]])
    HmmModel(pi=[0.5, 0.5 + 0.9 * PROB_ATOL], trans=trans, emit=np.eye(2))


def test_building_an_hmm_copies_no_second_table(traced_peak):
    # Transition and emission share a row width here, and are still screened
    # in place: the peak is the model's own arrays plus less than half of one more.
    n = 256
    rng = np.random.default_rng(3)
    pi, trans, emit = _stochastic(rng, 1, n)[0], _stochastic(rng, n, n), _stochastic(rng, n, n)
    HmmModel(pi, trans, emit)
    model, peak = traced_peak(lambda: HmmModel(pi, trans, emit))
    kept = model.pi.nbytes + model.trans.nbytes + model.emit.nbytes
    assert peak < kept + 8 * n * n / 2


# ---------------------------------------------------------------------------
# Observation lines: the same arrays, or the same error, as the token loop.


def _ref_parse_symbol(token, ctx, step):
    if not (token.isascii() and token.isdigit()):
        if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
            raise ModelFormatError(
                f"{ctx}: step {step}: negative symbol {token}; missing observations are not supported"
            )
        raise ModelFormatError(f"{ctx}: step {step}: {token!r} is not an integer symbol")
    value = int(token) if len(token) <= 19 else int(token.lstrip("0")[:20] or "0")
    if value > 2**63 - 1:
        raise ModelFormatError(f"{ctx}: step {step}: symbol {token} does not fit in 64 bits")
    return value


def _ref_parse_obs_line(text, ctx="observation"):
    tokens = text.split()
    if not tokens:
        raise ModelFormatError(f"{ctx}: empty observation sequence")
    if any("," in tok for tok in tokens):
        rows = []
        arity = None
        for step, tok in enumerate(tokens):
            parts = tok.split(",")
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise ModelFormatError(
                    f"{ctx}: step {step} has {len(parts)} chain symbols, expected {arity}"
                )
            rows.append([_ref_parse_symbol(p, ctx, step) for p in parts])
        return np.array(rows, dtype=np.int64)
    return np.array([_ref_parse_symbol(tok, ctx, step) for step, tok in enumerate(tokens)], dtype=np.int64)


def _parse_outcome(parse, text):
    try:
        arr = parse(text, ctx="line")
    except ModelFormatError as err:
        return "error", str(err)
    return arr.dtype, arr.shape, arr.tobytes()


_ODD_SYMBOLS = [
    "-1", "-", "+3", "1_0", "١", "²", "a", "1.5", "0x1", "", "007",
    "9" * 18, "9223372036854775807", "9223372036854775808", "9" * 19, "0" * 19 + "1", "1" + "0" * 19,
    "0" * 30 + "5", "1" * 25,
]
_GAPS = [" ", " ", " ", "  ", "\t", "\n", " ", " \t "]


def _random_symbol(r):
    if r.random() < 0.93:
        return str(r.randrange(10 ** r.randint(1, 3)))
    return r.choice(_ODD_SYMBOLS)


def _random_line(r):
    T = r.randint(1, 6)
    arity = r.choice([1, 1, 2, 3])
    tokens = []
    for _ in range(T):
        k = arity if r.random() < 0.95 else r.randint(1, 4)
        tokens.append(",".join(_random_symbol(r) for _ in range(k)))
    text = "".join(tok + r.choice(_GAPS) for tok in tokens)
    if r.random() < 0.05:
        text = text.replace(",", ", ", 1)
    if r.random() < 0.05:
        text = r.choice(_GAPS) + text
    return text


def test_parse_obs_line_matches_the_token_loop_on_random_lines():
    r = random.Random(17)
    outcomes = {"error": 0, "ok": 0}
    for _ in range(100_000):
        text = _random_line(r)
        want = _parse_outcome(_ref_parse_obs_line, text)
        assert _parse_outcome(parse_obs_line, text) == want, text
        outcomes["error" if want[0] == "error" else "ok"] += 1
    assert min(outcomes.values()) > 20_000


@pytest.mark.parametrize(
    "text",
    [
        "1200, 0", "1,,2 3,4", "1, 2", "0,1 1 0,0", "1,2,", ",1 2,3", "0\t1\t2", "0 -1 1", "3 ١ 2",
        "999999999999999999 1", "9223372036854775807 0", "9223372036854775808", "1,9223372036854775808",
        "00000000000000000001 2", "1" + "0" * 19, "0,1 1,1 0,0", "7", "5,6", "1_0", "+1 2",
        # past int()'s 4,300-digit limit, in both line kinds
        "0" * 5000 + "1 2", "1" + "0" * 5000 + " 2", "3," + "0" * 5000 + "1 4,5", "3,4 5," + "1" * 5000,
    ],
)
def test_parse_obs_line_edge_cases_match_the_token_loop(text):
    assert _parse_outcome(parse_obs_line, text) == _parse_outcome(_ref_parse_obs_line, text)
