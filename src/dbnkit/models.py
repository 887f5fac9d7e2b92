"""Model types for discrete-state temporal models, plus their validation.

All models are frozen dataclasses over float64 numpy arrays.  Arrays are
copied on construction and marked read-only, so instances are safe to share
across threads.  Validation runs eagerly: a successfully constructed model
always satisfies its shape and stochasticity invariants.  A validator screens
all of a model's probability tables in one bulk pass and checks them one by
one only to name the first failure, in the order of its walk.

Probability rows are plain 1-D arrays checked by :func:`check_distribution`
(entries nonnegative, sum 1 within ``PROB_ATOL``).  Observation sequences
are plain integer arrays checked against a model by :func:`validate_obs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelValidationError, ObservationError, SizeCapError

# Absolute tolerance for a stored probability vector to count as normalized.
PROB_ATOL = 1e-9

# The largest array, in bytes, that any route may allocate: joint state spaces grow
# exponentially, so each array whose size follows from one is checked before it is built.
MAX_ARRAY_BYTES = 2**30


def _check_array_bytes(what, *dims):
    """Raise SizeCapError unless an array of ``dims`` 8-byte entries fits in MAX_ARRAY_BYTES."""
    nbytes = 8 * math.prod(int(d) for d in dims)  # Python ints: the product cannot overflow
    if nbytes > MAX_ARRAY_BYTES:
        shape = " x ".join(map(str, dims))
        raise SizeCapError(f"{what} ({shape}) needs {nbytes} bytes, over the budget of {MAX_ARRAY_BYTES}")


def _rows_within_budget(*dims):
    """How many arrays of ``dims`` 8-byte entries fit in MAX_ARRAY_BYTES together; at least 1."""
    return max(1, MAX_ARRAY_BYTES // (8 * math.prod(int(d) for d in dims)))


def _frozen_array(values, name, ndim):
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ModelValidationError(f"{name} is not a rectangular numeric array: {err}") from err
    if arr.ndim != ndim:
        raise ModelValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _is_integral(value):
    """Whether ``value`` is a number with no fractional part; text never is."""
    try:
        return not isinstance(value, (str, bytes)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _index(value, what, error=ModelValidationError):
    """``int(value)``, or ``error`` naming ``what`` unless :func:`_is_integral` holds."""
    if not _is_integral(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _count(value, what):
    """:func:`_index` of ``value``, or ValueError naming ``what`` unless it is at least 1."""
    value = _index(value, what, ValueError)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def check_distribution(probs, name="distribution"):
    """Raise unless ``probs`` is a probability vector.

    Entries must be finite and nonnegative and sum to 1 within ``PROB_ATOL``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ModelValidationError(f"{name} must be a nonempty vector, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ModelValidationError(f"{name} has non-finite entries")
    if np.any(probs < 0.0):
        raise ModelValidationError(f"{name} has negative entries")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, and rejected below
        total = float(probs.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise ModelValidationError(f"{name} sums to {total!r}, expected 1")


def _unstochastic_rows(mat):
    """Which rows of the 2-D ``mat`` are not finite, nonnegative and summing to 1 within PROB_ATOL / 2.

    A non-finite entry makes a non-finite sum, so the sum test covers it (+inf
    and -inf sum to nan with an "invalid" warning, which callers silence).  A
    row sum along axis 1 may round differently from :func:`check_distribution`'s
    1-D sum; a row within half the tolerance passes under either summation.
    """
    return (mat < 0.0).any(axis=1) | ~(np.abs(mat.sum(axis=1) - 1.0) <= PROB_ATOL / 2)


# Tables of one width screened together are copied into one array first; past this
# size the copy costs more than the numpy calls it saves, so each is screened in place.
_SCREEN_GROUP_BYTES = 2**16


def _screen(tables):
    """Whether any row of ``tables`` (``(array, name)`` pairs) fails :func:`_unstochastic_rows`.

    Vectors are screened as one-row matrices, and tables of one row width,
    vectors and matrices alike, as one concatenated array when there are
    several and they fit both _SCREEN_GROUP_BYTES and MAX_ARRAY_BYTES.
    """
    groups = {}
    for arr, _ in tables:
        groups.setdefault(arr.shape[-1], []).append(arr if arr.ndim == 2 else arr[None])
    # A sum past the float range is inf and flagged; the per-table checks that follow are not silenced.
    with np.errstate(invalid="ignore", over="ignore"):
        for group in groups.values():
            if len(group) > 1 and 8 * sum(a.size for a in group) <= min(_SCREEN_GROUP_BYTES, MAX_ARRAY_BYTES):
                group = [np.concatenate(group)]
            if any(_unstochastic_rows(a).any() for a in group):
                return True
    return False


def _check_each(tables):
    """Check ``tables`` (``(array, name)`` pairs) in order: vectors as distributions, matrices row by row.

    Only the matrix rows that :func:`_unstochastic_rows` flags are checked one by one.
    """
    for arr, name in tables:
        if arr.ndim == 1:
            check_distribution(arr, name)
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            flagged = _unstochastic_rows(arr)
        for i in np.flatnonzero(flagged):
            check_distribution(arr[i], f"{name} row {i}")


def _check_tables(tables):
    """Run a validator's walk, which yields ``(array, name)`` pairs and raises at a structural defect.

    The tables' checks are deferred so that one :func:`_screen` covers them
    all, yet the first failure is the one that checking each table where it
    is yielded would raise: a structural failure first runs the checks of the
    tables yielded before it, and a flagged screen runs every check in order.
    """
    checked = []
    try:
        for table in tables:
            checked.append(table)
    except ModelValidationError:
        _check_each(checked)
        raise
    if _screen(checked):
        _check_each(checked)


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Discrete hidden Markov model.

    ``pi[i]`` is P(x_1 = i), ``trans[i, j]`` is P(x_t = j | x_{t-1} = i) and
    ``emit[i, k]`` is P(y_t = k | x_t = i).  Parameters are fixed over time.
    """

    pi: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _frozen_array(self.pi, "pi", ndim=1))
        object.__setattr__(self, "trans", _frozen_array(self.trans, "A", ndim=2))
        object.__setattr__(self, "emit", _frozen_array(self.emit, "B", ndim=2))
        validate_hmm(self)

    @property
    def num_states(self) -> int:
        return self.pi.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.emit.shape[1]


def validate_hmm(model: HmmModel) -> None:
    """Check every HmmModel invariant, raising ModelValidationError on the first failure."""
    n = model.pi.shape[0]
    if n == 0:
        raise ModelValidationError("pi must have at least one state")
    if model.trans.shape != (n, n):
        raise ModelValidationError(f"A must be {n}x{n} to match pi, got shape {model.trans.shape}")
    if model.emit.shape[0] != n:
        raise ModelValidationError(f"B must have {n} rows to match pi, got shape {model.emit.shape}")
    if model.emit.shape[1] == 0:
        raise ModelValidationError("B must have at least one symbol column")
    _check_tables([(model.pi, "pi"), (model.trans, "A"), (model.emit, "B")])


@dataclass(frozen=True, eq=False)
class ChmmModel:
    """Coupled hidden Markov model over L chains.

    ``initials[l]`` is chain l's initial distribution and ``emissions[l]``
    its per-state emission matrix.  ``couplings[(k, l)]`` is a row-stochastic
    matrix giving the influence of chain k's state at time t-1 on chain l's
    state at time t; the parent set of chain l is exactly the set of chains
    k with a (k, l) coupling and must contain l itself.  At each step the
    next state of chain l is drawn from the product of its parents' coupling
    rows, renormalized over chain l's states: construction derives that table
    once per chain and keeps it read-only in ``_chain_tables``, raising
    SizeCapError first if the tables would not fit MAX_ARRAY_BYTES together.
    """

    initials: Sequence[np.ndarray]
    emissions: Sequence[np.ndarray]
    couplings: Mapping[tuple[int, int], np.ndarray]
    _chain_tables: tuple = field(init=False, repr=False)

    def __post_init__(self):
        initials = tuple(
            _frozen_array(p, f"chain {l} pi", ndim=1) for l, p in enumerate(self.initials)
        )
        emissions = tuple(
            _frozen_array(b, f"chain {l} emissions", ndim=2) for l, b in enumerate(self.emissions)
        )
        couplings = {}
        for key, mat in dict(self.couplings).items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_integral, key))):
                raise ModelValidationError(f"coupling key {key!r} is not a (from, to) chain pair")
            k, l = int(key[0]), int(key[1])
            couplings[(k, l)] = _frozen_array(mat, f"coupling ({k}->{l})", ndim=2)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "emissions", emissions)
        object.__setattr__(self, "couplings", MappingProxyType(couplings))
        validate_chmm(self)
        sizes = self.states_per_chain
        shapes = [[sizes[k] for k in self.parents(l) + (l,)] for l in range(self.num_chains)]
        for l, dims in enumerate(shapes):
            _check_array_bytes(f"chain {l} transition table", *dims)
        _check_array_bytes("chain transition table total", sum(map(math.prod, shapes)))  # all are kept at once
        object.__setattr__(self, "_chain_tables", tuple(_chain_conditional(self, l) for l in range(self.num_chains)))

    @property
    def num_chains(self) -> int:
        return len(self.initials)

    @property
    def states_per_chain(self) -> tuple[int, ...]:
        return tuple(p.shape[0] for p in self.initials)

    @property
    def symbols_per_chain(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.emissions)

    def parents(self, chain: int) -> tuple[int, ...]:
        """Chains whose previous state conditions ``chain``, in ascending order."""
        return tuple(sorted(k for (k, l) in self.couplings if l == chain))


def _chain_conditional(model: ChmmModel, chain: int) -> np.ndarray:
    """Chain ``chain``'s read-only transition table P(x_chain' | x_parents).

    One axis per parent chain, in ``model.parents(chain)`` order, then the
    chain's next state on the last axis: the product of the parents'
    coupling rows, renormalized over the last axis; ChmmModel construction
    keeps one per chain, after checking that they fit MAX_ARRAY_BYTES
    together.  The product is ``1.0 * c_0 * c_1 * ...``, each coupling
    broadcast from a view reshaped onto its parent's axis.  Raises
    ModelValidationError, naming the first parent configuration in row-major
    order, if one gives the product zero mass.
    """
    parents = model.parents(chain)
    sizes = model.states_per_chain
    table = 1.0
    for axis, p in enumerate(parents):
        shape = [1] * len(parents) + [sizes[chain]]
        shape[axis] = sizes[p]
        table = table * model.couplings[(p, chain)].reshape(shape)
    mass = table.sum(axis=-1, keepdims=True)
    if not mass.all():
        states = tuple(int(i) for i in np.argwhere(mass[..., 0] == 0.0)[0])
        raise ModelValidationError(
            f"coupling product for chain {chain} has zero mass when its parent chains "
            f"{parents} are in states {states}"
        )
    table /= mass  # in place: the product is a new array, and a table may take the whole budget
    table.setflags(write=False)
    return table


def nearest_neighbor_parents(num_chains: int) -> tuple[tuple[int, ...], ...]:
    """Default coupling topology: each chain depends on itself and its neighbors."""
    return tuple(
        tuple(k for k in (l - 1, l, l + 1) if 0 <= k < num_chains) for l in range(num_chains)
    )


def validate_chmm(model: ChmmModel) -> None:
    """Check every ChmmModel invariant, including the self-parent topology rule.

    The probability tables are screened in bulk (:func:`_check_tables`).
    """
    _check_tables(_chmm_tables(model))


def _chmm_tables(model):
    """validate_chmm's walk: raise at a structural defect, and yield each probability table in check order."""
    L = len(model.initials)
    if L == 0:
        raise ModelValidationError("model must have at least one chain")
    if len(model.emissions) != L:
        raise ModelValidationError(
            f"expected {L} emission matrices to match {L} chains, got {len(model.emissions)}"
        )
    sizes = model.states_per_chain
    for l in range(L):
        yield model.initials[l], f"chain {l} pi"
        if model.emissions[l].shape[0] != sizes[l]:
            raise ModelValidationError(
                f"chain {l} emissions must have {sizes[l]} rows, got shape {model.emissions[l].shape}"
            )
        if model.emissions[l].shape[1] == 0:
            raise ModelValidationError(f"chain {l} emissions must have at least one symbol column")
        yield model.emissions[l], f"chain {l} emissions"
    for (k, l), mat in model.couplings.items():
        if not (0 <= k < L and 0 <= l < L):
            raise ModelValidationError(f"coupling ({k}->{l}) references a chain outside 0..{L - 1}")
        if mat.shape != (sizes[k], sizes[l]):
            raise ModelValidationError(
                f"coupling ({k}->{l}) must be {sizes[k]}x{sizes[l]}, got shape {mat.shape}"
            )
        yield mat, f"coupling ({k}->{l})"
    for l in range(L):
        if (l, l) not in model.couplings:
            raise ModelValidationError(
                f"chain {l} has no self-coupling; every chain must depend on its own past"
            )


@dataclass(frozen=True, eq=False)
class TbnVariable:
    """One two-slice-template variable: cardinality plus its two CPTs.

    ``init_parents`` lists first-slice parent variables; ``trans_parents``
    lists (slice, var) pairs with slice 0 meaning the previous time step.
    CPT rows enumerate parent configurations in row-major order over the
    listed parent sequence.
    """

    card: int
    init_parents: tuple[int, ...]
    init_cpt: np.ndarray
    trans_parents: tuple[tuple[int, int], ...]
    trans_cpt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "card", _index(self.card, "card"))
        object.__setattr__(self, "init_parents", tuple(_index(p, "init parent") for p in self.init_parents))
        object.__setattr__(
            self,
            "trans_parents",
            tuple((_index(s, "trans parent slice"), _index(v, "trans parent var")) for s, v in self.trans_parents),
        )
        object.__setattr__(self, "init_cpt", _frozen_array(self.init_cpt, "init_cpt", ndim=2))
        object.__setattr__(self, "trans_cpt", _frozen_array(self.trans_cpt, "trans_cpt", ndim=2))


@dataclass(frozen=True, eq=False)
class Tbn2Model:
    """Two-slice temporal template: an initial network plus a transition network.

    The joint transition factors as the product over variables of
    P(var at t | parents), with parents drawn from slices t-1 and t.  Both
    the initial parent graph and the intra-slice part of the transition
    parent graph must be acyclic.
    """

    variables: Sequence[TbnVariable]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        validate_tbn2(self)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(v.card for v in self.variables)


def _check_acyclic(parents, graph):
    """Raise ModelValidationError naming ``graph`` if ``parents`` (node -> its parents) has a cycle."""
    try:
        TopologicalSorter(parents).prepare()
    except CycleError:
        raise ModelValidationError(f"{graph} parent graph has a cycle") from None


def validate_tbn2(model: Tbn2Model) -> None:
    """Check shapes, CPT stochasticity (screened in bulk), and acyclicity of both parent graphs."""
    _check_tables(_tbn2_tables(model))


def _tbn2_tables(model):
    """validate_tbn2's walk: raise at a structural defect, and yield each CPT in check order."""
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
        rows = math.prod(cards[p] for p in var.init_parents)
        if var.init_cpt.shape != (rows, var.card):
            raise ModelValidationError(
                f"var {i} init_cpt must be {rows}x{var.card} for its parent list, "
                f"got shape {var.init_cpt.shape}"
            )
        yield var.init_cpt, f"var {i} init_cpt"
        for s, p in var.trans_parents:
            if s not in (0, 1):
                raise ModelValidationError(f"var {i} trans parent slice must be 0 or 1, got {s}")
            if not 0 <= p < V:
                raise ModelValidationError(f"var {i} trans parent {p} outside 0..{V - 1}")
        rows = math.prod(cards[p] for _, p in var.trans_parents)
        if var.trans_cpt.shape != (rows, var.card):
            raise ModelValidationError(
                f"var {i} trans_cpt must be {rows}x{var.card} for its parent list, "
                f"got shape {var.trans_cpt.shape}"
            )
        yield var.trans_cpt, f"var {i} trans_cpt"
    _check_acyclic({i: var.init_parents for i, var in enumerate(model.variables)}, "initial-network")
    intra = {i: [p for s, p in var.trans_parents if s == 1] for i, var in enumerate(model.variables)}
    _check_acyclic(intra, "transition-network intra-slice")


def _integer_array(values, what, error):
    """``values`` as an array of integral numbers, not yet cast, or ``error`` naming ``what``.

    Text is refused rather than parsed, and so is a complex number; Python
    integers too large for int64 are kept exact, so that a caller can
    range-check them before its cast.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "US" and arr.size:  # numpy would parse numeric text as a number
            raise ValueError(f"{arr.flat[0].item()!r} is text")
        if arr.dtype == object:  # Python numbers, kept exact so that an error names any of them as given
            integral = all(map(_is_integral, arr.flat))
        elif np.issubdtype(arr.dtype, np.integer):
            integral = True
        elif arr.dtype.kind == "c":  # a cast to float would drop the imaginary part
            integral = False
        else:
            arr = arr.astype(np.float64)
            integral = (np.isfinite(arr) & (arr == np.floor(arr))).all()
    except (TypeError, ValueError, OverflowError) as err:
        raise error(f"{what} must be a rectangular array of integers: {err}") from None
    if not integral:
        raise error(f"{what} must be integers")
    return arr


def validate_obs(model, obs) -> np.ndarray:
    """Coerce and range-check an observation sequence for ``model``.

    HMM and Tbn2 models take a 1-D sequence of symbol indices; CHMM models
    take a (T, L) array with one symbol per chain per step.  Returns the
    validated int64 array, or raises SizeCapError if a T x (joint states)
    table (evidence, alpha, beta, gamma) would not fit MAX_ARRAY_BYTES.
    Symbols are range-checked before the int64 cast, so an error names the
    symbol as given, however large.
    """
    arr = _integer_array(obs, "observation symbols", ObservationError)
    if arr.size == 0:
        raise ObservationError("observation sequence must have at least one step")

    if isinstance(model, HmmModel):
        if arr.ndim != 1:
            raise ObservationError(f"expected a 1-D symbol sequence, got shape {arr.shape}")
        _check_symbol_range(arr, model.num_symbols, "symbol")
        states = model.num_states
    elif isinstance(model, ChmmModel):
        L = model.num_chains
        if arr.ndim == 1 and L == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != L:
            raise ObservationError(
                f"expected per-step tuples of {L} chain symbols, got shape {arr.shape}"
            )
        for l, m in enumerate(model.symbols_per_chain):
            _check_symbol_range(arr[:, l], m, f"chain {l} symbol")
        states = math.prod(model.states_per_chain)
    elif isinstance(model, Tbn2Model):
        if arr.ndim != 1:
            raise ObservationError(f"expected a 1-D assignment sequence, got shape {arr.shape}")
        states = math.prod(model.cardinalities)
        _check_symbol_range(arr, states, "joint assignment")
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    _check_array_bytes("evidence table", arr.shape[0], states)
    return arr.astype(np.int64)


def _validate_sequences(model, sequences) -> list:
    """:func:`validate_obs` for each sequence; an error names the index of the sequence it is in."""
    validated = []
    for i, obs in enumerate(sequences):
        try:
            validated.append(validate_obs(model, obs))
        except (ObservationError, SizeCapError) as err:
            raise type(err)(f"sequence {i}: {err}") from err
    return validated


def _check_symbol_range(values, size, what):
    bad = np.nonzero((values < 0) | (values >= size))[0]
    if bad.size:
        t = int(bad[0])
        raise ObservationError(
            f"{what} {int(values[t])} at step {t} outside valid range 0..{size - 1}"
        )
