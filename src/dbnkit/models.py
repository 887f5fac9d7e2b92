"""Model types for discrete-state temporal models, plus their validation.

All models are frozen dataclasses over float64 numpy arrays.  Arrays are
copied on construction and marked read-only, so instances are safe to share
across threads.  Validation runs eagerly: a successfully constructed model
always satisfies its shape and stochasticity invariants.

Probability rows are plain 1-D arrays checked by :func:`check_distribution`
(entries nonnegative, sum 1 within ``PROB_ATOL``).  Observation sequences
are plain integer arrays checked against a model by :func:`validate_obs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _frozen_array(values, name, ndim=None, dtype=np.float64):
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as err:
        raise ModelValidationError(f"{name} is not a rectangular numeric array: {err}") from err
    if ndim is not None and arr.ndim != ndim:
        raise ModelValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


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
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise ModelValidationError(f"{name} sums to {total!r}, expected 1")


def _check_stochastic_matrix(mat, name):
    """Raise for the first row of ``mat`` that :func:`check_distribution` rejects.

    Rows are screened with whole-array tests and only flagged rows are checked
    one by one.  The screen uses half the tolerance because a row sum along
    axis 1 may round differently from the 1-D sum; a row it passes is within
    PROB_ATOL under either summation.
    """
    with np.errstate(invalid="ignore"):
        flagged = (
            ~np.isfinite(mat).all(axis=1)
            | (mat < 0.0).any(axis=1)
            | (np.abs(mat.sum(axis=1) - 1.0) > PROB_ATOL / 2)
        )
    for i in np.flatnonzero(flagged):
        check_distribution(mat[i], f"{name} row {i}")


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
    check_distribution(model.pi, "pi")
    _check_stochastic_matrix(model.trans, "A")
    _check_stochastic_matrix(model.emit, "B")


@dataclass(frozen=True, eq=False)
class ChmmModel:
    """Coupled hidden Markov model over L chains.

    ``initials[l]`` is chain l's initial distribution and ``emissions[l]``
    its per-state emission matrix.  ``couplings[(k, l)]`` is a row-stochastic
    matrix giving the influence of chain k's state at time t-1 on chain l's
    state at time t; the parent set of chain l is exactly the set of chains
    k with a (k, l) coupling and must contain l itself.  At each step the
    next state of chain l is drawn from the product of its parents' coupling
    rows, renormalized over chain l's states.
    """

    initials: Sequence[np.ndarray]
    emissions: Sequence[np.ndarray]
    couplings: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        initials = tuple(
            _frozen_array(p, f"chain {l} pi", ndim=1) for l, p in enumerate(self.initials)
        )
        emissions = tuple(
            _frozen_array(b, f"chain {l} emissions", ndim=2) for l, b in enumerate(self.emissions)
        )
        couplings = {}
        for key, mat in dict(self.couplings).items():
            try:
                k, l = (int(key[0]), int(key[1]))
            except (TypeError, ValueError, IndexError) as err:
                raise ModelValidationError(f"coupling key {key!r} is not a (from, to) chain pair") from err
            couplings[(k, l)] = _frozen_array(mat, f"coupling ({k}->{l})", ndim=2)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "emissions", emissions)
        object.__setattr__(self, "couplings", MappingProxyType(couplings))
        validate_chmm(self)

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
    """Chain ``chain``'s transition table P(x_chain' | x_parents).

    One axis per parent chain, in ``model.parents(chain)`` order, then the
    chain's next state on the last axis: the product of the parents'
    coupling rows, renormalized over the last axis.  Raises
    ModelValidationError, naming the first parent configuration in row-major
    order, if some configuration gives the product zero mass.
    """
    parents = model.parents(chain)
    dims = [model.states_per_chain[k] for k in parents + (chain,)]
    _check_array_bytes(f"chain {chain} transition table", *dims)
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
    return table / mass


def nearest_neighbor_parents(num_chains: int) -> tuple[tuple[int, ...], ...]:
    """Default coupling topology: each chain depends on itself and its neighbors."""
    return tuple(
        tuple(k for k in (l - 1, l, l + 1) if 0 <= k < num_chains) for l in range(num_chains)
    )


def validate_chmm(model: ChmmModel) -> None:
    """Check every ChmmModel invariant, including the self-parent topology rule."""
    L = len(model.initials)
    if L == 0:
        raise ModelValidationError("model must have at least one chain")
    if len(model.emissions) != L:
        raise ModelValidationError(
            f"expected {L} emission matrices to match {L} chains, got {len(model.emissions)}"
        )
    sizes = model.states_per_chain
    for l in range(L):
        check_distribution(model.initials[l], f"chain {l} pi")
        if model.emissions[l].shape[0] != sizes[l]:
            raise ModelValidationError(
                f"chain {l} emissions must have {sizes[l]} rows, got shape {model.emissions[l].shape}"
            )
        if model.emissions[l].shape[1] == 0:
            raise ModelValidationError(f"chain {l} emissions must have at least one symbol column")
        _check_stochastic_matrix(model.emissions[l], f"chain {l} emissions")
    for (k, l), mat in model.couplings.items():
        if not (0 <= k < L and 0 <= l < L):
            raise ModelValidationError(f"coupling ({k}->{l}) references a chain outside 0..{L - 1}")
        if mat.shape != (sizes[k], sizes[l]):
            raise ModelValidationError(
                f"coupling ({k}->{l}) must be {sizes[k]}x{sizes[l]}, got shape {mat.shape}"
            )
        _check_stochastic_matrix(mat, f"coupling ({k}->{l})")
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
        object.__setattr__(self, "card", int(self.card))
        object.__setattr__(self, "init_parents", tuple(int(p) for p in self.init_parents))
        object.__setattr__(
            self,
            "trans_parents",
            tuple((int(s), int(v)) for s, v in self.trans_parents),
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


def _is_acyclic(num_nodes, edges):
    # Kahn's algorithm; edges are (parent, child) pairs.
    children = {i: [] for i in range(num_nodes)}
    indegree = [0] * num_nodes
    for parent, child in edges:
        children[parent].append(child)
        indegree[child] += 1
    ready = [i for i in range(num_nodes) if indegree[i] == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return seen == num_nodes


def validate_tbn2(model: Tbn2Model) -> None:
    """Check shapes, CPT stochasticity, and acyclicity of both parent graphs."""
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
        _check_stochastic_matrix(var.init_cpt, f"var {i} init_cpt")
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
        _check_stochastic_matrix(var.trans_cpt, f"var {i} trans_cpt")
    init_edges = [(p, i) for i, var in enumerate(model.variables) for p in var.init_parents]
    if not _is_acyclic(V, init_edges):
        raise ModelValidationError("initial-network parent graph has a cycle")
    intra_edges = [
        (p, i) for i, var in enumerate(model.variables) for s, p in var.trans_parents if s == 1
    ]
    if not _is_acyclic(V, intra_edges):
        raise ModelValidationError("transition-network intra-slice parent graph has a cycle")


def validate_obs(model, obs) -> np.ndarray:
    """Coerce and range-check an observation sequence for ``model``.

    HMM and Tbn2 models take a 1-D sequence of symbol indices; CHMM models
    take a (T, L) array with one symbol per chain per step.  Returns the
    validated int64 array, or raises SizeCapError if a T x (joint states)
    table (evidence, alpha, beta, gamma) would not fit MAX_ARRAY_BYTES.
    """
    arr = np.asarray(obs)
    if arr.size == 0:
        raise ObservationError("observation sequence must have at least one step")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = np.asarray(arr, dtype=np.float64)
        if not np.all(cast == np.floor(cast)):
            raise ObservationError("observation symbols must be integers")
        arr = cast.astype(np.int64)
    else:
        arr = arr.astype(np.int64)

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
    return arr


def _check_symbol_range(values, size, what):
    bad = np.nonzero((values < 0) | (values >= size))[0]
    if bad.size:
        t = int(bad[0])
        raise ObservationError(
            f"{what} {int(values[t])} at step {t} outside valid range 0..{size - 1}"
        )
