"""Seeded generative sampling, plus random-model construction for testing.

Every model is sampled as chains, one slice at a time: an HMM is one chain
whose parent is itself, a 2TBN is its joint chain, whose symbol is its
state, and a coupled HMM draws each chain's state from its table at its
parents' previous states.  All draws run through a single
``numpy.random.default_rng(seed)`` stream in a fixed order (every chain's
state, then every chain's symbol, one step at a time), so output is a pure
function of (model, length, seed).  Bit-exact reproducibility across numpy
versions is not promised; statistical tolerances absorb that.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .convert import _tbn_chain
from .models import ChmmModel, HmmModel, Tbn2Model, _check_array_bytes, _count, nearest_neighbor_parents


def sample(model, length: int, seed: int):
    """Draw (state path, observations) of ``length`` steps from the model.

    For an HmmModel both outputs are 1-D int arrays of length T, and for a
    Tbn2Model they are those of its joint chain.  For a ChmmModel both are
    (T, L) arrays with one state/symbol per chain.  Raises SizeCapError,
    before drawing anything, if one of them would not fit the byte budget.
    """
    return _sampled(_chains(model), _count(length, "length"), seed)


def _cumulative(table, out=None):
    """Cumulative rows over the last axis, into ``out`` (may be ``table``), the last entry inf so no draw runs past it."""
    out = np.cumsum(table, axis=-1, out=out)
    out[..., -1] = np.inf
    return out


def _chains(model):
    """``(shape, initials, transitions, emissions)``: the per-chain tables that :func:`_sampled` draws from.

    Each chain has a cumulative initial row, a cumulative transition table
    paired with a getter of its parents' entries from the previous step's
    states, and cumulative emission rows.  ``shape`` is one step's draw: ()
    for the one chain of an HMM or of a 2TBN (built once and accumulated in
    place), (L,) for a coupled HMM.  A 2TBN's symbol is its state: its
    emission row i is the view ``[-inf] * i + [inf]`` of one row, which draws
    i at every uniform, in place of an n x n identity table.
    """
    if isinstance(model, ChmmModel):
        initials, emissions = map(_cumulative, model.initials), map(_cumulative, model.emissions)
        transitions = [(_cumulative(t), itemgetter(*model.parents(l))) for l, t in enumerate(model._chain_tables)]
        return (model.num_chains,), list(initials), transitions, list(emissions)
    if isinstance(model, Tbn2Model):
        pi, trans = _tbn_chain(model)
        trans = _cumulative(trans, out=trans)
        row = np.r_[np.full(len(pi) - 1, -np.inf), np.inf]
        emissions = [row[-1 - i :] for i in range(len(pi))]
    elif isinstance(model, HmmModel):
        pi, trans, emissions = model.pi, _cumulative(model.trans), _cumulative(model.emit)
    else:
        raise TypeError(f"cannot sample from model type {type(model).__name__}")
    return (), [_cumulative(pi)], [(trans, itemgetter(0))], [emissions]


def _sampled(chains, length, seed):
    """One seeded draw of ``length`` steps from :func:`_chains`'s view, after checking the paths' bytes."""
    shape, initials, transitions, emissions = chains
    _check_array_bytes("sampled path", length, *shape)
    states = np.empty((length, len(initials)), dtype=np.int64)
    symbols = np.empty_like(states)
    uniform = np.random.default_rng(seed).random
    x = [row.searchsorted(uniform(), "right") for row in initials]
    for t in range(length):
        if t:
            x = [table[parents(x)].searchsorted(uniform(), "right") for table, parents in transitions]
        states[t] = x
        symbols[t] = [emit[i].searchsorted(uniform(), "right") for emit, i in zip(emissions, x)]
    return states.reshape((length,) + shape), symbols.reshape((length,) + shape)


def _as_rng(rng):
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def random_hmm(num_states: int, num_symbols: int, rng) -> HmmModel:
    """HMM with rows drawn uniformly from the probability simplex."""
    rng = _as_rng(rng)
    return HmmModel(
        pi=rng.dirichlet(np.ones(num_states)),
        trans=rng.dirichlet(np.ones(num_states), size=num_states),
        emit=rng.dirichlet(np.ones(num_symbols), size=num_states),
    )


def random_chmm(states_per_chain, symbols_per_chain, rng, parents=None) -> ChmmModel:
    """CHMM with simplex-uniform rows; nearest-neighbor topology by default."""
    rng = _as_rng(rng)
    sizes = tuple(int(n) for n in states_per_chain)
    symbols = tuple(int(m) for m in symbols_per_chain)
    if len(sizes) != len(symbols):
        raise ValueError("states_per_chain and symbols_per_chain must have the same length")
    L = len(sizes)
    if parents is None:
        parents = nearest_neighbor_parents(L)
    couplings = {}
    for l in range(L):
        for p in parents[l]:
            couplings[(p, l)] = rng.dirichlet(np.ones(sizes[l]), size=sizes[p])
    return ChmmModel(
        initials=[rng.dirichlet(np.ones(n)) for n in sizes],
        emissions=[rng.dirichlet(np.ones(m), size=n) for n, m in zip(sizes, symbols)],
        couplings=couplings,
    )
