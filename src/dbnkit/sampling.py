"""Seeded generative sampling, plus random-model construction for testing.

All draws run through a single ``numpy.random.default_rng(seed)`` stream in
a fixed order (state, then its emission, one step at a time), so output is
a pure function of (model, length, seed).  Bit-exact reproducibility across
numpy versions is not promised; statistical tolerances absorb that.
"""

from __future__ import annotations

import numpy as np

from .models import ChmmModel, HmmModel, _check_array_bytes, _index, nearest_neighbor_parents


def _draw(cumulative, rng):
    i = np.searchsorted(cumulative, rng.random(), side="right")
    return min(int(i), cumulative.shape[0] - 1)


def sample(model, length: int, seed: int):
    """Draw (state path, observations) of ``length`` steps from the model.

    For an HmmModel both outputs are 1-D int arrays of length T.  For a
    ChmmModel both are (T, L) arrays with one state/symbol per chain.
    Raises SizeCapError, before drawing anything, if one of them would not
    fit the byte budget.
    """
    length = _index(length, "length", ValueError)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    if isinstance(model, HmmModel):
        return _sample_hmm(model, length, rng)
    if isinstance(model, ChmmModel):
        return _sample_chmm(model, length, rng)
    raise TypeError(f"cannot sample from model type {type(model).__name__}")


def _sample_hmm(model, length, rng):
    _check_array_bytes("sampled path", length)
    pi_cum = np.cumsum(model.pi)
    trans_cum = np.cumsum(model.trans, axis=1)
    emit_cum = np.cumsum(model.emit, axis=1)
    states = np.empty(length, dtype=np.int64)
    symbols = np.empty(length, dtype=np.int64)
    x = _draw(pi_cum, rng)
    for t in range(length):
        if t > 0:
            x = _draw(trans_cum[x], rng)
        states[t] = x
        symbols[t] = _draw(emit_cum[x], rng)
    return states, symbols


def _sample_chmm(model, length, rng):
    L = model.num_chains
    _check_array_bytes("sampled path", length, L)
    init_cum = [np.cumsum(p) for p in model.initials]
    emit_cum = [np.cumsum(b, axis=1) for b in model.emissions]
    parents = [list(model.parents(l)) for l in range(L)]
    trans_cum = [np.cumsum(table, axis=-1) for table in model._chain_tables]
    states = np.empty((length, L), dtype=np.int64)
    symbols = np.empty((length, L), dtype=np.int64)
    x = np.empty(L, dtype=np.int64)
    for t in range(length):
        if t == 0:
            for l in range(L):
                x[l] = _draw(init_cum[l], rng)
        else:
            prev = states[t - 1]
            for l in range(L):
                x[l] = _draw(trans_cum[l][tuple(prev[parents[l]])], rng)
        states[t] = x
        for l in range(L):
            symbols[t, l] = _draw(emit_cum[l][x[l]], rng)
    return states, symbols


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
