"""Every model as a single joint-state chain, and the one layout of its joint indices.

Joint indices are row-major over the component order (component 0 varies
slowest), for both states and symbols; only this module builds or reads
them.  :func:`_joint_view` gives every query its model's chain and evidence;
one builder broadcasts every joint transition, a coupled HMM's from its chain
tables and a 2TBN's from its CPTs.  Other tables are one :func:`_product`
over chains, and :func:`_marginal` reads chain and coupling-pair marginals
back.  ``flatten_chmm`` gathers the same tables by joint-state digits: a
second, structurally different route, which no query takes and which the
tests and the oracle compare against.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .models import (
    ChmmModel,
    HmmModel,
    Tbn2Model,
    _check_array_bytes,
    validate_obs,
)


def flatten_chmm(model: ChmmModel) -> HmmModel:
    """Collapse a coupled HMM into an equivalent joint-state HMM.

    Joint state r encodes the chain-state tuple with chain 0 slowest, and
    joint symbols encode per-chain symbol tuples the same way (see
    :func:`flatten_obs`).  The joint transition multiplies, per chain, the
    rows of that chain's conditional table gathered at each source state's
    parent digits; the joint emission and initial distributions are plain
    products across chains.  Raises SizeCapError, before building anything,
    if the n x n transition or the n x m emission exceeds the byte budget.
    """
    if not isinstance(model, ChmmModel):
        raise TypeError(f"flatten_chmm expects a ChmmModel, got {type(model).__name__}")
    sizes = model.states_per_chain
    symbols = model.symbols_per_chain
    n = math.prod(sizes)
    m = math.prod(symbols)
    _check_array_bytes("joint transition", n, n)
    _check_array_bytes("joint emission", n, m)
    L = model.num_chains
    state_digit = np.unravel_index(np.arange(n), sizes)
    symbol_digit = np.unravel_index(np.arange(m), symbols)

    pi = np.ones(n)
    for l in range(L):
        pi = pi * model.initials[l][state_digit[l]]

    trans = np.ones((n, n))
    for l in range(L):
        cond = model._chain_tables[l][tuple(state_digit[p] for p in model.parents(l))]
        trans *= cond[:, state_digit[l]]

    emit = np.ones((n, m))
    for l in range(L):
        emit = emit * model.emissions[l][state_digit[l][:, None], symbol_digit[l][None, :]]

    return HmmModel(pi=pi, trans=trans, emit=emit)


def flatten_obs(model: ChmmModel, obs) -> np.ndarray:
    """Map per-chain observation tuples to joint symbol indices (row-major)."""
    if not isinstance(model, ChmmModel):
        raise TypeError(f"flatten_obs expects a ChmmModel, got {type(model).__name__}")
    obs = validate_obs(model, obs)
    return np.ravel_multi_index(
        tuple(obs[:, l] for l in range(model.num_chains)), model.symbols_per_chain
    )


def hmm_to_chmm(model: HmmModel) -> ChmmModel:
    """Wrap an HMM as the single chain of a coupled model."""
    if not isinstance(model, HmmModel):
        raise TypeError(f"hmm_to_chmm expects an HmmModel, got {type(model).__name__}")
    return ChmmModel(
        initials=[model.pi],
        emissions=[model.emit],
        couplings={(0, 0): model.trans},
    )


def unroll_tbn(model: Tbn2Model) -> HmmModel:
    """A two-slice template's joint chain (:func:`_tbn_chain`) as a validated HmmModel, with the identity emission."""
    if not isinstance(model, Tbn2Model):
        raise TypeError(f"unroll_tbn expects a Tbn2Model, got {type(model).__name__}")
    pi, trans = _tbn_chain(model)
    return HmmModel(pi=pi, trans=trans, emit=np.eye(len(pi)))


def _broadcast_product(grid, factors):
    """The product, left to right, of ``(table, axes)`` factors broadcast over ``grid``, row-major.

    ``table`` is read row-major over the grid axes ``axes``, in that order.
    Axes of size 1 are dropped from the result, so any number of them fit.
    """
    live = [k for k, size in enumerate(grid) if size > 1]
    out = np.ones([grid[k] for k in live])
    for table, axes in factors:
        table = table.reshape([grid[a] for a in axes]).transpose(sorted(range(len(axes)), key=axes.__getitem__))
        out *= table.reshape([grid[k] if k in axes else 1 for k in live])
    return out


def _tbn_chain(model: Tbn2Model):
    """``(pi, trans)``: a 2TBN's joint chain, over assignments of all its variables (variable 0 slowest).

    Both multiply, in variable order, each variable's initial or two-slice
    CPT; slice-0 parents index the source and slice-1 parents the
    destination.  Raises SizeCapError first if trans would not fit the budget.
    """
    cards = model.cardinalities
    V, n = len(cards), math.prod(cards)
    _check_array_bytes("joint transition", n, n)
    pi = _broadcast_product(cards, [(var.init_cpt, var.init_parents + (v,)) for v, var in enumerate(model.variables)])
    families = ([p + V * s for s, p in var.trans_parents + ((1, v),)] for v, var in enumerate(model.variables))
    trans = _broadcast_product(cards + cards, [(var.trans_cpt, f) for var, f in zip(model.variables, families)])
    return pi.reshape(n), trans.reshape(n, n)


def _joint_transition(model: ChmmModel):
    """Joint transition over state tuples (chain 0 slowest), as an n x n matrix.

    Entry [source, destination] is the product, in chain order, of each
    chain's conditional table at its parents' source states and its own
    destination state.
    """
    sizes = model.states_per_chain
    L = model.num_chains
    factors = [(table, model.parents(l) + (L + l,)) for l, table in enumerate(model._chain_tables)]
    n = math.prod(sizes)
    return _broadcast_product(sizes + sizes, factors).reshape(n, n)


def _product(factors):
    """Per-component factors ``[..., j]`` multiplied, left to right, over the joint index of their last axes."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[..., :, None] * f[..., None, :]).reshape(out.shape[:-1] + (-1,))
    return out


def _marginal(table, sizes, keep):
    """Sum the joint index of ``table``'s last axis, over components of ``sizes``, onto those in ``keep``."""
    drop = tuple(table.ndim - 1 + k for k in range(len(sizes)) if k not in keep)
    return table.reshape(table.shape[:-1] + tuple(sizes)).sum(axis=drop)


def _chain_marginals(model: ChmmModel, table):
    """Each chain's marginal of a table over joint states (its last axis)."""
    return tuple(_marginal(table, model.states_per_chain, (l,)) for l in range(model.num_chains))


def _pair_marginals(model: ChmmModel, xi_sums):
    """Each coupling (k, l)'s marginal, source chain k by destination chain l, of ``xi_sums[..., n, n]``."""
    sizes = model.states_per_chain
    flat = xi_sums.reshape(xi_sums.shape[:-2] + (-1,))
    return {(k, l): _marginal(flat, sizes + sizes, (k, len(sizes) + l)) for k, l in model.couplings}


def _evidence_table(model: ChmmModel, obs):
    """E[t, ..., r]: probability of step t's per-chain symbols in joint state r, chain 0 first.

    ``obs`` is one sequence ``[T, L]`` or a time-major stack ``[T, B, L]``.
    """
    return _product([emit.T[obs[..., l]] for l, emit in enumerate(model.emissions)])


def _joint_view(model):
    """``(pi, trans, evidence)``: the joint chain of any model, and its evidence tables.

    ``evidence(obs)`` maps validated observations, one sequence or a
    time-major stack, to a new evidence table over the chain's states: a
    2TBN's is one-hot.  A 2TBN's or coupled HMM's chain is built once per
    call, after checking the transition's bytes.
    """
    if isinstance(model, Tbn2Model):
        pi, trans = _tbn_chain(model)
        states = np.arange(len(pi))
        return pi, trans, lambda obs: (obs[..., None] == states).astype(np.float64)
    if isinstance(model, ChmmModel):
        sizes = model.states_per_chain
        _check_array_bytes("joint transition", *sizes, *sizes)
        return _product(model.initials), _joint_transition(model), partial(_evidence_table, model)
    emit_T = model.emit.T
    return model.pi, model.trans, lambda obs: emit_T[obs]


def _joint_emission(model):
    """``p -> p @ emit`` over a model's joint chain; a coupled model's column s is joint symbol s's evidence."""
    if isinstance(model, Tbn2Model):
        return lambda p: p  # its symbol is its state: no n x n identity
    if isinstance(model, HmmModel):
        return lambda p: p @ model.emit
    symbols = model.symbols_per_chain
    _check_array_bytes("joint emission", math.prod(model.states_per_chain), math.prod(symbols))
    emit = np.ascontiguousarray(_evidence_table(model, np.indices(symbols).reshape(len(symbols), -1).T).T)
    return lambda p: p @ emit
