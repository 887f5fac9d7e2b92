"""Every model as a single joint-state chain, and the one layout of its joint indices.

Joint indices are row-major over the component order (component 0 varies
slowest), for both states and symbols; only this module builds or reads
them.  :func:`_joint_view` gives every query its model's chain and evidence,
a coupled HMM's joint transition broadcast from its chain tables.  Its other
tables are one :func:`_product` over chains, and :func:`_marginal` reads
chain and coupling-pair marginals back.  ``flatten_chmm`` gathers the same
tables by joint-state digits instead: a second, structurally different route,
which no query takes and which the tests and the oracle compare against.
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
    """Unroll a two-slice template into its joint-state chain.

    Joint state r encodes an assignment of all template variables, variable
    0 slowest.  The initial distribution multiplies the initial-network
    CPTs; the transition multiplies each variable's two-slice CPT at its
    parents' values, with slice-0 parents read from the source assignment
    and slice-1 parents from the destination.  The chain is fully observed:
    the symbol alphabet is the joint assignment space and the emission
    matrix is the identity.  Raises SizeCapError, before building anything,
    if one n x n array (float or int64 index) exceeds the byte budget.
    """
    if not isinstance(model, Tbn2Model):
        raise TypeError(f"unroll_tbn expects a Tbn2Model, got {type(model).__name__}")
    cards = model.cardinalities
    n = math.prod(cards)
    _check_array_bytes("joint transition", n, n)
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

    return HmmModel(pi=pi, trans=trans, emit=np.eye(n))


def _joint_transition(model: ChmmModel):
    """Joint transition over state tuples (chain 0 slowest), as an n x n matrix.

    Entry [source, destination] is the product, in chain order, of each
    chain's conditional table at its parents' source states and its own
    destination state.
    """
    sizes = model.states_per_chain
    L = model.num_chains
    out = np.ones(sizes + sizes)
    for l in range(L):
        parents = model.parents(l)
        axes = [sizes[k] if k in parents else 1 for k in range(L)]
        axes += [sizes[k] if k == l else 1 for k in range(L)]
        out *= model._chain_tables[l].reshape(axes)
    n = int(np.prod(sizes))
    return out.reshape(n, n)


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
    time-major stack, to a new evidence table over the chain's states.  A
    2TBN is unrolled and a coupled HMM's joint chain is built, each once per
    call, after checking the transition's bytes.
    """
    if isinstance(model, Tbn2Model):
        model = unroll_tbn(model)
    if isinstance(model, ChmmModel):
        sizes = model.states_per_chain
        _check_array_bytes("joint transition", *sizes, *sizes)
        return _product(model.initials), _joint_transition(model), partial(_evidence_table, model)
    emit_T = model.emit.T
    return model.pi, model.trans, lambda obs: emit_T[obs]


def _joint_emission(model):
    """The n x m emission of a model's joint chain; a coupled model's column s is joint symbol s's evidence."""
    if isinstance(model, Tbn2Model):
        return np.eye(math.prod(model.cardinalities))
    if isinstance(model, HmmModel):
        return model.emit
    symbols = model.symbols_per_chain
    _check_array_bytes("joint emission", math.prod(model.states_per_chain), math.prod(symbols))
    return np.ascontiguousarray(_evidence_table(model, np.indices(symbols).reshape(len(symbols), -1).T).T)
