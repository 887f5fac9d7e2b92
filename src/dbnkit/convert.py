"""Exact model conversions onto a single joint-state chain.

Joint indices are row-major over the component order (component 0 varies
slowest), for both states and symbols.  These conversions exist partly as a
second, structurally different route to the same distributions: flattening
a coupled model and running plain HMM inference must agree with the direct
coupled recursions to near machine precision.  The CLI never flattens a
coupled model: ``flatten_chmm`` is only that reference route.
"""

from __future__ import annotations

import math

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
    obs = validate_obs(model, obs)
    return np.ravel_multi_index(
        tuple(obs[:, l] for l in range(model.num_chains)), model.symbols_per_chain
    )


def hmm_to_chmm(model: HmmModel) -> ChmmModel:
    """Wrap an HMM as the single chain of a coupled model."""
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
