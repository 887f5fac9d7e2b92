"""Direct joint inference and EM for coupled HMMs.

A coupled HMM is an HMM over joint chain-state tuples, stored as flat
row-major indices (chain 0 slowest), whose evidence factorises over chains:
the evidence table multiplies each chain's emission column, and the scaled
recursion and E-step are the shared ones in :mod:`dbnkit.inference`.  The
joint transition broadcasts each chain's conditional table
(``models._chain_conditional``) from its parents' source axes onto its own
destination axis and multiplies the chains in; ``convert.flatten_chmm``
gathers the same tables by joint-state digits instead, so the two routes
stay structurally separate and can cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .inference import (
    ForwardResult,
    _backward_stack,
    _checked_scale,
    _expectations,
    _forward_one,
    _freeze,
    _log_likelihoods,
    _smooth_one,
)
from .learning import EmConfig, _run_em, normalize_rows
from .models import ChmmModel, _chain_conditional, _check_array_bytes, validate_obs


@dataclass(frozen=True, eq=False)
class ChmmPosterior:
    """Joint smoothed posterior plus its per-chain marginals.

    ``gamma[t, r]`` is the posterior of joint state r at step t;
    ``chain_gammas[l][t, j]`` is the marginal posterior of chain l.
    """

    gamma: np.ndarray
    chain_gammas: tuple

    def __post_init__(self):
        _freeze(self.gamma, *self.chain_gammas)


def _joint_chain(model):
    """Joint initial distribution and transition, after checking the transition's bytes."""
    sizes = model.states_per_chain
    _check_array_bytes("joint transition", *sizes, *sizes)
    return _joint_initial(model), _joint_transition(model)


def _joint_transition(model):
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
        out *= _chain_conditional(model, l).reshape(axes)
    n = int(np.prod(sizes))
    return out.reshape(n, n)


def _joint_initial(model):
    vec = None
    for p in model.initials:
        vec = p if vec is None else np.multiply.outer(vec, p)
    return vec.reshape(-1)


def _evidence_table(model, obs):
    """E[t, ..., r]: probability of step t's per-chain symbols in joint state r, chain 0 first.

    ``obs`` is one sequence ``[T, L]`` or a time-major stack ``[T, B, L]``.
    """
    E = None
    for l in range(model.num_chains):
        cols = model.emissions[l].T[obs[..., l]]
        E = cols if E is None else (E[..., :, None] * cols[..., None, :]).reshape(obs.shape[:-1] + (-1,))
    return E


def chmm_forward(model: ChmmModel, obs) -> ForwardResult:
    """Scaled joint forward recursion for a coupled HMM.

    The base case multiplies per-chain initials and first emissions; each
    later step pushes the joint table through the coupled transition and
    multiplies in the per-chain emission columns.
    """
    obs = validate_obs(model, obs)
    pi, trans = _joint_chain(model)
    return _forward_one(pi, trans, _evidence_table(model, obs))


def chmm_backward(model: ChmmModel, obs, scale_factors) -> np.ndarray:
    """Scaled joint backward table, using the forward pass's scale factors."""
    obs = validate_obs(model, obs)
    _, trans = _joint_chain(model)
    scale_factors = _checked_scale(scale_factors, obs.shape[0])
    return _backward_stack(trans, _evidence_table(model, obs)[:, None], scale_factors[:, None])[:, 0]


def chmm_likelihood(model: ChmmModel, obs) -> float:
    """log P(obs) for a coupled HMM, summed over joint final states."""
    return chmm_forward(model, obs).log_likelihood


def chmm_smooth(model: ChmmModel, obs) -> ChmmPosterior:
    """Joint smoothed posterior and per-chain marginals for a coupled HMM."""
    obs = validate_obs(model, obs)
    pi, trans = _joint_chain(model)
    _, gamma, _ = _smooth_one(pi, trans, _evidence_table(model, obs))
    return ChmmPosterior(gamma, _chain_marginals(model, gamma))


def _chain_marginals(model, gamma):
    sizes = model.states_per_chain
    L = model.num_chains
    shaped = gamma.reshape((gamma.shape[0],) + sizes)
    out = []
    for l in range(L):
        axes = tuple(1 + k for k in range(L) if k != l)
        out.append(shaped.sum(axis=axes) if axes else shaped.copy())
    return tuple(out)


def chmm_em(init: ChmmModel, sequences, config: EmConfig = EmConfig()):
    """EM for coupled HMMs over the joint chain.

    The E-step computes joint single-slice and pairwise posteriors through
    the joint recursions.  The M-step re-estimates each chain's initial
    distribution and emissions from the chain marginals (an exact
    coordinate update), and proposes new couplings by marginalizing the
    expected joint transition counts onto each directed chain pair.

    Because the coupled transition renormalizes a product of coupling rows,
    the count-based coupling proposal is a surrogate and can overshoot, so
    each iteration is safeguarded: if the proposal would lower the total
    log-likelihood, the coupling step is halved toward the previous
    parameters until it no longer does, keeping the previous couplings
    outright as the final fallback.  The recorded trace is therefore
    nondecreasing up to roundoff.

    Returns (trained model, EmTrace).
    """
    return _run_em(init, sequences, config, _chmm_e_step, _safeguarded_update)


def _chmm_e_step(model, sequences):
    sizes = model.states_per_chain
    symbols = model.symbols_per_chain
    L = model.num_chains
    pi, trans = _joint_chain(model)
    init_counts = [np.zeros(sizes[l]) for l in range(L)]
    emit_counts = [np.zeros((sizes[l], symbols[l])) for l in range(L)]
    pair_counts = {key: np.zeros(mat.shape) for key, mat in model.couplings.items()}
    total_ll = 0.0
    per_sequence = _expectations(
        pi, trans, sequences, partial(_evidence_table, model),
        lambda obs, gamma, xi_sums, lls: [
            (_chain_marginals(model, g), xi_sum, ll)
            for g, xi_sum, ll in zip(gamma.transpose(1, 0, 2), xi_sums, lls)
        ],
        trans.shape[0],
    )
    for obs, (chain_gammas, xi_sum, ll) in zip(sequences, per_sequence):
        total_ll += ll
        for l in range(L):
            init_counts[l] += chain_gammas[l][0]
            np.add.at(emit_counts[l].T, obs[:, l], chain_gammas[l])
        shaped = xi_sum.reshape(sizes + sizes)
        for (k, l) in pair_counts:
            axes = tuple(i for i in range(2 * L) if i != k and i != L + l)
            pair_counts[(k, l)] += shaped.sum(axis=axes)
    return (init_counts, emit_counts, pair_counts), total_ll


def _total_log_likelihood(model, sequences):
    pi, trans = _joint_chain(model)
    total = 0.0
    for ll in _log_likelihoods(pi, trans, sequences, partial(_evidence_table, model)):
        total += ll
    return total


def _safeguarded_update(model, stats, sequences, current_ll, pseudocount):
    init_counts, emit_counts, pair_counts = stats
    new_initials = [normalize_rows(c[None, :], pseudocount)[0] for c in init_counts]
    new_emissions = [normalize_rows(c, pseudocount) for c in emit_counts]
    proposed = {key: normalize_rows(c, pseudocount) for key, c in pair_counts.items()}
    slack = 1e-12 * (1.0 + abs(current_ll))
    for step in (1.0, 0.5, 0.25, 0.125):
        couplings = {
            key: (1.0 - step) * model.couplings[key] + step * proposed[key] for key in proposed
        }
        candidate = ChmmModel(initials=new_initials, emissions=new_emissions, couplings=couplings)
        if _total_log_likelihood(candidate, sequences) >= current_ll - slack:
            return candidate
    # Updating only initials and emissions is an exact coordinate M-step, so
    # it cannot lower the likelihood.
    return ChmmModel(
        initials=new_initials, emissions=new_emissions, couplings=dict(model.couplings)
    )
