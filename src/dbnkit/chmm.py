"""Coupled HMMs: EM over the joint chain, and the chain marginals of its posterior.

A coupled HMM is an HMM over joint chain-state tuples, stored as flat
indices that only :mod:`dbnkit.convert` lays out, builds and reads, whose
evidence factorises over chains.  Every route of :mod:`dbnkit.inference` and
:mod:`dbnkit.decoding` takes a model and its sequences and builds the joint
chain and evidence tables from :func:`dbnkit.convert._joint_view` itself, so
it takes a coupled model as it is, on the route the CLI runs.
``chmm_forward`` and ``chmm_likelihood`` are ``forward`` and
``log_likelihood`` under older names; ``chmm_backward`` returns the backward
table, and ``chmm_smooth`` the CLI's smoothed posterior of one sequence with
each chain's marginal.  Coupled EM runs the E-step of
:mod:`dbnkit.inference` on the model, in :mod:`dbnkit.learning`'s loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convert import _chain_marginals, _pair_marginals
from .inference import _expectations, _freeze, _log_likelihoods, backward, forward, log_likelihood, smooth
from .learning import EmConfig, _run_em, normalize_rows
from .models import ChmmModel


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


# The queries of every model type are the same functions; these names are kept for existing callers.
chmm_forward = forward
chmm_likelihood = log_likelihood


def chmm_backward(model: ChmmModel, obs, scale_factors) -> np.ndarray:
    """Scaled joint backward table, using the forward pass's scale factors."""
    return backward(model, obs, scale_factors).scaled_beta


def chmm_smooth(model: ChmmModel, obs) -> ChmmPosterior:
    """Joint smoothed posterior and per-chain marginals for a coupled HMM."""
    gamma = smooth(model, obs).gamma
    return ChmmPosterior(gamma, _chain_marginals(model, gamma))


def chmm_em(init: ChmmModel, sequences, config: EmConfig = EmConfig()):
    """EM for coupled HMMs over the joint chain.

    The E-step computes joint single-slice and pairwise posteriors through
    the joint recursions.  The M-step re-estimates each chain's initial
    distribution and emissions from the chain marginals (an exact
    coordinate update), and proposes new couplings by marginalizing the
    expected joint transition counts onto each directed chain pair.

    Because the coupled transition renormalizes a product of coupling rows,
    the count-based coupling proposal is a surrogate and can overshoot, so
    each iteration is safeguarded: the coupling step, starting at the full
    proposal, is halved toward the previous couplings while it would lower
    the total log-likelihood, three times at most; the loop then ends at
    step 0, which keeps the previous couplings and so needs no likelihood
    pass.  The recorded trace is therefore nondecreasing up to roundoff.

    Returns (trained model, EmTrace).
    """
    if not isinstance(init, ChmmModel):
        raise TypeError(f"chmm_em expects a ChmmModel, got {type(init).__name__}")
    return _run_em(init, sequences, config, _chmm_e_step, _safeguarded_update)


def _chmm_e_step(model, sequences):
    def summarize(obs, gamma, xi_sums, lls):
        # One sum per stack: its row b has the bits of sequence b's own sum.
        chains, pairs = _chain_marginals(model, gamma), _pair_marginals(model, xi_sums)
        return [([g[:, b] for g in chains], {k: p[b] for k, p in pairs.items()}, ll) for b, ll in enumerate(lls)]

    init_counts = [np.zeros(p.shape) for p in model.initials]
    emit_counts = [np.zeros(e.shape) for e in model.emissions]
    pair_counts = {key: np.zeros(mat.shape) for key, mat in model.couplings.items()}
    total_ll = 0.0
    per_sequence = _expectations(model, sequences, summarize, math.prod(model.states_per_chain))
    for obs, (chain_gammas, pairs, ll) in zip(sequences, per_sequence):
        total_ll += ll
        for l, g in enumerate(chain_gammas):
            init_counts[l] += g[0]
            np.add.at(emit_counts[l].T, obs[:, l], g)
        for key, counts in pairs.items():
            pair_counts[key] += counts
    return (init_counts, emit_counts, pair_counts), total_ll


def _total_log_likelihood(model, sequences):
    total = 0.0
    for ll in _log_likelihoods(model, sequences):
        total += ll
    return total


def _safeguarded_update(model, counts, sequences, current_ll, pseudocount):
    init_counts, emit_counts, pair_counts = counts
    new_initials = [normalize_rows(c, pseudocount) for c in init_counts]
    new_emissions = [normalize_rows(c, pseudocount) for c in emit_counts]
    proposed = {key: normalize_rows(c, pseudocount) for key, c in pair_counts.items()}
    slack = 1e-12 * (1.0 + abs(current_ll))
    # Step 0 keeps the couplings bit for bit (1.0 * c + 0.0 * p == c for finite, nonnegative entries):
    # an exact coordinate M-step of initials and emissions, which cannot lower the likelihood.
    for step in (1.0, 0.5, 0.25, 0.125, 0.0):
        couplings = {
            key: (1.0 - step) * model.couplings[key] + step * proposed[key] for key in proposed
        }
        candidate = ChmmModel(initials=new_initials, emissions=new_emissions, couplings=couplings)
        if step == 0.0 or _total_log_likelihood(candidate, sequences) >= current_ll - slack:
            return candidate
