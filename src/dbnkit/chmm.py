"""Direct joint inference and EM for coupled HMMs.

A coupled HMM is an HMM over joint chain-state tuples, stored as flat
row-major indices (chain 0 slowest), whose evidence factorises over chains:
the evidence table multiplies each chain's emission column, and the scaled
recursion and E-step are the shared ones in :mod:`dbnkit.inference`.  The
joint transition is built tuple by tuple from the renormalized product of
each chain's parent coupling rows; this is kept structurally separate from
``convert.flatten_chmm`` so the two routes can cross-validate each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .convert import _checked_product
from .inference import (
    ForwardResult,
    _backward_table,
    _checked_scale,
    _expectations,
    _forward_table,
    _freeze,
    _smooth_table,
)
from .learning import EmConfig, EmTrace, normalize_rows
from .models import ChmmModel, DEFAULT_JOINT_CAP, validate_obs


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


def _joint_chain(model, max_joint_states=DEFAULT_JOINT_CAP):
    """Joint initial distribution and transition, after checking the joint size against the cap."""
    _checked_product(model.states_per_chain, max_joint_states, "joint state space")
    return _joint_initial(model), _joint_transition(model)


def _joint_transition(model):
    """Joint transition over state tuples, built one source tuple at a time."""
    sizes = model.states_per_chain
    L = model.num_chains
    parents = [model.parents(l) for l in range(L)]
    n = int(np.prod(sizes))
    out = np.empty((n, n))
    for s, src in enumerate(itertools.product(*(range(k) for k in sizes))):
        row = None
        for l in range(L):
            w = np.ones(sizes[l])
            for p in parents[l]:
                w = w * model.couplings[(p, l)][src[p]]
            total = w.sum()
            if total == 0.0:
                raise ValueError(
                    f"coupling product for chain {l} from states {src} has zero mass"
                )
            w = w / total
            row = w if row is None else np.multiply.outer(row, w)
        out[s] = row.reshape(-1)
    return out


def _joint_initial(model):
    vec = None
    for p in model.initials:
        vec = p if vec is None else np.multiply.outer(vec, p)
    return vec.reshape(-1)


def _evidence_table(model, obs):
    """E[t, r]: probability of step t's per-chain symbols in joint state r, chain 0 first."""
    E = None
    for l in range(model.num_chains):
        cols = model.emissions[l].T[obs[:, l]]
        E = cols if E is None else (E[:, :, None] * cols[:, None, :]).reshape(obs.shape[0], -1)
    return E


def chmm_forward(model: ChmmModel, obs, max_joint_states: int = DEFAULT_JOINT_CAP) -> ForwardResult:
    """Scaled joint forward recursion for a coupled HMM.

    The base case multiplies per-chain initials and first emissions; each
    later step pushes the joint table through the coupled transition and
    multiplies in the per-chain emission columns.
    """
    obs = validate_obs(model, obs)
    pi, trans = _joint_chain(model, max_joint_states)
    return _forward_table(pi, trans, _evidence_table(model, obs))


def chmm_backward(model: ChmmModel, obs, scale_factors, max_joint_states: int = DEFAULT_JOINT_CAP) -> np.ndarray:
    """Scaled joint backward table, using the forward pass's scale factors."""
    obs = validate_obs(model, obs)
    _, trans = _joint_chain(model, max_joint_states)
    scale_factors = _checked_scale(scale_factors, obs.shape[0])
    return _backward_table(trans, _evidence_table(model, obs), scale_factors)


def chmm_likelihood(model: ChmmModel, obs, max_joint_states: int = DEFAULT_JOINT_CAP) -> float:
    """log P(obs) for a coupled HMM, summed over joint final states."""
    return chmm_forward(model, obs, max_joint_states).log_likelihood


def chmm_smooth(model: ChmmModel, obs, max_joint_states: int = DEFAULT_JOINT_CAP) -> ChmmPosterior:
    """Joint smoothed posterior and per-chain marginals for a coupled HMM."""
    obs = validate_obs(model, obs)
    pi, trans = _joint_chain(model, max_joint_states)
    _, _, gamma = _smooth_table(pi, trans, _evidence_table(model, obs))
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
    sequences = [validate_obs(init, s) for s in sequences]
    if not sequences:
        raise ValueError("sequences must be nonempty")
    model = init
    lls = []
    converged = False
    for _ in range(config.max_iterations):
        stats, total_ll = _chmm_e_step(model, sequences)
        lls.append(total_ll)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) < config.rel_tolerance * (1.0 + abs(lls[-1])):
            converged = True
            break
        model = _safeguarded_update(model, stats, sequences, total_ll, config.pseudocount)
    return model, EmTrace(np.array(lls), converged, len(lls))


def _chmm_e_step(model, sequences):
    sizes = model.states_per_chain
    symbols = model.symbols_per_chain
    L = model.num_chains
    pi, trans = _joint_chain(model)
    init_counts = [np.zeros(sizes[l]) for l in range(L)]
    emit_counts = [np.zeros((sizes[l], symbols[l])) for l in range(L)]
    pair_counts = {key: np.zeros(mat.shape) for key, mat in model.couplings.items()}
    total_ll = 0.0
    tables = (_evidence_table(model, obs) for obs in sequences)
    for obs, (gamma, xi_sum, ll) in zip(sequences, _expectations(pi, trans, tables)):
        total_ll += ll
        chain_gammas = _chain_marginals(model, gamma)
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
    for obs in sequences:
        total += _forward_table(pi, trans, _evidence_table(model, obs)).log_likelihood
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
