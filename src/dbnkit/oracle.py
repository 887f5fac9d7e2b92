"""Brute-force reference results by exhaustive enumeration of hidden paths.

The enumeration functions are deliberately independent of the scaled
recursions elsewhere in the package: plain probability-space sums over every
path, with a size guard instead of numerical scaling.  Only
:func:`run_equivalence_checks` (the CLI's ``oracle-check``) calls the fast
implementations, to compare them against enumeration and against each other.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import inference
from .convert import flatten_chmm, flatten_obs
from .decoding import DecodeResult, viterbi
from .errors import ImpossibleObservationError, SizeCapError
from .models import HmmModel, validate_obs
from .sampling import random_chmm, random_hmm

# Enumeration guard: N**T may not exceed this.
MAX_PATHS = 10**6


def _guarded_obs(model, obs):
    obs = validate_obs(model, obs)
    if model.num_states ** obs.shape[0] > MAX_PATHS:
        raise SizeCapError(
            f"enumerating {model.num_states}^{obs.shape[0]} paths exceeds the cap of {MAX_PATHS}"
        )
    return obs


def _path_probability(model, obs, path):
    p = model.pi[path[0]] * model.emit[path[0], obs[0]]
    for t in range(1, obs.shape[0]):
        p *= model.trans[path[t - 1], path[t]] * model.emit[path[t], obs[t]]
    return p


def enum_likelihood(model: HmmModel, obs) -> float:
    """Exact P(obs): the sum of every hidden path's joint probability."""
    obs = _guarded_obs(model, obs)
    total = 0.0
    for path in itertools.product(range(model.num_states), repeat=obs.shape[0]):
        total += _path_probability(model, obs, path)
    return total


def enum_posterior(model: HmmModel, obs):
    """Posteriors (gamma, xi) by enumeration.

    gamma[t, i] is P(x_t = i | obs); xi[t, i, j] is P(x_t = i, x_{t+1} = j | obs).
    """
    obs = _guarded_obs(model, obs)
    T = obs.shape[0]
    n = model.num_states
    gamma = np.zeros((T, n))
    xi = np.zeros((T - 1, n, n))
    total = 0.0
    for path in itertools.product(range(n), repeat=T):
        p = _path_probability(model, obs, path)
        total += p
        for t in range(T):
            gamma[t, path[t]] += p
        for t in range(T - 1):
            xi[t, path[t], path[t + 1]] += p
    if total == 0.0:
        raise ImpossibleObservationError(None)
    return gamma / total, xi / total


def enum_map_path(model: HmmModel, obs) -> DecodeResult:
    """Exhaustive argmax over hidden paths; ties go to the lexicographically smallest path."""
    obs = _guarded_obs(model, obs)
    best_p = -1.0
    best = None
    # itertools.product yields paths in lexicographic order, so a strict
    # improvement test keeps the smallest path among exact ties.
    for path in itertools.product(range(model.num_states), repeat=obs.shape[0]):
        p = _path_probability(model, obs, path)
        if p > best_p:
            best_p, best = p, path
    with np.errstate(divide="ignore"):
        return DecodeResult(np.array(best, dtype=np.int64), float(np.log(best_p)))


def run_equivalence_checks(count: int, seed: int):
    """Compare the fast implementations against enumeration on random instances.

    Returns a list of (check name, worst deviation, tolerance) triples.
    Path mismatches count as deviation 1.0; a NaN deviation stays the worst.
    """
    rng = np.random.default_rng(seed)
    lik_dev = gamma_dev = xi_dev = path_dev = score_dev = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=T)
        fwd = inference.forward(model, obs)
        lik_dev = np.maximum(lik_dev, abs(np.exp(fwd.log_likelihood) - enum_likelihood(model, obs)))
        post = inference.smooth(model, obs)
        ref_gamma, ref_xi = enum_posterior(model, obs)
        gamma_dev = np.maximum(gamma_dev, float(np.abs(post.gamma - ref_gamma).max()))
        if T > 1:
            xi_dev = np.maximum(xi_dev, float(np.abs(post.xi - ref_xi).max()))
        decoded = viterbi(model, obs)
        ref_path = enum_map_path(model, obs)
        if not np.array_equal(decoded.path, ref_path.path):
            path_dev = 1.0
        ref_p = np.exp(ref_path.log_joint_score)
        score_dev = np.maximum(score_dev, abs(np.exp(decoded.log_joint_score) - ref_p) / ref_p)

    recon_dev = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 5))
        T = int(rng.integers(1, 201))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=T)
        fwd = inference.forward(model, obs)
        bwd = inference.backward(model, obs, fwd.scale_factors)
        first = float(np.dot(model.pi * model.emit[:, obs[0]], bwd.scaled_beta[0]))
        recon = np.log(first) + float(np.log(fwd.scale_factors[1:]).sum())
        recon_dev = np.maximum(recon_dev, abs(recon - fwd.log_likelihood))

    chmm_lik_dev = chmm_gamma_dev = 0.0
    for _ in range(count):
        L = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(L)]
        symbols = [int(rng.integers(1, 4)) for _ in range(L)]
        model = random_chmm(sizes, symbols, rng)
        T = int(rng.integers(1, 6))
        obs = np.stack([rng.integers(0, symbols[l], size=T) for l in range(L)], axis=1)
        direct = inference.log_likelihood(model, obs)
        flat = flatten_chmm(model)
        flat_obs = flatten_obs(model, obs)
        chmm_lik_dev = np.maximum(chmm_lik_dev, abs(direct - inference.log_likelihood(flat, flat_obs)))
        joint_gamma = inference.smooth(model, obs).gamma
        flat_gamma = inference.smooth(flat, flat_obs).gamma
        chmm_gamma_dev = np.maximum(chmm_gamma_dev, float(np.abs(joint_gamma - flat_gamma).max()))

    return [
        ("hmm likelihood vs enumeration", lik_dev, 1e-12),
        ("hmm gamma vs enumeration", gamma_dev, 1e-12),
        ("hmm xi vs enumeration", xi_dev, 1e-12),
        ("viterbi path vs enumeration", path_dev, 0.0),
        ("viterbi score vs enumeration (relative)", score_dev, 1e-12),
        ("backward likelihood reconstruction", recon_dev, 1e-10),
        ("chmm log-likelihood vs flattened", chmm_lik_dev, 1e-12),
        ("chmm joint gamma vs flattened", chmm_gamma_dev, 1e-12),
    ]
