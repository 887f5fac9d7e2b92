"""Exact scaled forward-backward inference and particle filtering for HMMs.

The forward pass normalizes each step by its total probability mass c_t, so
log P(y_{1:T}) accumulates as sum(log c_t) without underflow.  The backward
pass reuses the same factors, one step out of phase, which makes the
smoothed posterior simply the elementwise product of the two scaled tables.

The recursion is written once, over an evidence table ``E[t, i]``, the
probability of step t's observation in state i.  HMMs and unrolled
two-slice templates fill it from emission columns (``emit.T[obs]``);
coupled HMMs (:mod:`dbnkit.chmm`) fill it from products of per-chain
emission columns, and Baum-Welch and coupled EM share its E-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, ImpossibleObservationError
from .models import HmmModel, validate_obs


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ForwardResult:
    """Scaled forward pass.

    ``scaled_alpha[t]`` is P(x_t | y_{1:t}) and sums to 1; ``scale_factors[t]``
    is the mass c_t removed at step t, so ``log_likelihood`` equals
    sum(log(scale_factors)).
    """

    scaled_alpha: np.ndarray
    scale_factors: np.ndarray
    log_likelihood: float

    def __post_init__(self):
        _freeze(self.scaled_alpha, self.scale_factors)


@dataclass(frozen=True, eq=False)
class BackwardResult:
    """Scaled backward pass; the final row is all ones by definition."""

    scaled_beta: np.ndarray

    def __post_init__(self):
        _freeze(self.scaled_beta)


@dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Smoothed posteriors.

    ``gamma[t, i]`` is P(x_t = i | y_{1:T}); ``xi[t, i, j]`` is
    P(x_t = i, x_{t+1} = j | y_{1:T}), so xi has T-1 slices.
    """

    gamma: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        _freeze(self.gamma, self.xi)


def _forward_table(pi, trans, E) -> ForwardResult:
    """Scaled forward recursion over the evidence table ``E``."""
    T, n = E.shape
    scaled = np.empty((T, n))
    scale = np.empty(T)
    a = pi * E[0]
    for t in range(T):
        if t > 0:
            a = (scaled[t - 1] @ trans) * E[t]
        c = a.sum()
        if c == 0.0:
            raise ImpossibleObservationError(t)
        scale[t] = c
        scaled[t] = a / c
    return ForwardResult(scaled, scale, float(np.log(scale).sum()))


def _backward_table(trans, E, scale):
    """Scaled backward recursion over ``E``, using the forward pass's factors."""
    T = E.shape[0]
    beta = np.empty(E.shape)
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = trans @ (E[t + 1] * beta[t + 1]) / scale[t + 1]
    return beta


def _smooth_table(pi, trans, E):
    """Forward pass, scaled backward table and smoothed gamma over ``E``."""
    fwd = _forward_table(pi, trans, E)
    beta = _backward_table(trans, E, fwd.scale_factors)
    gamma = fwd.scaled_alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return fwd, beta, gamma


def _expectations(pi, trans, tables):
    """Yield (gamma, sum over t of xi_t, log-likelihood) for each evidence table.

    An impossible observation is reported with the index of its sequence.
    """
    for idx, E in enumerate(tables):
        try:
            fwd, beta, gamma = _smooth_table(pi, trans, E)
        except ImpossibleObservationError as err:
            raise ImpossibleObservationError(
                err.t,
                f"sequence {idx}: observation at time step {err.t} is impossible "
                "under the current model",
            ) from err
        # sum_t xi_t = A * (alpha[:-1]^T @ W) with W the evidence-weighted,
        # rescaled backward table one step ahead.
        w = E[1:] * beta[1:] / fwd.scale_factors[1:, None]
        yield gamma, trans * (fwd.scaled_alpha[:-1].T @ w), fwd.log_likelihood


def _checked_scale(scale_factors, T):
    scale_factors = np.asarray(scale_factors, dtype=np.float64)
    if scale_factors.shape != (T,):
        raise ValueError(
            f"scale_factors must have length {T} to match the observations, "
            f"got shape {scale_factors.shape}"
        )
    return scale_factors


def forward(model: HmmModel, obs) -> ForwardResult:
    """Run the scaled forward recursion.

    The first step folds in the first emission, alpha_1 = pi * B[:, y_1];
    each later step propagates through the transition matrix and multiplies
    in the new emission column.  Raises ImpossibleObservationError at the
    first step whose total probability is exactly zero.
    """
    obs = validate_obs(model, obs)
    return _forward_table(model.pi, model.trans, model.emit.T[obs])


def backward(model: HmmModel, obs, scale_factors) -> BackwardResult:
    """Run the scaled backward recursion using the forward pass's factors.

    Row t holds beta_t divided by c_{t+1} * ... * c_T, which is exactly the
    scaling that makes gamma_t proportional to scaled_alpha_t * scaled_beta_t.
    """
    obs = validate_obs(model, obs)
    scale_factors = _checked_scale(scale_factors, obs.shape[0])
    return BackwardResult(_backward_table(model.trans, model.emit.T[obs], scale_factors))


def log_likelihood(model: HmmModel, obs) -> float:
    """log P(obs) under the model, via the scaled forward pass."""
    return forward(model, obs).log_likelihood


def filter(model: HmmModel, obs) -> np.ndarray:
    """Filtered state marginals: row t is P(x_t | y_{1:t})."""
    return forward(model, obs).scaled_alpha


def smooth(model: HmmModel, obs) -> PosteriorResult:
    """Full-sequence smoothing: single-slice gamma and pairwise xi posteriors."""
    obs = validate_obs(model, obs)
    E = model.emit.T[obs]
    fwd, beta, gamma = _smooth_table(model.pi, model.trans, E)
    alpha = fwd.scaled_alpha
    T, n = alpha.shape
    xi = np.empty((T - 1, n, n))
    for t in range(T - 1):
        m = (alpha[t][:, None] * model.trans) * (E[t + 1] * beta[t + 1])[None, :]
        xi[t] = m / m.sum()
    return PosteriorResult(gamma, xi)


def predict_state(model: HmmModel, obs, horizon: int = 1) -> np.ndarray:
    """Distribution of the state ``horizon`` steps past the end of ``obs``.

    Horizon 1 is the filtered distribution pushed once through the
    transition matrix; larger horizons apply the transition repeatedly.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p = forward(model, obs).scaled_alpha[-1]
    for _ in range(horizon):
        p = p @ model.trans
    return p / p.sum()


def predict_obs(model: HmmModel, obs) -> np.ndarray:
    """One-step-ahead symbol distribution P(y_{T+1} | y_{1:T})."""
    return predict_state(model, obs, 1) @ model.emit


@dataclass(frozen=True, eq=False)
class ParticleSet:
    """Weighted particle approximation of one filtering step."""

    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _freeze(self.particles, self.weights)


@dataclass(frozen=True, eq=False)
class ParticleFilterResult:
    """Per-step particle sets plus their weighted state-marginal estimates.

    ``particles[t]`` and ``weights[t]`` describe the ensemble after the
    weight update at step t; ``estimates[t]`` is the weighted occupancy of
    each state, the particle approximation of P(x_t | y_{1:t}).
    """

    particles: np.ndarray
    weights: np.ndarray
    estimates: np.ndarray

    def __post_init__(self):
        _freeze(self.particles, self.weights, self.estimates)

    def __len__(self) -> int:
        return self.particles.shape[0]

    def step(self, t: int) -> ParticleSet:
        return ParticleSet(self.particles[t], self.weights[t])


def _systematic_resample(weights, rng):
    K = weights.shape[0]
    positions = (rng.random() + np.arange(K)) / K
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, K - 1)


def particle_filter(
    model: HmmModel,
    obs,
    num_particles: int,
    seed: int,
    resample_threshold: float = 0.5,
) -> ParticleFilterResult:
    """Bootstrap particle filter with systematic resampling.

    Particles propagate through the transition prior and are reweighted by
    the emission likelihood of each observation.  After each weight update
    the effective sample size 1 / sum(w^2) is compared against
    ``resample_threshold * num_particles``; when it drops below, the
    ensemble is systematically resampled and weights reset to uniform
    before the next propagation.  Output is a pure function of the seed.

    Raises DegenerateWeightsError when every particle has zero emission
    probability at some step.
    """
    obs = validate_obs(model, obs)
    K = int(num_particles)
    if K < 1:
        raise ValueError(f"num_particles must be >= 1, got {K}")
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError(f"resample_threshold must be in [0, 1], got {resample_threshold}")
    rng = np.random.default_rng(seed)
    T = obs.shape[0]
    n = model.num_states
    trans_cum = np.cumsum(model.trans, axis=1)

    particles = np.empty((T, K), dtype=np.int64)
    weights = np.empty((T, K))
    estimates = np.empty((T, n))

    pi_cum = np.cumsum(model.pi)
    x = np.minimum(np.searchsorted(pi_cum, rng.random(K), side="right"), n - 1)
    w = model.emit[x, obs[0]].copy()
    for t in range(T):
        if t > 0:
            if 1.0 / np.sum(w * w) < resample_threshold * K:
                keep = _systematic_resample(w, rng)
                x = x[keep]
                w = np.full(K, 1.0 / K)
            u = rng.random(K)
            x = np.minimum((trans_cum[x] <= u[:, None]).sum(axis=1), n - 1)
            w = w * model.emit[x, obs[t]]
        total = w.sum()
        if total == 0.0:
            raise DegenerateWeightsError(t)
        w = w / total
        particles[t] = x
        weights[t] = w
        estimates[t] = np.bincount(x, weights=w, minlength=n)
    return ParticleFilterResult(particles, weights, estimates)
