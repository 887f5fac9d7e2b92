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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateWeightsError, ImpossibleObservationError
from .models import HmmModel, _check_array_bytes, validate_obs


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
    P(x_t = i, x_{t+1} = j | y_{1:T}), so xi has T-1 slices.  xi is built
    from the pairwise weights of :func:`_smooth_table` when first read, and
    reading it raises SizeCapError if it would not fit
    ``models.MAX_ARRAY_BYTES``.
    """

    gamma: np.ndarray
    scaled_alpha: np.ndarray = field(repr=False)
    trans: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self.gamma, self.pair_weights)

    @cached_property
    def xi(self) -> np.ndarray:
        n = self.trans.shape[0]
        _check_array_bytes("xi", self.pair_weights.shape[0], n, n)
        xi = self.scaled_alpha[:-1, :, None] * self.trans * self.pair_weights[:, None, :]
        _freeze(xi)
        return xi


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
    """Forward pass, smoothed gamma and pairwise weights ``w`` over ``E``.

    ``w[t] = E[t+1] * beta[t+1] / c[t+1]``, so xi_t = alpha[t][:, None] * trans * w[t].
    """
    fwd = _forward_table(pi, trans, E)
    beta = _backward_table(trans, E, fwd.scale_factors)
    gamma = fwd.scaled_alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return fwd, gamma, E[1:] * beta[1:] / fwd.scale_factors[1:, None]


def _expectations(pi, trans, tables):
    """Yield (gamma, sum over t of xi_t, log-likelihood) for each evidence table.

    An impossible observation is reported with the index of its sequence.
    """
    for idx, E in enumerate(tables):
        try:
            fwd, gamma, w = _smooth_table(pi, trans, E)
        except ImpossibleObservationError as err:
            raise ImpossibleObservationError(
                err.t,
                f"sequence {idx}: observation at time step {err.t} is impossible "
                "under the current model",
            ) from err
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
    """Full-sequence smoothing: gamma, plus pairwise xi built when it is read."""
    obs = validate_obs(model, obs)
    fwd, gamma, w = _smooth_table(model.pi, model.trans, model.emit.T[obs])
    return PosteriorResult(gamma, fwd.scaled_alpha, model.trans, w)


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
class ParticleFilterResult:
    """Per-step state-marginal estimates and diagnostics, plus the final ensemble.

    ``estimates[t]`` is the weighted occupancy of each state after the weight
    update at step t, the particle approximation of P(x_t | y_{1:t}).
    ``ess[t]`` is that step's effective sample size 1 / sum(w**2), and
    ``resampled[t]`` is True where the ensemble was resampled before
    propagating to step t (never at t = 0).  ``final_particles`` and
    ``final_weights``, each of length K, are the ensemble after the last
    step's weight update; earlier ensembles are not kept.
    """

    estimates: np.ndarray
    ess: np.ndarray
    resampled: np.ndarray
    final_particles: np.ndarray
    final_weights: np.ndarray

    def __post_init__(self):
        _freeze(self.estimates, self.ess, self.resampled, self.final_particles, self.final_weights)


def _lifting_table(trans_cum):
    """``(table, P)`` for :func:`_propagate`: row i is ``trans_cum[i, :n-1]``, +inf-padded to width P.

    P = 2**bit_length(n-1) exceeds n-1, so every row ends in at least one +inf.
    """
    n = trans_cum.shape[0]
    P = 1 << (n - 1).bit_length()
    table = np.full((n, P), np.inf)
    table[:, : n - 1] = trans_cum[:, : n - 1]
    return table.ravel(), P


def _propagate(table, P, x, u):
    """Next states ``min(#{j : trans_cum[x, j] <= u}, n-1)``, by binary lifting.

    Each row of ``trans_cum`` is the cumulative sum of a nonnegative row, so
    it is nondecreasing: if ``trans_cum[x, n-1] <= u`` every entry counts and
    the clamp gives n-1, the count over the first n-1 entries; otherwise the
    last entry does not count.  Either way the result is the count over the
    first n-1 entries, which the lifting finds in log2 P rounds of one
    lookup per particle: with ``pos`` the flat index of row x's entry k - 1,
    k grows by ``b`` whenever entry ``k + b - 1`` of the padded row is <= u.
    """
    start = x * P - 1
    pos = start.copy()
    b = P >> 1
    while b:
        pos += b * (table.take(pos + b) <= u)
        b >>= 1
    return pos - start


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
    the emission likelihood of each observation; one propagation step costs
    O(K log n) for K particles and n states.  After each weight update
    the effective sample size 1 / sum(w^2) is recorded and compared against
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
    _check_array_bytes("particle ensemble", K)
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError(f"resample_threshold must be in [0, 1], got {resample_threshold}")
    rng = np.random.default_rng(seed)
    T = obs.shape[0]
    n = model.num_states
    table, P = _lifting_table(np.cumsum(model.trans, axis=1))

    estimates = np.empty((T, n))
    ess = np.empty(T)
    resampled = np.zeros(T, dtype=bool)

    pi_cum = np.cumsum(model.pi)
    x = np.minimum(np.searchsorted(pi_cum, rng.random(K), side="right"), n - 1)
    w = model.emit[x, obs[0]].copy()
    for t in range(T):
        if t > 0:
            if ess[t - 1] < resample_threshold * K:
                keep = _systematic_resample(w, rng)
                x = x[keep]
                w = np.full(K, 1.0 / K)
                resampled[t] = True
            x = _propagate(table, P, x, rng.random(K))
            w = w * model.emit[x, obs[t]]
        total = w.sum()
        if total == 0.0:
            raise DegenerateWeightsError(t)
        w = w / total
        estimates[t] = np.bincount(x, weights=w, minlength=n)
        ess[t] = 1.0 / np.sum(w * w)
    return ParticleFilterResult(estimates, ess, resampled, x, w)
