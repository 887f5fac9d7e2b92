"""Exact scaled forward-backward inference and particle filtering for HMMs.

The forward pass normalizes each step by its total probability mass c_t, so
log P(y_{1:T}) accumulates as sum(log c_t) without underflow.  The backward
pass reuses the same factors, one step out of phase, which makes the
smoothed posterior simply the elementwise product of the two scaled tables.

The recursion is written once, over a time-major stack of evidence tables
``E[t, b, i]``, the probability of step t's observation of sequence b in
state i, so each step works on one contiguous block; a single sequence is a
stack of one.  HMMs and unrolled two-slice templates fill it from emission
columns (``emit.T[obs]``); coupled HMMs (:mod:`dbnkit.chmm`) fill it from
products of per-chain emission columns.  Baum-Welch and coupled EM share its
E-step, which stacks the sequences of each length and runs every table of a
stack in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateWeightsError, ImpossibleObservationError
from .models import HmmModel, _check_array_bytes, _rows_within_budget, validate_obs


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
    from the pairwise weights of :func:`_smooth_one` when first read, and
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


def _forward_stack(pi, trans, E):
    """Scaled forward recursion over every table of the time-major stack ``E[T, B, n]`` at once.

    Returns ``(alpha, scale, first)``, time-major.  ``first[b]`` is the first
    step at which table b has zero mass, or T if it has none; such a table's
    later rows are NaN and are not to be read, but the other tables run on.
    Each row is computed exactly as a one-table recursion would compute it:
    the step is one vector-matrix product per table, ``(B, 1, n) @ (n, n)``,
    where a 2-D ``(B, n) @ (n, n)`` would round differently.
    """
    T, B, n = E.shape
    alpha = np.empty((T, B, 1, n))
    scale = np.empty((T, B, 1, 1))
    rows = E[:, :, None, :]
    np.multiply(pi, rows[0], out=alpha[0])
    # A zero-mass step divides 0 by 0; testing every step for it would cost
    # as much as the step's arithmetic at small n, so it is found afterwards.
    with np.errstate(invalid="ignore"):
        for t in range(T):
            a = alpha[t]
            if t > 0:
                np.matmul(alpha[t - 1], trans, out=a)
                a *= rows[t]
            a /= a.sum(axis=2, keepdims=True, out=scale[t])
    scale = scale.reshape(T, B)
    zero = scale == 0.0
    first = np.where(zero.any(axis=0), zero.argmax(axis=0), T)
    return alpha.reshape(T, B, n), scale, first


def _backward_stack(trans, E, scale):
    """Scaled backward recursion over the time-major stack ``E[T, B, n]``, using the forward pass's factors.

    Overwrites ``E[1:]`` with the pairwise weights
    ``w[t] = E[t+1] * beta[t+1] / c[t+1]``, so that
    xi_t = alpha[t][:, None] * trans * w[t] for each table.  The step is one
    matrix-vector product per table, ``(n, n) @ (B, n, 1)``.
    """
    T, B, n = E.shape
    beta = np.empty((T, B, n, 1))
    beta[T - 1] = 1.0
    cols = E[:, :, :, None]
    c = scale[:, :, None, None]
    for t in range(T - 2, -1, -1):
        v = cols[t + 1]
        v *= beta[t + 1]
        np.matmul(trans, v, out=beta[t])
        beta[t] /= c[t + 1]
    E[1:] /= scale[1:, :, None]
    return beta.reshape(T, B, n)


def _posterior_stack(trans, E, alpha, scale):
    """Smoothed gamma and pairwise weights ``w`` of a forward pass over ``E``.

    gamma is written over the backward table and ``w`` over ``E[1:]``.
    """
    gamma = _backward_stack(trans, E, scale)
    gamma *= alpha
    gamma /= gamma.sum(axis=2, keepdims=True)
    return gamma, E[1:]


def _sequence_log_likelihoods(scale):
    """Per-table sums of log scale factors, each along a contiguous row, which numpy adds pairwise."""
    return np.log(np.ascontiguousarray(scale.T)).sum(axis=1).tolist()


def _forward_one(pi, trans, E) -> ForwardResult:
    """The forward pass over one evidence table ``E[T, n]``, as a stack of one."""
    alpha, scale, first = _forward_stack(pi, trans, E[:, None])
    if first[0] < E.shape[0]:
        raise ImpossibleObservationError(int(first[0]))
    return ForwardResult(alpha[:, 0], scale[:, 0], _sequence_log_likelihoods(scale)[0])


def _smooth_one(pi, trans, E):
    """Forward pass, gamma and pairwise weights over one evidence table, which it overwrites."""
    fwd = _forward_one(pi, trans, E)
    gamma, w = _posterior_stack(trans, E[:, None], fwd.scaled_alpha[:, None], fwd.scale_factors[:, None])
    return fwd, gamma[:, 0], w[:, 0]


def _grouped(pi, trans, sequences, evidence, width, finish):
    """Run the forward pass over stacks of equal-length sequences; yield per-sequence items in order.

    A length-T group is cut into chunks of at most
    MAX_ARRAY_BYTES // (8 n max(T, width)) sequences, so that each of a
    chunk's T x B x n tables and B x width x n statistics fits the byte
    budget.  ``evidence(obs)`` maps a chunk's time-major observations
    ``obs[T, B, ...]`` to its evidence stack ``E[T, B, n]``, and ``finish(obs,
    E, alpha, scale)`` returns one item per sequence of the chunk.  An
    impossible observation stops no chunk's forward pass; once every chunk
    has run, the lowest-index failing sequence is raised at its first
    impossible step.
    """
    groups = {}
    for i, obs in enumerate(sequences):
        groups.setdefault(obs.shape[0], []).append(i)
    failure = None
    pending, nxt = {}, 0
    for T, members in groups.items():
        size = _rows_within_budget(trans.shape[0], max(T, width))
        for k in range(0, len(members), size):
            idx = members[k : k + size]
            obs = np.stack([sequences[i] for i in idx], axis=1)
            E = evidence(obs)
            alpha, scale, first = _forward_stack(pi, trans, E)
            bad = np.flatnonzero(first < T)
            if bad.size:
                cand = (idx[bad[0]], int(first[bad[0]]))
                failure = cand if failure is None else min(failure, cand)
            if failure is None:
                pending.update(zip(idx, finish(obs, E, alpha, scale)))
                while nxt in pending:
                    yield pending.pop(nxt)
                    nxt += 1
    if failure is not None:
        i, t = failure
        raise ImpossibleObservationError(
            t, f"sequence {i}: observation at time step {t} is impossible under the current model"
        )


def _expectations(pi, trans, sequences, evidence, summarize, width):
    """Yield each sequence's E-step statistics, in the order of ``sequences``.

    Per chunk of equal-length sequences (see :func:`_grouped`), gamma
    ``[T, B, n]``, the sums over t of xi_t ``[B, n, n]`` and the
    log-likelihoods are computed for the whole stack; ``summarize(obs, gamma,
    xi_sums, lls)`` reduces them to one item per sequence, and ``width``
    bounds its per-sequence arrays to width x n entries.
    """

    def finish(obs, E, alpha, scale):
        gamma, w = _posterior_stack(trans, E, alpha, scale)
        # Strided views, which BLAS reads with a transpose flag as in a
        # one-table product; a contiguous copy of alpha would round differently.
        xi_sums = np.matmul(alpha[:-1].transpose(1, 2, 0), w.transpose(1, 0, 2))
        xi_sums *= trans
        return summarize(obs, gamma, xi_sums, _sequence_log_likelihoods(scale))

    return _grouped(pi, trans, sequences, evidence, width, finish)


def _log_likelihoods(pi, trans, sequences, evidence):
    """Yield each sequence's log-likelihood, in order, from forward passes over length stacks."""
    return _grouped(
        pi, trans, sequences, evidence, 0, lambda obs, E, alpha, scale: _sequence_log_likelihoods(scale)
    )


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
    return _forward_one(model.pi, model.trans, model.emit.T[obs])


def backward(model: HmmModel, obs, scale_factors) -> BackwardResult:
    """Run the scaled backward recursion using the forward pass's factors.

    Row t holds beta_t divided by c_{t+1} * ... * c_T, which is exactly the
    scaling that makes gamma_t proportional to scaled_alpha_t * scaled_beta_t.
    """
    obs = validate_obs(model, obs)
    scale_factors = _checked_scale(scale_factors, obs.shape[0])
    E = model.emit.T[obs][:, None]
    return BackwardResult(_backward_stack(model.trans, E, scale_factors[:, None])[:, 0])


def log_likelihood(model: HmmModel, obs) -> float:
    """log P(obs) under the model, via the scaled forward pass."""
    return forward(model, obs).log_likelihood


def filter(model: HmmModel, obs) -> np.ndarray:
    """Filtered state marginals: row t is P(x_t | y_{1:t})."""
    return forward(model, obs).scaled_alpha


def smooth(model: HmmModel, obs) -> PosteriorResult:
    """Full-sequence smoothing: gamma, plus pairwise xi built when it is read."""
    obs = validate_obs(model, obs)
    fwd, gamma, w = _smooth_one(model.pi, model.trans, model.emit.T[obs])
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
