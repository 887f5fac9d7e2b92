"""Exact scaled forward-backward inference and particle filtering on a joint chain.

The forward pass normalizes each step by its total probability mass c_t, so
log P(y_{1:T}) accumulates as sum(log c_t) without underflow.  The backward
pass reuses the same factors, one step out of phase, which makes the
smoothed posterior simply the elementwise product of the two scaled tables.

The recursion is written once, over a time-major stack of evidence tables
``E[t, b, i]``, the probability of step t's observation of sequence b in
state i, so each step works on one contiguous block; a single sequence is a
stack of one.  Each query has one route, ``route(model, sequences, *args)``,
which builds the model's chain and evidence from
:func:`dbnkit.convert._joint_view` once, so it accepts an HMM, a coupled HMM
or a 2TBN: an HMM's tables are its emission columns (``emit.T[obs]``), a
coupled HMM's the products of its per-chain columns, a 2TBN's one-hot rows.
A route stacks the sequences of each length within consecutive windows of a
file that fit the byte budget, runs every table of a stack in the same step,
and yields the query's result for each sequence.  The CLI runs a route on a
file, and each public query runs it on a list of one sequence
(:func:`_one`).
Baum-Welch and coupled EM share its E-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .convert import _joint_emission, _joint_view
from .errors import DegenerateWeightsError, ImpossibleObservationError
from .models import _check_array_bytes, _count, _rows_within_budget, validate_obs
from .sampling import _cumulative


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
    from the pairwise weights of :func:`_posterior_stack` when first read, and
    reading it raises SizeCapError if it would not fit
    ``models.MAX_ARRAY_BYTES``.
    """

    gamma: np.ndarray
    scaled_alpha: np.ndarray = field(repr=False)
    trans: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self.gamma, self.scaled_alpha, self.pair_weights)

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


def _budget_windows(sequences, cap, width):
    """Cut ``sequences``, in order, into lists of at most ``cap`` columns, or of one sequence.

    A length-T sequence takes max(T, width) columns.
    """
    window, cols = [], 0
    for obs in sequences:
        cols += max(len(obs), width)
        if window and cols > cap:
            yield window
            window, cols = [], max(len(obs), width)
        window.append(obs)
    if window:
        yield window


def _in_length_stacks(sequences, n, width, run):
    """Run ``run`` over stacks of equal-length sequences; yield its per-sequence items in order.

    The sequences are cut, in order, into windows of at most
    MAX_ARRAY_BYTES // (8 n) columns, a length-T sequence taking
    max(T, width), and the sequences of each length in a window form a stack,
    so that a window's T x B x n tables and B x width x n arrays fit the
    budget together.  ``run(obs)`` gets a stack's time-major observations
    ``obs[T, B, ...]`` and returns ``(first, finish)``: ``first[b]`` is the
    first impossible step of sequence b, or T if it has none, and
    ``finish()`` returns one item per sequence of the stack.  A window's
    items are yielded, and let go, before the next window runs, so a reader
    that drops each item holds arrays bounded by the budget.  The first
    window with an impossible sequence raises for its lowest-index one, at
    its first impossible step, and no later window runs.
    """
    start = 0
    for window in _budget_windows(sequences, _rows_within_budget(n), width):
        groups, items, failure = {}, {}, None
        for i, obs in enumerate(window):
            groups.setdefault(len(obs), []).append(i)
        for T, idx in groups.items():
            first, finish = run(np.stack([window[i] for i in idx], axis=1))
            bad = np.flatnonzero(first < T)
            if bad.size:
                cand = (start + idx[bad[0]], int(first[bad[0]]))
                failure = cand if failure is None else min(failure, cand)
            elif failure is None:
                items.update(zip(idx, finish()))
            del finish  # from here on, only the items hold any of the stack's arrays
        if failure is not None:
            i, t = failure
            raise ImpossibleObservationError(
                t, f"sequence {i}: observation at time step {t} is impossible under the current model"
            )
        yield from map(items.pop, range(len(window)))
        start += len(window)


def _grouped(model, sequences, width, finish):
    """:func:`_in_length_stacks` over forward passes on ``model``'s joint view, built here once.

    A stack's time-major observations ``obs[T, B, ...]`` are mapped to its
    evidence stack ``E[T, B, n]``, and ``finish(trans, obs, E, alpha, scale)``
    returns one item per sequence of the stack.
    """
    pi, trans, evidence = _joint_view(model)

    def run(obs):
        E = evidence(obs)
        alpha, scale, first = _forward_stack(pi, trans, E)
        return first, lambda: finish(trans, obs, E, alpha, scale)

    return _in_length_stacks(sequences, trans.shape[0], width, run)


def _expectations(model, sequences, summarize, width):
    """Yield each sequence's E-step statistics, in the order of ``sequences``.

    Per stack of equal-length sequences (see :func:`_in_length_stacks`),
    gamma ``[T, B, n]``, the sums over t of xi_t ``[B, n, n]`` and the
    log-likelihoods are computed for the whole stack; ``summarize(obs, gamma,
    xi_sums, lls)`` reduces them to one item per sequence, and ``width``
    bounds its per-sequence arrays to width x n entries.
    """

    def finish(trans, obs, E, alpha, scale):
        gamma, w = _posterior_stack(trans, E, alpha, scale)
        # Strided views, which BLAS reads with a transpose flag as in a
        # one-table product; a contiguous copy of alpha would round differently.
        xi_sums = np.matmul(alpha[:-1].transpose(1, 2, 0), w.transpose(1, 0, 2))
        xi_sums *= trans
        return summarize(obs, gamma, xi_sums, _sequence_log_likelihoods(scale))

    return _grouped(model, sequences, width, finish)


def _log_likelihoods(model, sequences):
    """Yield each sequence's log-likelihood, in order, from forward passes over length stacks."""
    return _grouped(model, sequences, 0, lambda trans, obs, E, alpha, scale: _sequence_log_likelihoods(scale))


def _filtered(model, sequences):
    """Yield each sequence's ForwardResult, in order, from length-stacked forward passes."""

    def finish(trans, obs, E, alpha, scale):
        return map(ForwardResult, alpha.transpose(1, 0, 2), scale.T, _sequence_log_likelihoods(scale))

    return _grouped(model, sequences, 0, finish)


def _smoothed(model, sequences):
    """Yield each sequence's PosteriorResult, in order, from stacked forward-backward."""

    def finish(trans, obs, E, alpha, scale):
        gamma, w = _posterior_stack(trans, E, alpha, scale)
        return [PosteriorResult(gamma[:, b], alpha[:, b], trans, w[:, b]) for b in range(alpha.shape[1])]

    return _grouped(model, sequences, 0, finish)


def _predicted(model, sequences, horizon):
    """Yield each sequence's last filtered row, pushed ``horizon`` times through the transition and normalized."""

    def finish(trans, obs, E, alpha, scale):
        for p in alpha[-1]:
            for _ in range(horizon):
                p = p @ trans
            yield p / p.sum()

    return _grouped(model, sequences, 0, finish)


def _one(route, model, obs, *args):
    """The item that ``route``, a query's route over a file, yields on the list of one sequence ``obs``.

    ``obs`` is validated once.  An impossible step or a degenerate ensemble is
    raised with the one-sequence message, which names no sequence.
    """
    obs = validate_obs(model, obs)
    try:
        return next(route(model, [obs], *args))
    except (ImpossibleObservationError, DegenerateWeightsError) as err:
        raise type(err)(err.t) from None


def _checked_scale(scale_factors, T):
    scale_factors = np.asarray(scale_factors, dtype=np.float64)
    if scale_factors.shape != (T,):
        raise ValueError(
            f"scale_factors must have length {T} to match the observations, "
            f"got shape {scale_factors.shape}"
        )
    bad = np.flatnonzero(~((scale_factors > 0.0) & (scale_factors < np.inf)))
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"scale_factors must be finite and positive, as forward's are; step {t} has {scale_factors[t]}"
        )
    return scale_factors


def forward(model, obs) -> ForwardResult:
    """Run the scaled forward recursion.

    The first step folds in the first emission, alpha_1 = pi * B[:, y_1];
    each later step propagates through the transition matrix and multiplies
    in the new emission column.  Raises ImpossibleObservationError at the
    first step whose total probability is exactly zero.
    """
    return _one(_filtered, model, obs)


def backward(model, obs, scale_factors) -> BackwardResult:
    """Run the scaled backward recursion using the forward pass's factors.

    Row t holds beta_t divided by c_{t+1} * ... * c_T, which is exactly the
    scaling that makes gamma_t proportional to scaled_alpha_t * scaled_beta_t.
    """
    obs = validate_obs(model, obs)
    _, trans, evidence = _joint_view(model)
    E = evidence(obs)
    scale_factors = _checked_scale(scale_factors, E.shape[0])
    return BackwardResult(_backward_stack(trans, E[:, None], scale_factors[:, None])[:, 0])


def log_likelihood(model, obs) -> float:
    """log P(obs) under the model, via the scaled forward pass."""
    return _one(_log_likelihoods, model, obs)


def filter(model, obs) -> np.ndarray:
    """Filtered state marginals: row t is P(x_t | y_{1:t})."""
    return forward(model, obs).scaled_alpha


def smooth(model, obs) -> PosteriorResult:
    """Full-sequence smoothing: gamma, plus pairwise xi built when it is read."""
    return _one(_smoothed, model, obs)


def predict_state(model, obs, horizon: int = 1) -> np.ndarray:
    """Distribution of the state ``horizon`` steps past the end of ``obs``.

    Horizon 1 is the filtered distribution pushed once through the
    transition matrix; larger horizons apply the transition repeatedly.
    """
    return _one(_predicted, model, obs, _count(horizon, "horizon"))


def predict_obs(model, obs) -> np.ndarray:
    """One-step-ahead symbol distribution P(y_{T+1} | y_{1:T}), over a coupled model's joint symbols."""
    return _joint_emission(model)(predict_state(model, obs, 1))


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


def _lifting_table(trans):
    """``(table, P)`` for :func:`_propagate`: row i is the running sums of ``trans[i, :n-1]``, +inf-padded to width P.

    P = 2**bit_length(n-1) exceeds n-1, so every row ends in at least one +inf.
    P can be up to 2n - 2, so it is checked against MAX_ARRAY_BYTES on its own, before it is built.
    """
    n = trans.shape[0]
    P = 1 << (n - 1).bit_length()
    _check_array_bytes("particle lifting table", n, P)
    table = np.full((n, P), np.inf)
    np.cumsum(trans[:, : n - 1], axis=1, out=table[:, : n - 1])
    return table.ravel(), P


def _propagate(table, P, x, u):
    """Next states ``min(#{j : trans_cum[x, j] <= u}, n-1)``, by binary lifting.

    The rows of ``trans_cum``, the transition's running row sums, are
    nondecreasing, so that is the count over the first n-1 entries alone,
    which the lifting finds in log2 P rounds of one lookup per particle: with
    ``pos`` the flat index of row x's entry k - 1, k grows by ``b`` whenever
    entry ``k + b - 1`` of the padded row is <= u.
    """
    start = x * P - 1
    pos = start.copy()
    b = P >> 1
    while b:
        pos += b * (table.take(pos + b) <= u)
        b >>= 1
    return pos - start


def _systematic_resample(weights, rng):
    """K particle indices drawn at positions (u + k) / K, for one uniform u, from the cumulative row of ``weights``."""
    K = weights.shape[0]
    return _cumulative(weights).searchsorted((rng.random() + np.arange(K)) / K, "right")


def _particle_filters(model, sequences, num_particles, seed, resample_threshold=0.5):
    """Yield :func:`particle_filter`'s result for each sequence, in order; a degenerate ensemble names its sequence.

    The model's joint view is built, the arguments are checked, and the
    initial :func:`dbnkit.sampling._cumulative` row and the lifting table
    built, once per file; each sequence runs on its own ``default_rng(seed)``,
    weighing step t's particles by row t of its evidence table.
    """
    pi, trans, evidence = _joint_view(model)
    K = _count(num_particles, "num_particles")
    _check_array_bytes("particle ensemble", K)
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError(f"resample_threshold must be in [0, 1], got {resample_threshold}")
    initial = _cumulative(pi)
    table, P = _lifting_table(trans)
    for i, obs in enumerate(sequences):
        rng = np.random.default_rng(seed)
        E = evidence(obs)
        T, n = E.shape
        estimates = np.empty((T, n))
        ess = np.empty(T)
        resampled = np.zeros(T, dtype=bool)

        x = initial.searchsorted(rng.random(K), "right")
        w = E[0][x]
        for t in range(T):
            if t > 0:
                if ess[t - 1] < resample_threshold * K:
                    x = x[_systematic_resample(w, rng)]
                    w = np.full(K, 1.0 / K)
                    resampled[t] = True
                x = _propagate(table, P, x, rng.random(K))
                w = w * E[t][x]
            total = w.sum()
            if total == 0.0:
                raise DegenerateWeightsError(t, f"sequence {i}: all particle weights are zero at time step {t}")
            w = w / total
            estimates[t] = np.bincount(x, weights=w, minlength=n)
            ess[t] = 1.0 / np.sum(w * w)
        yield ParticleFilterResult(estimates, ess, resampled, x, w)


def particle_filter(
    model, obs, num_particles: int, seed: int, resample_threshold: float = 0.5
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
    return _one(_particle_filters, model, obs, num_particles, seed, resample_threshold)
