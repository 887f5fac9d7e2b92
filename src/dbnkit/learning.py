"""Parameter estimation: closed-form counting and Baum-Welch EM.

With fully observed state paths, maximum-likelihood estimates are plain
count ratios (optionally Dirichlet-smoothed by a pseudocount).  With hidden
states, Baum-Welch alternates smoothing under the current parameters with
row renormalization of the expected counts; the log-likelihood trace is
nondecreasing up to roundoff.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .inference import _expectations
from .models import HmmModel, validate_obs


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule and count smoothing for EM runs.

    Convergence is declared when |ll_k - ll_{k-1}| < rel_tolerance * (1 + |ll_k|).
    ``pseudocount`` is added to every expected count before row normalization;
    with pseudocount 0, rows that collected no mass fall back to uniform.
    """

    max_iterations: int = 200
    rel_tolerance: float = 1e-6
    pseudocount: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.rel_tolerance <= 0.0:
            raise ValueError(f"rel_tolerance must be positive, got {self.rel_tolerance}")
        if self.pseudocount < 0.0:
            raise ValueError(f"pseudocount must be nonnegative, got {self.pseudocount}")


@dataclass(frozen=True, eq=False)
class EmTrace:
    """Log-likelihood of the model at the start of each completed iteration, and the time EM took.

    ``e_step_seconds`` has the wall time of each iteration's E-step, and ``m_step_seconds`` that of
    each M-step taken: one fewer on convergence, which stops an iteration before its M-step.
    """

    log_likelihoods: np.ndarray
    converged: bool
    iterations_run: int
    e_step_seconds: tuple
    m_step_seconds: tuple

    def __post_init__(self):
        lls = np.asarray(self.log_likelihoods, dtype=np.float64)
        lls.setflags(write=False)
        object.__setattr__(self, "log_likelihoods", lls)


@dataclass
class SufficientStats:
    """Expected counts accumulated by an E-step over all sequences."""

    expected_initial: np.ndarray
    expected_transitions: np.ndarray
    expected_emissions: np.ndarray

    @classmethod
    def zeros(cls, num_states, num_symbols):
        return cls(
            expected_initial=np.zeros(num_states),
            expected_transitions=np.zeros((num_states, num_states)),
            expected_emissions=np.zeros((num_states, num_symbols)),
        )


def normalize_rows(counts: np.ndarray, pseudocount: float = 0.0) -> np.ndarray:
    """Row-normalize counts after adding ``pseudocount``; empty rows go uniform."""
    c = counts + pseudocount
    totals = c.sum(axis=1, keepdims=True)
    out = np.empty(c.shape, dtype=np.float64)
    empty = totals[:, 0] == 0.0
    out[empty] = 1.0 / c.shape[1]
    out[~empty] = c[~empty] / totals[~empty]
    return out


def mle_complete(data, num_states: int, num_symbols: int, pseudocount: float = 0.0) -> HmmModel:
    """Closed-form MLE from fully observed (state path, observations) pairs.

    Counts sequence starts, transitions, and emissions across all pairs,
    adds ``pseudocount`` to every cell, and row-normalizes.
    """
    if not data:
        raise ValueError("data must contain at least one (states, observations) pair")
    if pseudocount < 0.0:
        raise ValueError(f"pseudocount must be nonnegative, got {pseudocount}")
    init = np.zeros(num_states)
    trans = np.zeros((num_states, num_states))
    emit = np.zeros((num_states, num_symbols))
    for idx, (states, symbols) in enumerate(data):
        states = np.asarray(states, dtype=np.int64)
        symbols = np.asarray(symbols, dtype=np.int64)
        if states.ndim != 1 or states.shape != symbols.shape or states.size == 0:
            raise ValueError(f"pair {idx}: states and observations must be equal-length nonempty vectors")
        if states.min() < 0 or states.max() >= num_states:
            raise ValueError(f"pair {idx}: state index out of range 0..{num_states - 1}")
        if symbols.min() < 0 or symbols.max() >= num_symbols:
            raise ValueError(f"pair {idx}: symbol index out of range 0..{num_symbols - 1}")
        init[states[0]] += 1.0
        np.add.at(trans, (states[:-1], states[1:]), 1.0)
        np.add.at(emit, (states, symbols), 1.0)
    return HmmModel(
        pi=normalize_rows(init[None, :], pseudocount)[0],
        trans=normalize_rows(trans, pseudocount),
        emit=normalize_rows(emit, pseudocount),
    )


def _e_step(model, sequences):
    n, m = model.num_states, model.num_symbols

    def summarize(obs, gamma, xi_sums, lls):
        # bincount adds each bin's weights in time order, as one sequence at
        # a time would; one call per state keeps its index at T x B entries.
        B = obs.shape[1]
        bins = (obs + m * np.arange(B)).ravel()
        emis = np.empty((n, B * m))
        for i in range(n):
            emis[i] = np.bincount(bins, weights=gamma[:, :, i].ravel(), minlength=B * m)
        return zip(gamma[0].copy(), xi_sums, emis.reshape(n, B, m).transpose(1, 0, 2), lls)

    stats = SufficientStats.zeros(n, m)
    total_ll = 0.0
    per_sequence = _expectations(
        model.pi, model.trans, sequences, lambda obs: model.emit.T[obs], summarize, max(n, m)
    )
    for gamma0, xi_sum, emis, ll in per_sequence:
        total_ll += ll
        stats.expected_initial += gamma0
        stats.expected_transitions += xi_sum
        stats.expected_emissions += emis
    return stats, total_ll


def _m_step(stats, pseudocount):
    return HmmModel(
        pi=normalize_rows(stats.expected_initial[None, :], pseudocount)[0],
        trans=normalize_rows(stats.expected_transitions, pseudocount),
        emit=normalize_rows(stats.expected_emissions, pseudocount),
    )


def baum_welch(init: HmmModel, sequences, config: EmConfig = EmConfig()):
    """EM parameter estimation for an HMM from observation sequences.

    Each iteration smooths every sequence under the current model,
    accumulates expected initial/transition/emission counts in listed
    order, and renormalizes rows.  The trace records the total
    log-likelihood of the model each iteration started from; when the
    stopping rule fires, the model that achieved the final trace entry is
    returned without a further update.

    Returns (trained model, EmTrace).
    """
    return _run_em(
        init, sequences, config, _e_step,
        lambda model, stats, sequences, ll, pseudocount: _m_step(stats, pseudocount),
    )


def _run_em(init, sequences, config, e_step, m_step):
    """The EM loop shared by every model type.

    Validates each sequence once, then alternates ``e_step(model, sequences)``,
    which returns (stats, total log-likelihood), with
    ``m_step(model, stats, sequences, total log-likelihood, pseudocount)``,
    which returns the next model, until the stopping rule in ``config``
    fires or the iteration cap is reached.  Returns (model, EmTrace).
    """
    sequences = [validate_obs(init, s) for s in sequences]
    if not sequences:
        raise ValueError("sequences must be nonempty")
    model = init
    lls, e_seconds, m_seconds = [], [], []
    converged = False
    for _ in range(config.max_iterations):
        start = time.perf_counter()
        stats, total_ll = e_step(model, sequences)
        e_seconds.append(time.perf_counter() - start)
        lls.append(total_ll)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) < config.rel_tolerance * (1.0 + abs(lls[-1])):
            converged = True
            break
        start = time.perf_counter()
        model = m_step(model, stats, sequences, total_ll, config.pseudocount)
        m_seconds.append(time.perf_counter() - start)
    return model, EmTrace(np.array(lls), converged, len(lls), tuple(e_seconds), tuple(m_seconds))
