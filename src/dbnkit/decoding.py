"""Most-probable-path decoding (Viterbi).

Scores are kept in log space throughout; probability-space recursions
underflow for sequences of a few hundred steps.  Every max and argmax
breaks ties toward the smallest state index.  Like the forward recursion,
the recursion runs over a time-major stack of log evidence tables.  Every
model, a CHMM included, is decoded on the joint chain and evidence tables
that inference runs on, in the same stacks (see
:func:`dbnkit.inference._in_length_stacks`), by one route over a model and
its sequences: the CLI runs it on a file, and ``viterbi`` on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convert import _joint_view
from .inference import _in_length_stacks, _one


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Best hidden path and its log joint score log max_x P(x_{1:T}, y_{1:T})."""

    path: np.ndarray
    log_joint_score: float

    def __post_init__(self):
        path = np.asarray(self.path, dtype=np.int64)
        path.setflags(write=False)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "log_joint_score", float(self.log_joint_score))


def _viterbi_stack(log_pi, into, log_E):
    """Viterbi over every table of the time-major stack ``log_E[T, B, n]`` at once.

    ``log_E[t, b, i]`` is log P(y_t | x_t = i) for sequence b, and the
    C-ordered ``into[j, i]`` is log P(x_t = j | x_{t-1} = i), so row j holds
    every way into state j; ``log_pi`` and ``into`` may be unnormalized.
    Returns ``(paths, scores, first)``: ``paths[b]`` is sequence b's best
    path, ``scores[b]`` its log joint score, and ``first[b]`` the first step
    at which every score of b is -inf, or T if there is none; such a
    sequence's path and score are not to be read, but the other sequences
    run on.  Each sequence's scores are computed exactly as a stack of one
    would compute them: a step is elementwise adds and a first-max argmax
    per state.
    """
    T, B, n = log_E.shape
    back = np.empty((T, B, n), dtype=np.intp)
    dead = np.empty((T, B), dtype=bool)
    # cand is reused at every step; argmax keeps the first (smallest) predecessor.
    cand = np.empty((B, n, n))
    rows = np.arange(B * n).reshape(B, n) * n  # flat offset of cand[b, j, 0]
    score = log_pi + log_E[0]
    np.isneginf(score).all(axis=1, out=dead[0])
    for t in range(1, T):
        np.add(into, score[:, None, :], out=cand)
        np.argmax(cand, axis=2, out=back[t])
        score = cand.take(rows + back[t])
        score += log_E[t]
        np.isneginf(score).all(axis=1, out=dead[t])
    first = np.where(dead.any(axis=0), dead.argmax(axis=0), T)
    paths = np.empty((B, T), dtype=np.int64)
    paths[:, T - 1] = np.argmax(score, axis=1)
    starts = np.arange(B) * n
    for t in range(T - 1, 0, -1):
        paths[:, t - 1] = back[t].take(starts + paths[:, t])
    scores = score.take(starts + paths[:, T - 1])
    return paths, scores, first


def _viterbi_paths(model, sequences):
    """Yield each validated sequence's DecodeResult, in order, from Viterbi over length stacks.

    The model's joint view is built once, and each new evidence stack it
    makes is logged in place.  See :func:`dbnkit.inference._in_length_stacks`
    for the stacks and for the error raised on an impossible observation.
    """
    pi, trans, evidence = _joint_view(model)
    with np.errstate(divide="ignore"):
        log_pi, into = np.log(pi), np.log(trans.T, order="C")

    def run(obs):
        log_E = evidence(obs)
        with np.errstate(divide="ignore"):
            np.log(log_E, out=log_E)
        paths, scores, first = _viterbi_stack(log_pi, into, log_E)
        return first, lambda: map(DecodeResult, paths, scores)

    n = trans.shape[0]
    return _in_length_stacks(sequences, n, n, run)


def viterbi(model, obs) -> DecodeResult:
    """Most probable hidden state path for a full observation sequence; a coupled model's is over joint states."""
    return _one(_viterbi_paths, model, obs)
