"""Most-probable-path decoding (Viterbi).

Scores are kept in log space throughout; probability-space recursions
underflow for sequences of a few hundred steps.  Every max and argmax
breaks ties toward the smallest state index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleObservationError
from .models import HmmModel, validate_obs


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


def _viterbi_table(log_pi, log_trans, log_E) -> DecodeResult:
    """Viterbi over unnormalized log parameters and ``log_E[t, i] = log P(y_t | x_t = i)``."""
    T, n = log_E.shape
    back = np.zeros((T, n), dtype=np.int64)
    score = log_pi + log_E[0]
    if np.all(np.isneginf(score)):
        raise ImpossibleObservationError(0)
    for t in range(1, T):
        candidates = score[:, None] + log_trans
        back[t] = np.argmax(candidates, axis=0)
        score = candidates[back[t], np.arange(n)] + log_E[t]
        if np.all(np.isneginf(score)):
            raise ImpossibleObservationError(t)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = int(np.argmax(score))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return DecodeResult(path, float(score[path[T - 1]]))


def viterbi(model: HmmModel, obs) -> DecodeResult:
    """Most probable hidden state path for a full observation sequence."""
    obs = validate_obs(model, obs)
    with np.errstate(divide="ignore"):
        return _viterbi_table(np.log(model.pi), np.log(model.trans), np.log(model.emit).T[obs])
