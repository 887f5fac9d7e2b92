"""The particle filter's route over a file draws, weighs and fails exactly as the per-sequence filter it replaced.

``_frozen_particle_filters`` is that earlier route, kept here as it was: it
checked its arguments and built its lifting table again for every sequence,
and clamped its start and resampling draws with ``np.minimum``, where
:func:`dbnkit.inference._particle_filters` checks and builds once per file and
reads its draws from :func:`dbnkit.sampling._cumulative` rows, whose last
entry is +inf.  Every result field must match bit for bit, and every error in
type and message.
"""

import numpy as np
import pytest

from dbnkit import HmmModel, Tbn2Model, TbnVariable, models, random_chmm, random_hmm, sample
from dbnkit.convert import _joint_view
from dbnkit.errors import DegenerateWeightsError, SizeCapError
from dbnkit.inference import ParticleFilterResult, _lifting_table, _particle_filters, _propagate
from dbnkit.models import _check_array_bytes, _index

FIELDS = ("estimates", "ess", "resampled", "final_particles", "final_weights")


def _frozen_systematic_resample(weights, rng):
    K = weights.shape[0]
    positions = (rng.random() + np.arange(K)) / K
    idx = np.searchsorted(np.cumsum(weights), positions, side="right")
    return np.minimum(idx, K - 1)


def _frozen_particle_filter(pi, trans, E, num_particles, seed, resample_threshold=0.5):
    K = _index(num_particles, "num_particles", ValueError)
    if K < 1:
        raise ValueError(f"num_particles must be >= 1, got {K}")
    _check_array_bytes("particle ensemble", K)
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError(f"resample_threshold must be in [0, 1], got {resample_threshold}")
    rng = np.random.default_rng(seed)
    T, n = E.shape
    table, P = _lifting_table(trans)

    estimates = np.empty((T, n))
    ess = np.empty(T)
    resampled = np.zeros(T, dtype=bool)

    x = np.minimum(np.searchsorted(np.cumsum(pi), rng.random(K), side="right"), n - 1)
    w = E[0][x]
    for t in range(T):
        if t > 0:
            if ess[t - 1] < resample_threshold * K:
                keep = _frozen_systematic_resample(w, rng)
                x = x[keep]
                w = np.full(K, 1.0 / K)
                resampled[t] = True
            x = _propagate(table, P, x, rng.random(K))
            w = w * E[t][x]
        total = w.sum()
        if total == 0.0:
            raise DegenerateWeightsError(t)
        w = w / total
        estimates[t] = np.bincount(x, weights=w, minlength=n)
        ess[t] = 1.0 / np.sum(w * w)
    return ParticleFilterResult(estimates, ess, resampled, x, w)


def _frozen_particle_filters(pi, trans, sequences, evidence, num_particles, seed, resample_threshold=0.5):
    for i, obs in enumerate(sequences):
        try:
            yield _frozen_particle_filter(pi, trans, evidence(obs), num_particles, seed, resample_threshold)
        except DegenerateWeightsError as err:
            raise DegenerateWeightsError(err.t, f"sequence {i}: {err}") from err


def _outcome(route, model, sequences, *args):
    """Each yielded result's fields as (dtype, shape, bytes), and the error's type and message, or None.

    ``_particle_filters`` takes the model; the frozen route takes its joint view.
    """
    if route is _particle_filters:
        results = route(model, sequences, *args)
    else:
        pi, trans, evidence = _joint_view(model)
        results = route(pi, trans, sequences, evidence, *args)
    items = []
    try:
        for result in results:
            items.append([(a.dtype, a.shape, a.tobytes()) for a in (getattr(result, f) for f in FIELDS)])
    except (ValueError, DegenerateWeightsError) as err:
        return items, (type(err), str(err))
    return items, None


def _same(model, sequences, *args):
    expected = _outcome(_frozen_particle_filters, model, sequences, *args)
    assert _outcome(_particle_filters, model, sequences, *args) == expected
    return expected


def _sparse(rng, rows, n):
    """Random rows with about half their entries zero, trailing ones included."""
    table = rng.dirichlet(np.ones(n), size=rows) * (rng.random((rows, n)) < 0.5)
    table[np.arange(rows), rng.integers(0, n, size=rows)] += 0.1
    return table / table.sum(axis=1, keepdims=True)


def _tbn():
    a = TbnVariable(card=2, init_parents=(), init_cpt=[[0.3, 0.7]], trans_parents=((0, 0),),
                    trans_cpt=[[0.9, 0.1], [0.25, 0.75]])
    b = TbnVariable(card=3, init_parents=(0,), init_cpt=[[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]],
                    trans_parents=((0, 1), (1, 0)),
                    trans_cpt=np.random.default_rng(8).dirichlet(np.ones(3), size=6))
    return Tbn2Model(variables=[a, b])


def _models():
    rng = np.random.default_rng(2201)
    for n in (1, 2, 3, 256):
        yield HmmModel(pi=_sparse(rng, 1, n)[0], trans=_sparse(rng, n, n), emit=_sparse(rng, n, 4))
        yield random_hmm(n, 3, rng)
    yield random_chmm([2, 3], [2, 2], rng)
    yield random_chmm([2, 2, 2], [3, 2, 2], rng)
    yield _tbn()


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
def test_particle_route_matches_the_per_sequence_filter_bit_for_bit(threshold):
    rng = np.random.default_rng(int(threshold * 10))
    yielded, files = 0, 0
    for model in _models():
        sequences = [sample(model, int(rng.integers(1, 30)), int(rng.integers(2**31)))[1] for _ in range(4)]
        for K in (1, 7, 100):
            items, error = _same(model, sequences, K, int(rng.integers(2**31)), threshold)
            yielded, files = yielded + len(items), files + 1
    assert yielded > 2 * files  # a sparse model can starve a small ensemble, but most sequences finish


def test_particle_route_names_a_degenerate_sequence_as_the_per_sequence_filter_did():
    # The chain stays in state 0, which emits only symbol 0: sequence 1 degenerates at step 2.
    model = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
    sequences = [np.array(s) for s in ([0, 0, 0], [0, 0, 1], [0, 1])]
    items, error = _same(model, sequences, 3, 0)
    assert len(items) == 1
    assert error == (DegenerateWeightsError, "sequence 1: all particle weights are zero at time step 2")


@pytest.mark.parametrize(
    "num_particles, threshold", [(0, 0.5), (-5, 0.5), (2.7, 0.5), ("2", 0.5), (10**12, 0.5), (10, 1.5), (10, -0.5)]
)
def test_particle_route_refuses_bad_arguments_as_the_per_sequence_filter_did(num_particles, threshold):
    model = random_hmm(3, 2, np.random.default_rng(5))
    items, error = _same(model, [np.array([0, 1]), np.array([1])], num_particles, 0, threshold)
    assert items == [] and error is not None


def test_particle_route_refuses_a_lifting_table_over_the_budget_as_the_per_sequence_filter_did(monkeypatch):
    model = random_hmm(5, 2, np.random.default_rng(4))
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 200)
    items, error = _same(model, [np.array([0, 1]), np.array([1, 1])], 10, 0)
    assert error == (SizeCapError, "particle lifting table (5 x 8) needs 320 bytes, over the budget of 200")
