import os
import tracemalloc

# BLAS runs on one thread, as in bench/run.py, so that a timing test measures
# this process and not the load on the other cores.  Set before numpy's first
# import, which is the one just below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from dbnkit import HmmModel, models


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` returns ``call()`` and the peak bytes tracemalloc traced while it ran."""

    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture
def peak_in_budgets(monkeypatch, traced_peak):
    """``peak_in_budgets(budget, call)`` returns ``call()`` and its traced peak, in units of ``budget`` bytes.

    ``models.MAX_ARRAY_BYTES`` is set to ``budget`` before the call, for the
    rest of the test.
    """

    def run(budget, call):
        monkeypatch.setattr(models, "MAX_ARRAY_BYTES", budget)
        result, peak = traced_peak(call)
        return result, peak / budget

    return run


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(owner, name)`` patches ``owner.name`` with a wrapper that forwards every call.

    It returns the list into which the wrapper records each call's positional
    arguments, as a tuple, in call order.
    """

    def patch(owner, name):
        calls, original = [], getattr(owner, name)

        def forwarding(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, forwarding)
        return calls

    return patch


@pytest.fixture
def worked_model():
    """Two-state fixture whose likelihood and best path are known in closed form."""
    return HmmModel(
        pi=[0.6, 0.4],
        trans=[[0.7, 0.3], [0.4, 0.6]],
        emit=[[0.9, 0.1], [0.2, 0.8]],
    )


@pytest.fixture
def worked_obs():
    return np.array([0, 1, 0])
