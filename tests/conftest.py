import os
from pathlib import Path

import numpy as np
import pytest

from simfarm.analysis.pareto import _non_dominated_mask
from simfarm.analysis.special import betainc, gammainc_p, norm_ppf_vec
from simfarm.models.tree import _scan_splits_gini, _scan_splits_sse

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Interpreters the tests start (``python -m simfarm``) import this source tree too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger JIT compilation once so timed tests measure steady-state compute."""
    gammainc_p(2.0, 1.0)
    betainc(2.0, 3.0, 0.5)
    norm_ppf_vec(np.array([0.5]))
    _non_dominated_mask(np.zeros((2, 2)))
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    _scan_splits_sse(xs, xs.copy(), 1)
    _scan_splits_gini(xs, np.array([0, 0, 1, 1], dtype=np.int64), 2, 1)
