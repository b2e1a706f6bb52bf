from unittest import mock

import numpy as np
import pytest

from conetube import oracle
from conetube.operators import ParameterSet


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def worked_params():
    """The reference n = 2 parameter set used throughout the norm suite."""
    return ParameterSet(n=2, p=2.0, q=2.0, alpha=(0.0, 0.0), beta=(0.0, 0.0),
                        a=(0.0, 0.0), b=(0.0, 0.0), c=(3.0, 3.0))


def importance_weights(identity_id, params, point, count, seed, region=None):
    """The importance weights of ``oracle_estimate(..., count, seed,
    method="mc", region=region)``'s first chunk, exactly as
    ``oracle._mc_run`` forms them (reduction and ``integrating_last_real``
    included), non-finite values kept.  ``count`` is at most one chunk, so
    the first chunk is all of it; at ``oracle.CHUNK`` it is the first chunk
    of any larger budget."""
    if count > oracle.CHUNK:
        raise ValueError(f"count {count} exceeds one chunk ({oracle.CHUNK})")
    kept = []
    in_blocks = oracle._in_blocks

    def keep(*args, **kwargs):
        kept.append(in_blocks(*args, **kwargs))
        return kept[-1]

    with mock.patch.object(oracle, "_in_blocks", keep):
        oracle.oracle_estimate(identity_id, params, point, count, seed,
                               method="mc", region=region)
    return kept[0]


def ess_fraction(w):
    """Effective sample size over N, (sum |w|)^2 / (N sum |w|^2)."""
    a = np.abs(np.asarray(w))
    return float(np.sum(a) ** 2 / (a.size * np.sum(a * a)))
