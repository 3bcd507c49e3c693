import numpy as np
import pytest

from cosetcap import PauliChannel, registry_names

# the stack grammar's aliases of generated repetition codes; tests over
# every registry code take them as well
REP_ALIASES = ("3repX", "3repZ", "4repZ", "5repZ", "7repX")
CODE_NAMES = (*registry_names(), *REP_ALIASES)


def random_channels(count, seed=0, alpha=(2.0, 1.0, 1.0, 1.0)):
    """Deterministic batch of valid Pauli channels, identity-weighted."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.dirichlet(alpha)
        out.append(PauliChannel(*(v / v.sum())))
    return out


def assert_probabilities(probs, tol, axis=None):
    """No entry below -1e-14, and sums along ``axis`` (over everything by
    default) within ``tol`` of 1."""
    probs = np.asarray(probs)
    assert float(probs.min()) >= -1e-14, "negative probability"
    total = probs.sum(axis=axis)
    assert float(np.abs(total - 1.0).max()) <= tol, f"mass {total!r} != 1"


@pytest.fixture
def channels25():
    return random_channels(25, seed=20240811)
