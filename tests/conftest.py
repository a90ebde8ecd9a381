import signal
from contextlib import contextmanager

import numpy as np
import pytest


# fig9 as RunConfig.to_text wrote it while the config still had the
# control and dagger_convention fields
OLD_FIG9_TEXT = """# qmemristor run configuration
name = 'fig9'
mode = 'coupled'
a1 = 0.7853981633974483
b1 = 0.0
gamma0_1 = 0.02
a2 = 0.7853981633974483
b2 = 0.0
gamma0_2 = 0.02
omega = 1.0
periods = 20
steps_per_period = 60
interaction = 'controlled_rotation'
axis = 'y'
delta = 0.1
control = 1
dagger_convention = 'paper'
shots_mode = 'exact'
shots = 5000
seed = 0
plot_normalization = 'max'
"""


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_density_matrix(rng, dim=2):
    """Full-rank random state: normalized G G^dag with complex Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_pure_state(rng, dim=2):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@contextmanager
def deadline(seconds):
    """Abort the block with TimeoutError once it has run ``seconds``."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
