import signal
from contextlib import contextmanager

import numpy as np
import pytest

from qmemristor import dynamics, ops
from qmemristor.presets import PRESET_NAMES, preset


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


STATE_KINDS = ("mixed", "pure", "real", "diagonal")
COUPLED_PRESETS = [name for name in PRESET_NAMES if preset(name).mode == "coupled"]


def random_state_stack(rng, kind, n, dim):
    """(n, dim, dim) stack of random states of one of STATE_KINDS.

    'mixed' is full rank and complex, 'pure' is rank one, 'real' is full
    rank with every imaginary part +0, and 'diagonal' has a random spectrum
    on the diagonal and a random signed zero in every other real and
    imaginary part.
    """
    if kind == "pure":
        psi = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        return psi[:, :, None] * psi.conj()[:, None, :]
    if kind == "diagonal":
        stack = np.empty((n, dim, dim), dtype=complex)
        stack.real = np.where(rng.integers(0, 2, size=stack.shape), -0.0, 0.0)
        stack.imag = np.where(rng.integers(0, 2, size=stack.shape), -0.0, 0.0)
        p = rng.uniform(0.01, 1.0, size=(n, dim))
        stack.real[:, np.arange(dim), np.arange(dim)] = p / p.sum(axis=1, keepdims=True)
        return stack
    g = rng.normal(size=(n, dim, dim))
    if kind == "mixed":
        g = g + 1j * rng.normal(size=(n, dim, dim))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    return rho.astype(complex)


def preset_trajectory(name):
    """A preset's stepped (n_steps+1, d, d) state stack, as `execute` analyses it."""
    parts = preset(name).validate()
    if parts.init2 is None:
        return np.stack([s.rho for s in dynamics.run_single(parts.init1, parts.profile1,
                                                              parts.grid)])
    return dynamics.run_coupled(parts.init1, parts.init2, parts.profile1, parts.profile2,
                                parts.grid, [parts.interaction])[0]


def assert_same_bits(actual, expected):
    """Equal values and equal sign bits, so -0 and +0 differ; NaN never passes."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.array_equal(actual, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


def expectation(rho, axis):
    """Tr(sigma_axis rho) of one 2x2 state, the imaginary part discarded: the
    per-point reference for the stacked Bloch columns of `build_trace`."""
    return float(np.trace(ops.PAULI[axis] @ rho).real)


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
