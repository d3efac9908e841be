import numpy as np
import pytest


def crandn(rng, *shape):
    """Circularly symmetric complex Gaussian samples, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def column_operations(rng, n: int) -> np.ndarray:
    """I after 3n random elementary Gaussian column operations: a shear by a
    Gaussian integer of parts in [-2, 2], a unit scaling or a swap."""
    u = np.eye(n, dtype=complex)
    for _ in range(3 * n):
        i, j = rng.permutation(n)[:2] if n > 1 else (0, 0)
        op = rng.integers(3) if n > 1 else 1
        if op == 0:
            u[:, j] += complex(*rng.integers(-2, 3, 2)) * u[:, i]
        elif op == 1:
            u[:, i] *= (1, -1, 1j, -1j)[rng.integers(4)]
        else:
            u[:, [i, j]] = u[:, [j, i]]
    return u


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
