"""Shared fixtures and independent quadrature oracles.

The oracle here deliberately avoids the package's padded-product machinery:
it synthesises each factor on a fine grid straight from the coefficients
and integrates with the plain trapezoid rule, so functional values are
cross-checked through a different code path.
"""

import os

import numpy as np
import pytest

from torus4nls.dynamics import CoefficientSet
from torus4nls.spectral import GridSpec


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails any test after which this process still has a child, running
    or not yet reaped: every forked worker must be gone when its caller
    returns or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left: waitpid gave ({pid}, {status})")


@pytest.fixture
def grid64():
    return GridSpec(64)


@pytest.fixture
def generic_coeffs():
    return CoefficientSet(
        nu=1.0, lambda1=0.7, lambda2=-0.3, lambda3=0.2,
        lambda4=-0.5, lambda5=0.4, lambda6=0.1,
    )


def oracle_samples(psi, fine_factor=4, deriv=0):
    """∂^deriv ψ sampled on a fine grid by direct Fourier synthesis."""
    grid = psi.grid
    n_fine = fine_factor * grid.num_modes
    x = 2.0 * np.pi * np.arange(n_fine) / n_fine
    out = np.zeros(n_fine, dtype=complex)
    for idx, n in enumerate(grid.modes):
        c = psi.coeffs[idx]
        if c != 0.0:
            out += c * (1j * n) ** deriv * np.exp(1j * n * x)
    return out / np.sqrt(2.0 * np.pi)


def oracle_integral(values):
    """Trapezoid rule on the fine grid (periodic, so the plain mean)."""
    return 2.0 * np.pi * np.mean(values)
