"""The numpy kernels against their defining formulas."""

import numpy as np
import pytest

from torus4nls import kernels, spectral
from torus4nls.spectral import GridSpec


def random_arrays(n, seed):
    rng = np.random.default_rng(seed)
    mk = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return mk(), mk(), mk()


def test_backend_registered():
    assert kernels.BACKEND == "numpy"


def test_semigroup_factors_formula():
    modes = GridSpec(16).modes
    t, eps, nu = 0.5, 0.3, -2.0
    phase = (-(modes**2) + nu * modes**4) * t
    expect = np.exp(-eps * modes**4 * t) * np.exp(1j * phase)
    assert np.allclose(kernels.semigroup_factors(modes, t, eps, nu), expect,
                       rtol=1e-13, atol=1e-300)


def test_nonlinear_combine_formula_and_rows():
    u, du, d2u = random_arrays(128, 3)
    lam = (0.7, -0.3, 0.2, -0.5, 0.4, 0.1)
    expect = (
        lam[0] * np.abs(u) ** 2 * u
        + lam[1] * np.abs(u) ** 4 * u
        + lam[2] * du**2 * np.conj(u)
        + lam[3] * np.abs(du) ** 2 * u
        + lam[4] * u**2 * np.conj(d2u)
        + lam[5] * np.abs(u) ** 2 * d2u
    )
    out = kernels.nonlinear_combine(u, du, d2u, lam)
    assert np.allclose(out, expect, rtol=1e-13, atol=1e-15)
    # a (B, M) block combines each row exactly as it would alone
    other = random_arrays(128, 4)
    block = kernels.nonlinear_combine(
        *(np.stack(pair) for pair in zip((u, du, d2u), other)), lam
    )
    assert np.array_equal(block[0], out)
    assert np.array_equal(block[1], kernels.nonlinear_combine(*other, lam))


@pytest.mark.parametrize("m", [0, 1, 4])
def test_weighted_norms(m):
    grid = GridSpec(128)
    a, b, _ = random_arrays(128, m + 10)
    w = (1.0 + grid.modes**2) ** m
    order = grid.mode_order
    # the kernels take the weights listed in ``order``, as spectral caches them
    assert np.array_equal(spectral._sobolev_weights(128, m), w[order])
    assert kernels.weighted_norm_sq(a, w[order], order) == pytest.approx(
        np.sum(w * np.abs(a) ** 2), rel=1e-13
    )
    assert kernels.weighted_diff_norm_sq(a, b, w[order], order) == pytest.approx(
        np.sum(w * np.abs(a - b) ** 2), rel=1e-13
    )
