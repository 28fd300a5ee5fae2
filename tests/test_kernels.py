"""The numpy kernels against their defining formulas."""

import numpy as np
import pytest

from conftest import reference_combine

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


@pytest.mark.parametrize("shape", [(2,), (3,), (128,), (4, 96), (3, 2, 5)])
def test_kept_work_gives_the_bytes_of_new_arrays(shape):
    # work kept from an earlier call, on samples rewritten in place, gives
    # every element the bytes of new arrays; work is bound to its samples
    rng = np.random.default_rng(len(shape))
    samples = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
    lam = (0.7, -0.3, 0.2, -0.5, 0.4, 0.1)
    work = kernels.combine_work(samples)
    u, du, d2u = work[:3]  # the views the work reads
    kernels.nonlinear_combine(u, du, d2u, lam, work)
    samples[...] = samples[::-1] * 0.5
    expect = reference_combine(u, du, d2u, lam).tobytes()
    assert kernels.nonlinear_combine(u, du, d2u, lam).tobytes() == expect
    assert kernels.nonlinear_combine(u, du, d2u, lam, work).tobytes() == expect
    with pytest.raises(ValueError, match="work was prepared for other samples"):
        kernels.nonlinear_combine(u.copy(), du, d2u, lam, work)
    # the work's flat views need the samples as one complex block
    for other in (samples[:, ::2], samples.real.copy()):
        with pytest.raises(ValueError, match="one C-contiguous complex block"):
            kernels.combine_work(other)


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
