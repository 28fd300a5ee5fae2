"""The per-mode hot kernels, in numpy.

All norm reductions run in ascending-|n| order (the ``order`` permutation,
in which the callers list the weights too) so results are reproducible
independent of the FFT mode layout; they call ``np.add.reduce``, the
pairwise sum ``np.sum`` runs, without its Python wrapper.

``weighted_norm_sq`` reduces the last axis of (..., N) coefficients, and
each row of a (B, N) block gets the bits the row would get alone: the
gather is ``take`` along that axis, which keeps the block C-contiguous, so
every row is summed pairwise as a 1-D array is (fancy indexing
``c[:, order]`` does not, and then the last bits of most rows differ).
The pointwise kernels act elementwise, so they take any array shape, such
as the (B, M) blocks of an ensemble step. ``nonlinear_combine`` writes its
temporaries and result into work arrays from ``combine_work`` that the
caller may keep, so the stepper's evaluations allocate none of them.
"""

import numpy as np

BACKEND = "numpy"


def semigroup_factors(modes, t, eps, nu):
    """Multiplier exp((-i n^2 + i nu n^4 - eps n^4) t) per mode."""
    n2 = modes * modes
    n4 = n2 * n2
    return np.exp((-1j * n2 + (1j * nu - eps) * n4) * t)


def apply_multiplier(coeffs, factors):
    return coeffs * factors


def combine_work(shape):
    """New work arrays for ``nonlinear_combine`` on samples of ``shape``:
    |u|², |du|² and two real temporaries, then the complex result and two
    complex temporaries p and q. |du|² and the two real temporaries live in
    p's and q's memory, which they use only while p and q are unused."""
    au2 = np.empty(shape)
    out, p, q = np.empty((3, *shape), dtype=np.complex128)
    adu2, _ = np.split(p.reshape(-1).view(np.float64), 2)
    s, t = np.split(q.reshape(-1).view(np.float64), 2)
    return au2, *(a.reshape(shape) for a in (adu2, s, t)), out, p, q


def nonlinear_combine(u, du, d2u, lam, work=None):
    """Pointwise six-term derivative nonlinearity on a physical grid.

    lam1 |u|^2 u + lam2 |u|^4 u + lam3 (du)^2 conj(u) + lam4 |du|^2 u
    + lam5 u^2 conj(d2u) + lam6 |u|^2 d2u

    Every product and sum is one ufunc call into ``work`` (from
    ``combine_work``; new arrays when None), on the operands, in the order,
    of the expression above evaluated left to right, so the bits do not
    depend on whether the arrays are new. Returns ``work``'s result array:
    a caller that passes the same ``work`` again allocates nothing. A
    complex product written over its first operand gets the bits of one
    written to a new array on two or more points; on a single point numpy
    takes another loop, which can change the last bit.
    """
    l1, l2, l3, l4, l5, l6 = lam
    au2, adu2, s, t, out, p, q = combine_work(u.shape) if work is None else work
    mul, add, conj = np.multiply, np.add, np.conjugate
    mul(u.real, u.real, au2)
    mul(u.imag, u.imag, s)
    add(au2, s, au2)  # |u|^2
    mul(du.real, du.real, adu2)
    mul(du.imag, du.imag, s)
    add(adu2, s, adu2)  # |du|^2
    mul(l1, au2, s)
    mul(l2, au2, t)
    mul(t, au2, t)
    add(s, t, s)
    mul(l4, adu2, t)
    add(s, t, s)
    mul(s, u, out)  # (l1 |u|^2 + l2 |u|^4 + l4 |du|^2) u; s, t and adu2 end
    mul(l3, du, p)
    mul(p, du, p)
    mul(p, conj(u, q), p)
    add(out, p, out)
    mul(l5, u, p)
    mul(p, u, p)
    mul(p, conj(d2u, q), p)
    add(out, p, out)
    mul(l6, au2, s)
    mul(s, d2u, p)
    add(out, p, out)
    return out


def weighted_norm_sq(coeffs, weights, order):
    """sum_j weights[j] |coeffs[..., order[j]]|^2 over the last axis,
    accumulated in j: one value per row of (..., N) coefficients. The
    weights are listed in ``order``."""
    c = coeffs.take(order, axis=-1)
    mag2 = c.real * c.real + c.imag * c.imag
    return np.add.reduce(weights * mag2, -1)


def weighted_diff_norm_sq(a, b, weights, order):
    """sum_j weights[j] |a[order[j]]-b[order[j]]|^2, accumulated in j; the
    weights are listed in ``order``."""
    d = (a - b)[order]
    mag2 = d.real * d.real + d.imag * d.imag
    return float(np.add.reduce(weights * mag2))
