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
as the (B, M) blocks of an ensemble step. ``nonlinear_combine`` takes one
input, the work ``combine_work`` prepares from a sample block: the views
it reads the samples through, and the arrays it writes its temporaries and
result into. A caller that keeps the work and rewrites the samples in
place, as the stepper does, makes the evaluations allocate no array and
build no view. Where one real operation repeats on u and du (the squares
and sums of |u|² and |du|²), it is one call on a flat run of both, element
by element the same operations.
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


def combine_work(samples):
    """``nonlinear_combine``'s one input: its views of the samples u, du and
    d2u, the rows of the complex (3, ...) array ``samples``, which the
    caller may rewrite in place between calls, and new arrays for it to
    write: seven real rows of the samples' size in one block, 56 bytes a
    point. The squares of u's and du's real and imaginary parts take rows
    2-5, |u|² and |du|² rows 0-1, λ1|u|², λ2|u|² and λ6|u|² rows 4-6; the
    complex result and the temporaries p and q take rows 0-5 once all but
    λ6|u|² are spent."""
    if samples.dtype != np.complex128 or not samples.flags.c_contiguous:
        raise ValueError("the samples must be one C-contiguous complex block")
    u, du, d2u = samples
    reals = np.empty((7, u.size))
    au2, adu2, _, _, s, t, s6 = (row.reshape(u.shape) for row in reals)
    # u's and du's real and imaginary parts, interleaved, as one flat run:
    # flat views keep numpy on its one-dimensional loops
    parts = samples[:2].reshape(-1).view(np.float64)
    squares = reals[2:6].reshape(-1)
    out, p, q = reals[:6].reshape(-1).view(np.complex128).reshape(3, *u.shape)
    return (u, du, d2u, parts, squares, squares[::2], squares[1::2], reals[:2].reshape(-1),
            au2, adu2, s, t, s6, out, p, q)


def nonlinear_combine(work, lam):
    """Pointwise six-term derivative nonlinearity on a physical grid.

    lam1 |u|^2 u + lam2 |u|^4 u + lam3 (du)^2 conj(u) + lam4 |du|^2 u
    + lam5 u^2 conj(d2u) + lam6 |u|^2 d2u

    of the samples u, du and d2u that ``work`` (``combine_work`` of them
    as one block) reads. Every product and sum is a ufunc call into
    ``work``, on the operands, in the order, of the expression above
    evaluated left to right (lam6 |u|^2 is formed with the other multiples
    of |u|^2, before the result takes its memory), so the bits do not
    depend on whether the arrays are new. The squares in |u|^2 and |du|^2
    are one call, and their sums another. Returns ``work``'s result array:
    a caller that rewrites the samples in place and passes the same
    ``work`` again allocates nothing and makes no view. A complex product
    written over its first operand gets the bits of one written to a new
    array on two or more points; on a single point numpy takes another
    loop, which can change the last bit.
    """
    l1, l2, l3, l4, l5, l6 = lam
    u, du, d2u, parts, squares, re2, im2, mags, au2, adu2, s, t, s6, out, p, q = work
    mul, add, conj = np.multiply, np.add, np.conjugate
    mul(parts, parts, squares)
    add(re2, im2, mags)  # |u|^2 and |du|^2
    mul(l1, au2, s)
    mul(l2, au2, t)
    mul(l6, au2, s6)
    mul(t, au2, t)
    add(s, t, s)
    mul(l4, adu2, t)
    add(s, t, s)
    mul(s, u, out)  # (l1 |u|^2 + l2 |u|^4 + l4 |du|^2) u; only s6 stays
    mul(l3, du, p)
    mul(p, du, p)
    mul(p, conj(u, q), p)
    add(out, p, out)
    mul(l5, u, p)
    mul(p, u, p)
    mul(p, conj(d2u, q), p)
    add(out, p, out)
    mul(s6, d2u, p)
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
