"""Pseudospectral toolkit for a fourth-order NLS-type equation on the torus.

Fields are ``SpectralField`` coefficient vectors on a ``GridSpec``; the
package root re-exports them with the norms and the spectral derivative.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    GridSpec,
    SpectralField,
    derivative,
    gn_ratio,
    l2_norm,
    lp_norm,
    sobolev_norm,
    zero_field,
)
