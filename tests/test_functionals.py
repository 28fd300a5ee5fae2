"""Modified energy, positivity certification, invariants, difference energy."""

import numpy as np
import pytest

from conftest import oracle_integral, oracle_samples

from torus4nls.dynamics import CoefficientSet, SolverConfig, TrajectorySample, integrate
from torus4nls.exact import integrable_coefficients, plane_wave
from torus4nls.functionals import (
    CmCertificate,
    EnergyRecorder,
    certify_cm,
    conserved_quantities,
    correction_terms,
    difference_energy,
    i2_imaginary_residual,
    modified_energy,
    quadrature_mean,
)
from torus4nls.sampling import random_field, rng_for
from torus4nls.spectral import (
    GridSpec,
    SpectralField,
    seminorm_sq,
    sobolev_norm_sq,
    zero_field,
)


class TestCorrectionTerms:
    def test_zero_field(self, grid64, generic_coeffs):
        assert correction_terms(zero_field(grid64), 3, generic_coeffs) == (0.0, 0.0)

    def test_constant_field(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.7, 0)
        first, second = correction_terms(psi, 2, generic_coeffs)
        assert first == pytest.approx(0.0, abs=1e-14)
        assert second == pytest.approx(0.0, abs=1e-14)

    def test_plane_wave_hand_values(self, grid64, generic_coeffs):
        # psi = kappa e^{ix}, m = 2: d psi = i kappa e^{ix}, so
        # (d psi)^2 conj(psi)^2 = -kappa^4 and |d psi|^2 |psi|^2 = kappa^4
        kappa = 0.6
        psi = plane_wave(grid64, kappa, 1)
        lam = generic_coeffs
        first, second = correction_terms(psi, 2, lam)
        assert first == pytest.approx(
            lam.lambda5 / lam.nu * (-2 * np.pi * kappa**4), rel=1e-12
        )
        w = (2 * lam.lambda3 + lam.lambda4 + 2 * lam.lambda6) / (4 * lam.nu)
        assert second == pytest.approx(w * 2 * np.pi * kappa**4, rel=1e-12)

    def test_random_field_against_oracle(self, grid64, generic_coeffs):
        # independent fine-grid synthesis + trapezoid quadrature
        psi = random_field(grid64, rng_for(3), decay=2.5, l2_mass=0.8)
        m = 3
        first, second = correction_terms(psi, m, generic_coeffs)
        u = oracle_samples(psi, 4, 0)
        d = oracle_samples(psi, 4, m - 1)
        lam = generic_coeffs
        first_oracle = lam.lambda5 / lam.nu * oracle_integral(d * d * np.conj(u) ** 2).real
        w = (2 * lam.lambda3 + lam.lambda4 + 2 * (m - 1) * lam.lambda6) / (4 * lam.nu)
        second_oracle = w * oracle_integral(np.abs(d) ** 2 * np.abs(u) ** 2).real
        assert first == pytest.approx(first_oracle, rel=1e-11)
        assert second == pytest.approx(second_oracle, rel=1e-11)


class TestModifiedEnergy:
    def test_zero_field(self, grid64, generic_coeffs):
        assert modified_energy(zero_field(grid64), 4, generic_coeffs, 10.0) == 0.0

    def test_constant_field(self, grid64, generic_coeffs):
        # corrections vanish for constants when m >= 2
        kappa = 0.9
        psi = plane_wave(grid64, kappa, 0)
        a_sq = 2 * np.pi * kappa**2
        m, c_m = 3, 2.5
        expect = a_sq + c_m * a_sq ** (2 * m + 1)
        assert modified_energy(psi, m, generic_coeffs, c_m) == pytest.approx(expect)

    def test_phase_invariance(self, grid64, generic_coeffs):
        psi = random_field(grid64, rng_for(17), decay=2.0, l2_mass=0.7)
        rotated = np.exp(0.93j) * psi
        for m in (1, 2, 4):
            assert modified_energy(rotated, m, generic_coeffs, 1.0) == pytest.approx(
                modified_energy(psi, m, generic_coeffs, 1.0), rel=1e-12
            )

    def test_rejects_bad_args(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.1, 1)
        with pytest.raises(ValueError):
            modified_energy(psi, 0, generic_coeffs, 1.0)
        with pytest.raises(ValueError):
            modified_energy(psi, 2, generic_coeffs, -1.0)


class TestCertifyCm:
    def test_no_corrections_needs_nothing(self):
        c = CoefficientSet(nu=1.0, lambda1=-0.5, lambda2=-0.375)
        cert = certify_cm(4, c, 1.0, trials=30, rng_seed=5)
        assert cert.c_m == 0.0
        assert cert.worst_margin >= 0.0

    def test_integrable_certificate(self):
        cert = certify_cm(4, integrable_coefficients(1.0), 1.0, trials=60,
                          rng_seed=7, target="sobolev")
        assert np.isfinite(cert.c_m) and cert.c_m > 0.0
        assert cert.worst_margin >= 0.0

    def test_doubling_trials_monotone(self):
        c = integrable_coefficients(1.0)
        small = certify_cm(4, c, 1.0, trials=40, rng_seed=9, target="sobolev")
        large = certify_cm(4, c, 1.0, trials=80, rng_seed=9, target="sobolev")
        assert large.c_m >= small.c_m

    def test_certified_lower_bound_holds_on_fresh_samples(self):
        # the acceptance-style check: certified energy dominates half the
        # squared Sobolev norm on fields from the certification family
        from torus4nls.functionals import certificate_sample

        c = integrable_coefficients(1.0)
        cert = certify_cm(4, c, 1.0, trials=80, rng_seed=11, target="sobolev")
        for i in range(100):
            rng = rng_for(999, i)
            psi = certificate_sample(GridSpec(64), rng, 1.0)
            e = modified_energy(psi, 4, c, cert.c_m)
            assert e >= 0.5 * sobolev_norm_sq(psi, 4)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            certify_cm(4, integrable_coefficients(1.0), 1.0, trials=0, rng_seed=1)

    def test_certificate_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            CmCertificate(
                m=4, coefficients=integrable_coefficients(1.0), c_m=1.0,
                trials=10, worst_margin=-0.1,
            )


class TestConservedQuantities:
    def test_zero_field(self, grid64):
        assert conserved_quantities(zero_field(grid64)) == (0.0, 0.0, 0.0)

    def test_constant_field(self, grid64):
        c = 0.8
        inv = conserved_quantities(plane_wave(grid64, c, 0))
        assert inv.i0 == pytest.approx(np.pi * c**2)
        assert inv.i1 == pytest.approx(-np.pi / 4 * c**4)

    def test_plane_wave_i2(self, grid64):
        # term-by-term hand substitution for kappa e^{ix}
        kappa = 0.4
        inv = conserved_quantities(plane_wave(grid64, kappa, 1))
        expect = np.pi * kappa**2 - 1.5 * np.pi * kappa**4 + np.pi / 8 * kappa**6
        assert inv.i2 == pytest.approx(expect, rel=1e-12)
        assert inv.i0 == pytest.approx(np.pi * kappa**2)
        assert inv.i1 == pytest.approx(np.pi * kappa**2 - np.pi / 4 * kappa**4)

    def test_random_field_against_oracle(self, grid64):
        psi = random_field(grid64, rng_for(23), decay=2.5, l2_mass=0.9)
        inv = conserved_quantities(psi)
        u = oracle_samples(psi, 8, 0)
        du = oracle_samples(psi, 8, 1)
        d2u = oracle_samples(psi, 8, 2)
        i0 = 0.5 * oracle_integral(np.abs(u) ** 2).real
        i1 = (
            0.5 * oracle_integral(np.abs(du) ** 2)
            - 0.125 * oracle_integral(np.abs(u) ** 4)
        ).real
        i2 = (
            0.5 * oracle_integral(np.abs(d2u) ** 2)
            + 0.75 * oracle_integral(np.abs(u) ** 2 * np.conj(u) * d2u)
            + 0.125 * oracle_integral(np.abs(u) ** 2 * u * np.conj(d2u))
            + 0.625 * oracle_integral(du**2 * np.conj(u) ** 2)
            + 0.75 * oracle_integral(np.abs(du) ** 2 * np.abs(u) ** 2)
            + 0.0625 * oracle_integral(np.abs(u) ** 6)
        ).real
        assert inv.i0 == pytest.approx(i0, rel=1e-11)
        assert inv.i1 == pytest.approx(i1, rel=1e-11)
        assert inv.i2 == pytest.approx(i2, rel=1e-10)

    def test_imaginary_residual_tiny(self, grid64):
        psi = random_field(grid64, rng_for(29), decay=2.0, l2_mass=1.0)
        assert i2_imaginary_residual(psi) <= 1e-12


class TestDifferenceEnergy:
    def test_zero_difference(self, grid64, generic_coeffs):
        ref = random_field(grid64, rng_for(31), decay=2.0)
        assert difference_energy(zero_field(grid64), ref, 1, generic_coeffs, 3.0) == 0.0

    def test_zero_reference_m1(self, grid64, generic_coeffs):
        psi = random_field(grid64, rng_for(32), decay=2.0, l2_mass=0.5)
        c_tilde = 2.0
        val = difference_energy(psi, zero_field(grid64), 1, generic_coeffs, c_tilde)
        expect = seminorm_sq(psi, 1) + c_tilde * sobolev_norm_sq(psi, 0)
        assert val == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_generic_pair_against_oracle(self, grid64, generic_coeffs, m):
        psi = random_field(grid64, rng_for(33), decay=2.5, l2_mass=0.5)
        ref = random_field(grid64, rng_for(34), decay=2.5, l2_mass=0.7)
        c_tilde = 1.5
        val = difference_energy(psi, ref, m, generic_coeffs, c_tilde)
        r = oracle_samples(ref, 4, 0)
        d = oracle_samples(psi, 4, m - 1)
        lam = generic_coeffs
        w1 = (2 * lam.lambda3 + lam.lambda4 + 2 * (m - 1) * lam.lambda6) / (4 * lam.nu)
        w2 = lam.lambda5 / lam.nu
        expect = (
            seminorm_sq(psi, m)
            + c_tilde * sobolev_norm_sq(psi, 0)
            + w1 * oracle_integral(np.abs(r) ** 2 * np.abs(d) ** 2).real
            + w2 * oracle_integral(r * r * np.conj(d) ** 2).real
        )
        assert val == pytest.approx(expect, rel=1e-11)

    def test_grid_mismatch(self, generic_coeffs):
        a = zero_field(GridSpec(32))
        b = zero_field(GridSpec(64))
        with pytest.raises(ValueError):
            difference_energy(a, b, 1, generic_coeffs, 1.0)


class TestEnergyRecorder:
    def test_parallel_series_and_lower_bound(self):
        # along a trajectory of a certification-family datum, the certified
        # energy dominates half of (H^m norm^2 + L^2 norm^2)
        coeffs = integrable_coefficients(1.0)
        cert = certify_cm(4, coeffs, 1.0, trials=60, rng_seed=7, target="sobolev")
        grid = GridSpec(64)
        from torus4nls.functionals import certificate_sample

        data = certificate_sample(grid, rng_for(41), 1.0)
        rec = EnergyRecorder(4, coeffs, cert.c_m)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        integrate(data, 0.02, cfg, coeffs, observers=[rec])
        cols = rec.columns
        assert list(cols) == ["time", "h_m_norm_sq", "deriv_m_norm_sq",
                              "l2_norm_sq", "modified_energy", "i0", "i1", "i2"]
        assert {len(v) for v in cols.values()} == {21}
        for e, h, l2 in zip(cols["modified_energy"], cols["h_m_norm_sq"],
                            cols["l2_norm_sq"]):
            assert e >= 0.5 * (h + l2)

    def test_failing_row_adds_to_no_column(self):
        # modified_energy rejects c_m < 0 after the time and the norms of
        # the row are known; none of them may be kept
        rec = EnergyRecorder(4, integrable_coefficients(1.0), c_m=-1.0)
        sample = TrajectorySample(0.0, plane_wave(GridSpec(32), 0.3, 1))
        with pytest.raises(ValueError, match="c_m"):
            rec(sample)
        assert {len(v) for v in rec.columns.values()} == {0}

    def test_invariants_off_leaves_columns_empty(self):
        coeffs = integrable_coefficients(1.0)
        full = EnergyRecorder(4, coeffs)
        lean = EnergyRecorder(4, coeffs, invariants=False)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        integrate(plane_wave(GridSpec(32), 0.3, 1), 0.005, cfg, coeffs,
                  observers=[full, lean])
        assert list(lean.columns) == list(full.columns)[:5]
        for name, column in lean.columns.items():
            assert column == full.columns[name]


def _fine_samples(psi, pad, deriv=0):
    """The per-factor synthesis the functionals used before
    ``spectral.padded_samples``: the derivative taken on the N-mode band,
    then padded, one inverse FFT per factor."""
    grid = psi.grid
    m = pad * grid.num_modes
    half = grid.num_modes // 2
    c = psi.coeffs if deriv == 0 else psi.coeffs * (1j * grid.modes) ** deriv
    padded = np.zeros(m, dtype=np.complex128)
    padded[np.r_[:half, m - half : m]] = c
    return np.fft.ifft(padded) * (m / np.sqrt(2.0 * np.pi))


def _reference_correction_terms(psi, m, coeffs):
    u = _fine_samples(psi, 3, 0)
    d = _fine_samples(psi, 3, m - 1)
    first = coeffs.lambda5 / coeffs.nu * quadrature_mean(d * d * np.conj(u) ** 2).real
    weight = (
        2.0 * coeffs.lambda3 + coeffs.lambda4 + 2.0 * (m - 1) * coeffs.lambda6
    ) / (4.0 * coeffs.nu)
    second = weight * quadrature_mean(np.abs(d) ** 2 * np.abs(u) ** 2).real
    return first, second


def _reference_conserved(psi):
    u = _fine_samples(psi, 4, 0)
    du = _fine_samples(psi, 4, 1)
    d2u = _fine_samples(psi, 4, 2)
    au2 = np.abs(u) ** 2
    i0 = 0.5 * quadrature_mean(au2).real
    i1 = (
        0.5 * quadrature_mean(np.abs(du) ** 2).real
        - 0.125 * quadrature_mean(au2**2).real
    )
    i2_raw = (
        0.5 * quadrature_mean(np.abs(d2u) ** 2)
        + 0.75 * quadrature_mean(au2 * np.conj(u) * d2u)
        + 0.125 * quadrature_mean(au2 * u * np.conj(d2u))
        + 0.625 * quadrature_mean(du * du * np.conj(u) ** 2)
        + 0.75 * quadrature_mean(np.abs(du) ** 2 * au2)
        + 0.0625 * quadrature_mean(au2**3)
    )
    return i0, i1, i2_raw.real


def _reference_difference_energy(psi, ref, m, coeffs, c_tilde):
    w1 = (
        2.0 * coeffs.lambda3 + coeffs.lambda4 + 2.0 * (m - 1) * coeffs.lambda6
    ) / (4.0 * coeffs.nu)
    w2 = coeffs.lambda5 / coeffs.nu
    r = _fine_samples(ref, 3, 0)
    d = _fine_samples(psi, 3, m - 1)
    quartic = (
        w1 * quadrature_mean(np.abs(r) ** 2 * np.abs(d) ** 2).real
        + w2 * quadrature_mean(r * r * np.conj(d) ** 2).real
    )
    return seminorm_sq(psi, m) + c_tilde * sobolev_norm_sq(psi, 0) + quartic


def _hex(values):
    return [float(v).hex() for v in values]


def _bitwise_fields():
    grid = GridSpec(64)
    single = np.zeros(64, dtype=np.complex128)
    single[3] = 0.4
    return [
        random_field(grid, rng_for(41), decay=2.5, l2_mass=0.8),
        random_field(GridSpec(32), rng_for(42), decay=1.0, l2_mass=1.3),
        plane_wave(grid, 0.6, -2),
        plane_wave(grid, 0.7, 0),
        SpectralField(grid, single),
        zero_field(grid),
    ]


class TestPaddedPathMatchesFineSamples:
    """The functionals synthesise their factors with one batched
    ``padded_samples`` call; each value keeps every bit of the per-factor
    synthesis it replaced, signed zeros included."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_correction_terms_and_difference_energy(self, generic_coeffs, m):
        fields = _bitwise_fields()
        for i, psi in enumerate(fields):
            assert _hex(correction_terms(psi, m, generic_coeffs)) == _hex(
                _reference_correction_terms(psi, m, generic_coeffs))
            for ref in fields[i:]:
                if ref.grid != psi.grid:
                    continue
                for a, b in ((psi, ref), (ref, psi)):
                    assert _hex([difference_energy(a, b, m, generic_coeffs, 1.5)]) \
                        == _hex([_reference_difference_energy(a, b, m,
                                                              generic_coeffs, 1.5)])

    def test_conserved_quantities(self):
        for psi in _bitwise_fields():
            assert _hex(conserved_quantities(psi)) == _hex(_reference_conserved(psi))
