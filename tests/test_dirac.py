import math

import numpy as np
import pytest

from rzspec import counting as ct
from rzspec import dirac
from rzspec.dirac import BoundaryData, SpectralFunctionKind as Kind
from rzspec.errors import ToleranceNotMet
from rzspec.roots import brent

T1 = 14.134725141734694
XI_H_FIRST_ZERO = 18.651790641994954
XI_STAR_FIRST_ZERO = 8.9928140386819898
XI_STAR_ZERO = 0.1050289969397721
XI_RIEMANN_ZERO = 0.24856038909415705
EIGEN_RES_20 = complex(1.5218441068469112e-7, 0.0)

TWO_PI = 2.0 * math.pi


class TestClosedForms:
    def test_xi_h_at_zero(self):
        assert dirac.xi_h(0.0) == pytest.approx(math.exp(-TWO_PI), rel=1e-12)

    @pytest.mark.parametrize("t", [3.0, 31.0])
    def test_xi_h_even(self, t):
        assert dirac.xi_h(t) == dirac.xi_h(-t)

    def test_xi_star_at_zero(self):
        assert dirac.polya_xi_star(0.0) == pytest.approx(XI_STAR_ZERO, rel=1e-12)

    @pytest.mark.parametrize("t", [7.0, 42.0])
    def test_xi_star_even(self, t):
        assert dirac.polya_xi_star(t) == dirac.polya_xi_star(-t)

    def test_riemann_xi_at_zero_ordinate(self):
        assert abs(dirac.riemann_xi(T1)) < 1e-6

    def test_riemann_xi_at_origin(self):
        assert dirac.riemann_xi(0.0) == pytest.approx(XI_RIEMANN_ZERO, rel=1e-11)

    def test_riemann_xi_even(self):
        for t in (4.0, 26.5):
            assert dirac.riemann_xi(t) == pytest.approx(dirac.riemann_xi(-t), abs=1e-12)

    def test_riemann_xi_realness(self):
        for t in (0.0, 10.0, 40.0):
            assert abs(dirac._riemann_xi_complex(t).imag) < 1e-10


class TestArrayArguments:
    """The spectral functions take an ndarray of t in one evaluation."""

    TS = np.array([-7.5, 0.0, 3.0, 18.651790641994954, 44.4, 99.9])

    def test_bessel_kinds_equal_scalar_calls(self):
        for fn in (dirac.xi_h, dirac.polya_xi_star):
            assert fn(self.TS).tolist() == [fn(float(t)) for t in self.TS]
        b = BoundaryData(1.0, TWO_PI)
        got = dirac._eigen_scan_function(self.TS, b)
        assert got.tolist() == [float(dirac._eigen_scan_function(float(t), b)) for t in self.TS]
        res = dirac.eigen_residual(self.TS, b)
        want = np.array([dirac.eigen_residual(float(t), b) for t in self.TS])
        assert np.all(np.abs(res - want) <= 1e-15 * np.abs(want))

    def test_riemann_xi_matches_scalar(self):
        got = dirac.riemann_xi(self.TS)
        want = np.array([dirac.riemann_xi(float(t)) for t in self.TS])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-20)

    def test_kernels_equal_one_point_calls(self):
        betas = np.arange(-3.0, 3.0 + 1e-9, 0.02)
        for kind in Kind:
            got = dirac.phi_kernel(kind, betas)
            assert got.tolist() == [dirac.phi_kernel(kind, float(b)) for b in betas]


class TestEigenResidual:
    def test_zero_energy_state_at_theta_zero(self):
        b = BoundaryData(0.0, TWO_PI)
        assert abs(dirac.eigen_residual(0.0, b)) < 1e-15

    def test_matches_xi_h_at_pi(self):
        b = BoundaryData(math.pi, TWO_PI)
        for E in (5.0, 20.0):
            assert dirac.eigen_residual(E, b) == pytest.approx(-dirac.xi_h(E), abs=1e-18)

    def test_oracle_at_20(self):
        b = BoundaryData(math.pi, TWO_PI)
        v = dirac.eigen_residual(20.0, b)
        assert abs(v - EIGEN_RES_20) < 1e-10 * abs(EIGEN_RES_20) + 1e-20

    def test_zeros_match_xi_h(self):
        b = BoundaryData(math.pi, TWO_PI)
        zb = dirac.find_dirac_zeros(b, 0.0, 40.0)
        zh = [z for z in dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 40.0)]
        assert len(zb) == len(zh)
        assert max(abs(a - b2) for a, b2 in zip(zb, zh)) < 1e-8


class TestEnvelopes:
    def test_polya_envelope_at_phase_extrema(self):
        # |xi*| over the asymptotic envelope at the cosine-phase extrema;
        # 4% at t ~ 80 is calibrated, and the deviation must shrink with t
        def phase(t):
            return 0.5 * t * math.log(t / (TWO_PI * math.e)) + 7.0 * math.pi / 8.0

        def extremum_ratio(t_lo, t_hi, k):
            t = brent(lambda u: phase(u) - k * math.pi, t_lo, t_hi, xtol=1e-10)
            return abs(dirac.polya_xi_star(t)) / dirac.polya_xi_star_envelope(t), t

        k70 = math.ceil(phase(72.0) / math.pi)
        r80, _ = extremum_ratio(70.0, 95.0, k70 + 2)
        r88, _ = extremum_ratio(70.0, 95.0, k70 + 6)
        assert abs(r80 - 1.0) < 0.04
        assert abs(r88 - 1.0) < abs(r80 - 1.0)

    def test_first_zeros_and_phase_prediction(self):
        zh = dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 100.0)
        assert zh[0] == pytest.approx(XI_H_FIRST_ZERO, abs=1e-8)
        zs = dirac.find_dirac_zeros(Kind.XI_POLYA_STAR, 0.0, 30.0)
        assert zs[0] == pytest.approx(XI_STAR_FIRST_ZERO, abs=1e-8)
        # asymptotic root prediction closes in on the true zeros

        def pred(k):
            f = lambda t: 0.5 * t * math.log(t / (TWO_PI * math.e)) - (0.5 + k) * math.pi
            return brent(f, TWO_PI * math.e + 1e-6, 300.0, xtol=1e-10)

        gaps = [abs(zh[k] - pred(k)) for k in (0, 10, len(zh) - 1)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.15


class TestKernels:
    def test_phi_dirac_at_zero(self):
        assert dirac.phi_kernel(Kind.XI_DIRAC_H, 0.0) == pytest.approx(
            2.0 * math.exp(-TWO_PI), rel=1e-14)

    def test_phi_star_even(self):
        assert dirac.phi_kernel(Kind.XI_POLYA_STAR, 1.3) == pytest.approx(
            dirac.phi_kernel(Kind.XI_POLYA_STAR, -1.3), rel=1e-14)

    def test_phi_riemann_even_by_theta_identity(self):
        # evenness of the Riemann kernel is the theta-function functional
        # equation at work; the series itself is not manifestly symmetric
        for b in (0.3, 0.5, 1.1):
            assert dirac.phi_kernel(Kind.XI_RIEMANN, -b) == pytest.approx(
                dirac.phi_kernel(Kind.XI_RIEMANN, b), rel=1e-12)

    def test_phi_riemann_tail_envelope(self):
        def ratio(b):
            env = 4.0 * math.pi ** 2 * math.exp(2.25 * b) * math.exp(-math.pi * math.exp(b))
            return dirac.phi_kernel(Kind.XI_RIEMANN, b) / env
        assert 0.9 < ratio(2.0) < 1.0
        assert abs(ratio(3.0) - 1.0) < abs(ratio(2.0) - 1.0)


class TestFourierRoute:
    @pytest.mark.parametrize("kind,closed,tol", [
        (Kind.XI_DIRAC_H, dirac.xi_h, 1e-8),
        (Kind.XI_POLYA_STAR, dirac.polya_xi_star, 1e-8),
        (Kind.XI_RIEMANN, dirac.riemann_xi, 1e-6),
    ])
    def test_matches_closed_form(self, kind, closed, tol):
        for t in (0.0, 10.0, T1, 37.5):
            assert abs(dirac.xi_via_fourier(kind, t) - closed(t)) < tol

    def test_budget(self):
        with pytest.raises(ToleranceNotMet):
            dirac.xi_via_fourier(Kind.XI_DIRAC_H, 150.0)


class TestEigenfunction:
    def test_closed_form_at_zero_energy(self):
        s = ct.ModelScales(l_x=1.0, l_p=1.0)
        v = dirac.eigenfunction_xp(0.0, 1.0, s)
        assert v.real == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
        assert abs(v.imag) < 1e-16

    def test_small_x_power_law(self):
        s = ct.ModelScales(l_x=1.0, l_p=1.0)
        E = 10.0
        xc = E / (2.0 * s.l_p)
        vals = [abs(dirac.eigenfunction_xp(E, f * xc, s)) * math.sqrt(f * xc)
                for f in (0.01, 0.03, 0.1)]
        assert max(vals) / min(vals) < 1.1

    def test_large_x_decay_rate(self):
        s = ct.ModelScales(l_x=1.0, l_p=1.0)
        E = 10.0
        x = 10.0 * E / (2.0 * s.l_p)
        h = 1e-3
        rate = (math.log(abs(dirac.eigenfunction_xp(E, x + h, s)))
                - math.log(abs(dirac.eigenfunction_xp(E, x - h, s)))) / (2.0 * h)
        assert rate == pytest.approx(-s.l_p / s.hbar, rel=0.05)


class TestZeroScans:
    def test_riemann_zeros_to_25(self):
        zs = dirac.find_dirac_zeros(Kind.XI_RIEMANN, 0.0, 25.0)
        assert len(zs) == 2
        assert zs[0] == pytest.approx(14.134725141734694, abs=1e-8)
        assert zs[1] == pytest.approx(21.022039638771555, abs=1e-8)

    def test_xi_h_count_vs_smooth(self):
        zs = dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 100.0)
        smooth = ct.n_dirac_smooth(100.0, ct.ModelScales(l_x=1.0, l_p=TWO_PI))
        assert abs(len(zs) - smooth) <= 2.0

    def test_xi_h_interlacing(self):
        zs = dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 100.0)
        mids = [0.5 * (a + b) for a, b in zip(zs, zs[1:])]
        signs = [math.copysign(1.0, dirac.xi_h(m)) for m in mids]
        assert all(a * b < 0 for a, b in zip(signs, signs[1:]))

    def test_polya_zeros_all_real_no_anomaly(self):
        # every sign change refines to a root; count tracks the phase law
        zs = dirac.find_dirac_zeros(Kind.XI_POLYA_STAR, 0.0, 100.0)
        assert all(abs(dirac.polya_xi_star(z)) < 1e-9 * dirac.polya_xi_star_envelope(max(z, 1.0))
                   + 1e-12 for z in zs)

    def test_xi_h_density_matches_smooth_derivative(self):
        zs = dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 50.0, 150.0)
        s = ct.ModelScales(l_x=1.0, l_p=TWO_PI)
        expected = ct.n_dirac_smooth(150.0, s) - ct.n_dirac_smooth(50.0, s)
        assert abs(len(zs) / expected - 1.0) < 0.1

    def test_budget(self):
        with pytest.raises(ValueError):
            dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 250.0)
