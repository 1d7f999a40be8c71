import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from rzspec import counting as ct
from rzspec import dirac
from rzspec import zeta as ze
from rzspec.dirac import BoundaryData, SpectralFunctionKind as Kind
from rzspec.errors import MissedZeroError, ToleranceNotMet

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
        got = dirac._k_phase_slope(self.TS, 0.5, b.m_lx)
        one = [dirac._k_phase_slope(np.array([t]), 0.5, b.m_lx) for t in self.TS]
        assert all(g.tolist() == [o[i][0] for o in one] for i, g in enumerate(got))
        res = dirac.eigen_residual(self.TS, b)
        one = [dirac.eigen_residual(float(t), b) for t in self.TS]
        want = np.array(one)
        assert np.all(np.abs(res - want) <= 1e-15 * np.abs(want))

        # K_(1/2-iE/2) as the conjugate of K_(1/2+iE/2) has the bits of its own call
        def two_calls(E):
            return (cmath.exp(1j * b.vartheta) * dirac.bessel_k_complex_order(0.5 - 0.5j * E, b.m_lx)
                    - dirac.bessel_k_complex_order(0.5 + 0.5j * E, b.m_lx))
        assert all(type(v) is complex for v in one) and one == [two_calls(float(t)) for t in self.TS]
        assert res.tolist() == two_calls(self.TS).tolist()

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
            t = float(mp.findroot(lambda u: phase(u) - k * math.pi, (t_lo, t_hi), solver="anderson"))
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
            return float(mp.findroot(f, (TWO_PI * math.e + 1e-6, 300.0), solver="anderson"))

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

    def test_phi_riemann_keeps_the_bits_of_the_term_loop(self):
        # the (n x beta) array sums the theta series in the order of a loop
        # over n that adds one term array at a time
        def loop(beta):
            eb = np.exp(beta)
            out = np.zeros_like(beta)
            n_max = int(np.ceil(np.sqrt(746.0 / (math.pi * float(eb.min()))))) + 1
            for n in range(1, n_max + 1):
                expo = -math.pi * n * n * eb
                out += np.where(expo < -745.0, 0.0,
                                (2.0 * math.pi * eb * n * n - 3.0) * n * n * np.exp(expo))
            return 2.0 * math.pi * np.exp(1.25 * beta) * out
        rng = np.random.default_rng(11)
        for betas in (np.arange(-3.0, 3.0 + 1e-9, 0.02), rng.uniform(-3.0, 5.6, 2000),
                      rng.uniform(-3.0, 5.6, (3, 7)), *rng.uniform(-3.0, 5.6, (50, 1))):
            assert dirac.phi_kernel(Kind.XI_RIEMANN, betas).tobytes() == loop(np.abs(betas)).tobytes()

    @pytest.mark.parametrize("kind", list(Kind))
    def test_kernels_are_even_bit_for_bit(self, kind):
        # on the polya command's grid; the Riemann series is summed at |beta|,
        # where its terms do not cancel
        betas = np.arange(-3.0, 3.0 + 1e-9, 0.02)
        assert dirac.phi_kernel(kind, -betas).tobytes() == dirac.phi_kernel(kind, betas).tobytes()

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
        # at t = 100 the steps 1/4 and 1/8 would alias the cosine alike
        for t in (0.0, 10.0, T1, 37.5, 100.0):
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

    def test_riemann_zeros_are_those_of_z(self):
        # xi(1/2 + it) is Z(t) times a real factor that never vanishes:
        # the scan is Z's, and each root is a sign change of riemann_xi
        zs = dirac.find_dirac_zeros(Kind.XI_RIEMANN, 0.0, 100.0)
        assert zs == [r.t for r in ze.find_zeros(0.0, 100.0)] and len(zs) == 29
        signs = np.sign(dirac.riemann_xi(np.array(zs)[:, None] + np.array([-1e-8, 1e-8])))
        assert np.all(signs[:, 0] * signs[:, 1] < 0)

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

    @pytest.mark.parametrize("target, n", [
        (Kind.XI_DIRAC_H, 28), (Kind.XI_POLYA_STAR, 29), (Kind.XI_RIEMANN, 29),
        (BoundaryData(1.0, TWO_PI), 29), (BoundaryData(math.pi, TWO_PI), 28)])
    def test_counts_to_100(self, target, n):
        assert len(dirac.find_dirac_zeros(target, 0.0, 100.0)) == n

    @pytest.mark.parametrize("target", [
        Kind.XI_DIRAC_H, Kind.XI_POLYA_STAR, Kind.XI_RIEMANN,
        BoundaryData(1.0, TWO_PI), BoundaryData(math.pi, TWO_PI)])
    def test_too_coarse_step_raises(self, monkeypatch, target):
        # steps sized for a phase move of 2.6 would miss pairs of zeros: the
        # phase of K moves by more than pi/2 in a step, and Z (at
        # step 2.6) loses pairs against the exact zero count
        monkeypatch.setattr(dirac, "_PHASE_PER_STEP", 2.6)
        monkeypatch.setattr(ze, "ZERO_GRID_STEP", 2.6)
        with pytest.raises(MissedZeroError, match="pi/2|count gives"):
            dirac.find_dirac_zeros(target, 0.0, 100.0)

    @pytest.mark.parametrize("a, x", [(0.5, TWO_PI), (2.25, TWO_PI), (0.5, 0.5), (0.5, 1.0),
                                      (0.5, 20.0), (0.5, 60.0)])
    def test_phase_step_is_within_a_quarter_turn(self, a, x):
        # xi_H, xi* and the boundary family at m l_x in {0.5, 1, 2 pi, 20, 60}:
        # every step of the slope-sized scan grid on (0, 200] moves the phase
        # by (0, pi/2], and dK/dnu gives every node a slope > 0
        ts = dirac._phase_scan(a, x, 0.0, dirac.DIRAC_T_BUDGET)
        arg, slope, _ = dirac._k_phase_slope(ts, a, x)
        step = np.diff(np.unwrap(arg))
        assert np.all(step > 0.0) and np.all(step <= 0.5 * math.pi)
        assert np.all(slope > 0.0)
        assert ts[0] == 0.0 and ts[-1] == dirac.DIRAC_T_BUDGET

    @pytest.mark.parametrize("m_lx", [0.5, 1.0, 20.0, 60.0])
    def test_boundary_zeros_on_the_phase(self, m_lx):
        b = BoundaryData(1.0, m_lx)
        zs = dirac.find_dirac_zeros(b, 0.0, dirac.DIRAC_T_BUDGET)
        assert len(zs) > 0 and all(b2 > a2 for a2, b2 in zip(zs, zs[1:]))
        k = dirac.bessel_k_complex_order(0.5 + 0.5j * np.array(zs), m_lx)
        assert np.all(np.abs(np.sin(np.angle(k) - 0.5)) < 1e-9)

    def test_small_mass_radius_to_the_budget(self):
        # at m l_x = 0.1 the phase slope reaches 3.8 by t = 200, where a
        # fixed step of 0.4 would move the phase by up to 1.52 of the pi/2
        # allowed; the slope-sized step, 0.207, keeps every move below 0.8
        b = BoundaryData(1.0, 0.1)
        ts = dirac._phase_scan(0.5, 0.1, 0.0, dirac.DIRAC_T_BUDGET)
        arg, slope, _ = dirac._k_phase_slope(ts, 0.5, 0.1)
        assert np.diff(np.unwrap(arg)).max() < 0.8 and np.all(slope > 0.0)
        zs = dirac.find_dirac_zeros(b, 0.0, dirac.DIRAC_T_BUDGET)
        assert len(zs) == 210
        k = dirac.bessel_k_complex_order(0.5 + 0.5j * np.array(zs), 0.1)
        assert np.all(np.abs(np.sin(np.angle(k) - 0.5)) < 1e-9)

    def test_node_slope_below_zero_raises(self, monkeypatch):
        # the check reads the node slopes of dK/dnu as well as the steps
        real = dirac._k_phase_slope

        def flipped(t, a, x):
            arg, slope, err = real(t, a, x)
            return arg, np.where(np.arange(len(t)) == 3, -slope, slope), err
        monkeypatch.setattr(dirac, "_k_phase_slope", flipped)
        with pytest.raises(MissedZeroError, match="node slopes -"):
            dirac.find_dirac_zeros(Kind.XI_POLYA_STAR, 0.0, 100.0)

    def test_budget(self):
        with pytest.raises(ValueError):
            dirac.find_dirac_zeros(Kind.XI_DIRAC_H, 0.0, 250.0)
