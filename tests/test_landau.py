import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from rzspec import landau
from rzspec.errors import MissedZeroError, ToleranceNotMet
from rzspec.landau import LandauGeometry
from rzspec.roots import level_roots, scan_grid
from rzspec.specfun import kummer_m_bounded, kummer_m_grid
from rzspec.zeta import _theta_prime, theta_rs

GEOM = LandauGeometry(magnetic_length=1.0, box_size=100.0)
FIRST_ROOT = 0.53260437203513055
SECOND_ROOT = 1.1788967506616517


def level_scan(monkeypatch, e_max, g):
    # the half phase, grid, level and turns that landau_levels gives the level scan, and its levels
    calls = []
    monkeypatch.setattr(landau, "level_roots", lambda *args: calls.append(args) or level_roots(*args))
    levels = landau.landau_levels(e_max, g)
    monkeypatch.undo()
    return calls[0], levels


class TestWavefunctions:
    def test_even_at_origin(self):
        assert landau.psi_plus(17.3, 0.0, 0.0, GEOM) == 1.0

    def test_odd_at_origin(self):
        assert landau.psi_minus(17.3, 0.0, 0.0, GEOM) == 0.0

    def test_real_section_conjugate_pair(self):
        # on the x axis the argument is real, so |psi(x, 0)| = |psi(-x, 0)|
        a = abs(landau.psi_plus(5.0, 2.5, 0.0, GEOM))
        b = abs(landau.psi_plus(5.0, -2.5, 0.0, GEOM))
        assert a == pytest.approx(b, rel=1e-12)

    def test_ridge_tracks_classical_hyperbola(self):
        xs = np.linspace(-10.0, 10.0, 200)
        amp, bound = landau.psi_abs_grid(10.0, xs, xs, GEOM)
        i, j = np.unravel_index(np.argmax(amp), amp.shape)
        x0, y0 = xs[i], xs[j]
        dist = abs(x0 * y0 - 10.0) / math.hypot(x0, y0)
        assert dist < 0.5
        # certified bounds: no excluded cell can challenge the argmax
        assert np.all(amp + bound <= amp[i, j] + bound[i, j] + amp[i, j] * 1e-9)

    @pytest.mark.parametrize("odd", [False, True])
    def test_bound_covers_error_at_exact_point(self, odd, energy=10.0, stride=90):
        # against mpmath at the exact (x, y), so the bound must also cover
        # the rounding of (x - iy)^2 / 2 and of the Gaussian exponent
        xs = np.linspace(-10.0, 10.0, 200)
        amp, bound = landau.psi_abs_grid(energy, xs, xs, GEOM, odd=odd)
        a, b = mp.mpc(0.75 if odd else 0.25, energy / 2), mp.mpf(1.5 if odd else 0.5)
        with mp.workdps(40):
            for k in range(0, amp.size, stride):
                i, j = divmod(k, xs.size)
                x, y = mp.mpf(float(xs[i])), mp.mpf(float(xs[j]))
                w = mp.mpc(x, -y)
                want = abs(mp.exp(-x * x / 2) * mp.hyp1f1(a, b, w * w / 2) * (w if odd else 1))
                assert abs(amp[i, j] - want) <= bound[i, j], (xs[i], xs[j])

    @pytest.mark.parametrize("energy", [0.0, 1e-30])
    @pytest.mark.parametrize("odd", [False, True])
    def test_bound_covers_error_near_zero_energy(self, odd, energy):
        # at E = 0 every odd coefficient of the series of e^(-w/2) M is 0
        self.test_bound_covers_error_at_exact_point(odd, energy, 397)

    @pytest.mark.parametrize("odd", [False, True])
    def test_default_grid_bounds_within_1e_8(self, odd):
        # the largest relative abs_psi bound of the default E = 10 grid:
        # 9.9e-11 in both sectors with the series of e^(-w/2) M, against
        # 1.2e-9 (even) and 4.1e-9 (odd) with the series of M
        xs = np.linspace(-10.0, 10.0, 200)
        amp, bound = landau.psi_abs_grid(10.0, xs, xs, GEOM, odd=odd)
        assert np.max(bound / amp) <= 1e-8

    def test_out_of_budget_value_is_refused(self):
        # the E = 40 Kummer cell M(1/4 + 20i, 1/2, 1 + 50i) that no route covers
        w = cmath.sqrt(2.0 + 100.0j)
        x, y = w.real, -w.imag
        m, bound = kummer_m_bounded(0.25 + 20j, 0.5, landau._z_arg(x, y, GEOM))
        assert bound > landau.PSI_REL_TOL * abs(m)
        with pytest.raises(ToleranceNotMet):
            landau.psi_plus(40.0, x, y, GEOM)

    def test_every_point_of_the_e10_grid_returns(self):
        xs = np.linspace(-10.0, 10.0, 41).tolist()
        for psi in (landau.psi_plus, landau.psi_minus):
            amp = [abs(psi(10.0, x, y, GEOM)) for x in xs for y in xs]
            assert all(math.isfinite(v) for v in amp)

    def test_grid_matches_scalar(self, monkeypatch):
        # the grid and psi_plus/psi_minus form z by the one helper _z_arg, so
        # each M cell of the grid is its one-cell Kummer call bit for bit,
        # flipped cells and the axes included
        calls = []

        def kept(a, b, z):
            calls.append((a, b, kummer_m_grid(a, b, z)))
            return calls[-1][2]
        monkeypatch.setattr(landau, "kummer_m_grid", kept)
        xs = np.array([-3.0, 0.0, 0.5, 3.0])
        for odd, psi in ((False, landau.psi_plus), (True, landau.psi_minus)):
            amp, _ = landau.psi_abs_grid(7.0, xs, xs, GEOM, odd=odd)
            a, b, (m, bound) = calls.pop()
            for i, x in enumerate(xs.tolist()):
                for j, y in enumerate(xs.tolist()):
                    want = kummer_m_bounded(a, b, landau._z_arg(x, y, GEOM))
                    assert np.array([m[i, j], bound[i, j]]).tobytes() == np.array(want).tobytes()
                    assert amp[i, j] == pytest.approx(abs(psi(7.0, x, y, GEOM)), rel=4e-15, abs=0.0)

    def test_abs_psi_is_the_libm_modulus(self, monkeypatch):
        # |M| of each cell is abs() of its complex value (libm hypot), not
        # numpy's vector complex abs, which can differ in the last bit
        calls = []

        def kept(a, b, z):
            calls.append(kummer_m_grid(a, b, z))
            return calls[-1]
        monkeypatch.setattr(landau, "kummer_m_grid", kept)
        xs = np.linspace(-10.0, 10.0, 41)
        for odd in (False, True):
            amp, _ = landau.psi_abs_grid(10.0, xs, xs, GEOM, odd=odd)
            m = calls.pop()[0]
            gauss = np.exp(-0.5 * (xs[:, None] / GEOM.magnetic_length) ** 2)
            pref = np.hypot(xs[:, None], xs[None, :]) if odd else 1.0
            modulus = np.array([abs(v) for v in m.ravel().tolist()]).reshape(m.shape)
            assert amp.tobytes() == (modulus * gauss * pref).tobytes()


class TestQuantization:
    def test_residual_at_zero_energy(self):
        assert landau.quantization_residual(0.0, GEOM) == 0.0

    def test_residual_range(self):
        for e in np.linspace(0.1, 25.0, 57):
            r = landau.quantization_residual(float(e), GEOM)
            assert -math.pi < r <= math.pi

    def test_phase_slope_large_e(self):
        # d/dE of the unreduced phase approaches log(E/2pi) - log(L^2/2pi l^2)
        E, h = 50.0, 1e-4
        slope = (2.0 * theta_rs(E + h) - (E + h) * GEOM.log_cutoff
                 - 2.0 * theta_rs(E - h) + (E - h) * GEOM.log_cutoff) / (2.0 * h)
        pred = math.log(E / (2.0 * math.pi)) - GEOM.log_cutoff
        assert slope == pytest.approx(pred, abs=5e-3)

    def test_first_roots(self):
        lv = landau.landau_levels(2.0, GEOM)
        assert lv[0] == pytest.approx(FIRST_ROOT, abs=1e-9)
        assert lv[1] == pytest.approx(SECOND_ROOT, abs=1e-9)

    def test_residual_sign_change_across_roots(self):
        lv = landau.landau_levels(10.0, GEOM)
        assert all(b > a for a, b in zip(lv, lv[1:]))
        for r in lv:
            lo = landau.quantization_residual(r - 1e-4, GEOM)
            hi = landau.quantization_residual(r + 1e-4, GEOM)
            assert lo * hi < 0

    def test_count_matches_smooth(self):
        lv = landau.landau_levels(20.0, GEOM)
        assert abs(len(lv) - round(landau.n_landau(20.0, GEOM))) <= 1

    @pytest.mark.parametrize("box_size, n_levels", [(100.0, 156), (10.0, 23)])
    def test_levels_solve_the_condition_to_rounding(self, box_size, n_levels):
        # Newton on sin(phase / 2) and its closed-form slope stops at the phase's own rounding;
        # at L / l = 10 the phase turns at E ~ 100 and rises to E = 200
        g = LandauGeometry(magnetic_length=1.0, box_size=box_size)
        lv = landau.landau_levels(200.0, g)
        assert len(lv) == n_levels
        assert max(abs(landau.quantization_residual(e, g)) for e in lv) <= 1e-12

    @pytest.mark.parametrize("box_size", [30.0, 100.0, 1000.0])
    @pytest.mark.parametrize("e_max", [2.0, 20.0, 200.0])
    def test_count_is_floor_of_smooth_and_levels_on_phase(self, box_size, e_max):
        g = LandauGeometry(magnetic_length=1.0, box_size=box_size)
        lv = landau.landau_levels(e_max, g)
        assert len(lv) == math.floor(landau.n_landau(e_max, g))
        for e in lv:
            assert abs(math.remainder(landau._phase(e, g), 2.0 * math.pi)) < 1e-9

    @pytest.mark.parametrize("e_max", [20.0, 200.0])
    def test_levels_keep_the_bits_of_the_closed_form_slope(self, monkeypatch, e_max):
        # the scan step lets 0.8 pi of phase pass at the larger phase slope
        # |2 theta'(E) - log(L^2/2 pi l^2)| of E = 0 and E_max, with theta' in
        # closed form; the levels are the bits of the scan at that step
        slope = float(np.max(np.abs(2.0 * _theta_prime(np.array([0.0, e_max])) - GEOM.log_cutoff)))
        with mp.workdps(25):
            ref = max(abs(2 * mp.siegeltheta(e, derivative=1) - GEOM.log_cutoff) for e in (0, e_max))
        assert slope == pytest.approx(float(ref), rel=1e-14)
        (phase, ts, c, turns), got = level_scan(monkeypatch, e_max, GEOM)
        grid = scan_grid(0.0, e_max, 0.8 * math.pi / slope)
        assert ts.tobytes() == grid.tobytes() and c == 0.0
        # the scanned phase is half the phase, its slope theta' - log(L^2/2 pi l^2) / 2
        half, dhalf, _ = phase(grid)
        assert np.allclose(half, 0.5 * landau._phase(grid, GEOM), rtol=1e-14, atol=1e-13)
        assert np.allclose(dhalf, _theta_prime(grid) - 0.5 * GEOM.log_cutoff, rtol=1e-15, atol=0.0)
        # below E = L^2 the phase only falls, so no turn, and the count is floor n_landau
        assert turns == () and len(got) == math.floor(landau.n_landau(e_max, GEOM))
        assert np.array(got).tobytes() == np.array(level_roots(phase, grid, 0.0)).tobytes()

    def test_energy_budget_refused_before_scanning(self):
        # 1e9 would ask for a scan grid of billions of points
        for e_max in (1.0001 * landau.LANDAU_E_BUDGET, 1e9):
            with pytest.raises(ToleranceNotMet):
                landau.landau_levels(e_max, GEOM)

    def test_levels_past_the_phase_turning_point(self):
        # above E = L^2 the phase turns back and re-crosses the same multiples
        # of 2 pi: 23 levels, where the smooth count at E_max reads 9.89
        g = LandauGeometry(magnetic_length=1.0, box_size=10.0)
        lv = landau.landau_levels(200.0, g)
        assert len(lv) == 23
        for e in lv:
            assert abs(math.remainder(landau._phase(e, g), 2.0 * math.pi)) < 1e-9

    @pytest.mark.parametrize("box_size", [0.1, 10.0, 30.0, 1000.0])
    @pytest.mark.parametrize("e_max", [2.0, 20.0, 200.0, 1000.0])
    def test_exact_count_on_both_sides_of_the_turning_point(self, box_size, e_max):
        # the multiples of 2 pi that the phase crosses on a grid whose steps
        # pass well under 2 pi each; at L = 0.1 the phase rises from E = 0
        g = LandauGeometry(magnetic_length=1.0, box_size=box_size)
        lv = landau.landau_levels(e_max, g)
        turns = np.floor(landau._phase(np.linspace(0.0, e_max, 20001)[1:], g) / (2.0 * math.pi))
        assert len(lv) == np.abs(np.diff(turns)).sum()
        assert all(abs(math.remainder(landau._phase(e, g), 2.0 * math.pi)) < 1e-9 for e in lv)

    @pytest.mark.parametrize("box_size, e_max", [(100.0, 20.0), (10.0, 200.0)])
    def test_too_coarse_step_raises(self, monkeypatch, box_size, e_max):
        # eight times the step lets up to 6.4 pi of phase pass, so some steps
        # hold two levels; the level scan refuses steps past a quarter turn
        g = LandauGeometry(magnetic_length=1.0, box_size=box_size)
        slope = 2.0 * _theta_prime(np.array([0.0, e_max])) - g.log_cutoff
        step = 0.8 * math.pi / float(np.max(np.abs(slope)))
        (phase, _, c, turns), levels = level_scan(monkeypatch, e_max, g)
        assert len(levels) == 23  # floor n_landau(20) at L / l = 100; past the turn at L / l = 10
        assert level_roots(phase, scan_grid(0.0, e_max, step), c, turns) == levels
        with pytest.raises(MissedZeroError):
            level_roots(phase, scan_grid(0.0, e_max, 8.0 * step), c, turns)

    def test_spacing_near_10(self):
        lv = landau.landau_levels(13.0, GEOM)
        near = [v for v in lv if 8.0 < v < 12.0]
        pred = 2.0 * math.pi / (GEOM.log_cutoff - math.log(10.0 / (2.0 * math.pi)))
        for gap in np.diff(near):
            assert gap == pytest.approx(pred, rel=0.1)

    def test_missing_level_identity(self):
        # smooth count minus the raw cutoff term is exactly -theta(E)/pi,
        # negative once theta turns positive (E above ~17.85)
        for E in (3.0, 12.5, 20.0):
            lhs = landau.n_landau(E, GEOM) - E / (2.0 * math.pi) * GEOM.log_cutoff
            assert lhs == pytest.approx(-theta_rs(E) / math.pi, abs=1e-9)
        assert landau.n_landau(20.0, GEOM) - 20.0 / (2.0 * math.pi) * GEOM.log_cutoff < 0.0
