import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import zeta as ze
from rzspec.roots import find_all, scan_grid
from rzspec.errors import (
    ConsistencyError,
    FormatError,
    MissedZeroError,
    MonotonicityError,
    PoleError,
    ToleranceNotMet,
)
from rzspec.specfun import log_gamma

# frozen oracle values (mpmath, 30 digits)
ZETA_HALF = -1.4603545088095868
THETA_14_1347 = -1.7286804359653962
ZETA_HALF_100I = complex(2.6926198856813241, -0.020386029602598162)
ZETA_M25_3I = complex(0.068763679033646482, 0.13398028393783443)
ZETA_PRIME_HALF_20I = complex(0.71450679084377599, 1.0052408839470132)
ZETA_PRIME_RHO1 = complex(0.78329651186703093, 0.12469982974817109)
Z_PRIME_T1 = 0.79316043335650612
T1 = 14.134725141734694


class TestZeta:
    def test_euler_maclaurin_coefficients_equal_the_exact_rationals(self):
        # B_2k/(2k)! from the recurrence sum_{j<=m} C(m+1, j) B_j = 0 in
        # exact rationals, rounded once: the tangent-number table has its bits
        bern = [Fraction(1), Fraction(-1, 2)]
        for m in range(2, 61):
            bern.append(-sum(Fraction(math.comb(m + 1, j)) * bern[j] for j in range(m)) / (m + 1))
        want = [float(bern[2 * k] / Fraction(math.factorial(2 * k))) for k in range(1, 31)]
        assert [c.hex() for c in ze._EM_COEF] == [c.hex() for c in want]
        assert ze._bernoulli_over_factorial(30) == ze._EM_COEF

    def test_two(self):
        assert ze.zeta(2.0 + 0j).real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)

    def test_zero_is_minus_half(self):
        assert ze.zeta(0j) == -0.5

    def test_first_zero_small(self):
        assert abs(ze.zeta(complex(0.5, 14.134725141734694))) < 1e-4

    def test_pole(self):
        with pytest.raises(PoleError):
            ze.zeta(1.0 + 0j)

    def test_height_past_the_budget_is_refused(self):
        # at t = 1e9 the main sum alone would take log n for 3.8e8 terms; the budget is
        # above the documented domain |Im s| <= 1420
        assert ze.ZETA_T_BUDGET > 1420.0
        for f, x in ((ze.zeta, 0.5 + 1e9j), (ze.zeta, -2.0 - 1e9j), (ze.z_function, 1e9),
                     (ze.z_function, np.array([20.0, 2e4]))):
            with pytest.raises(ToleranceNotMet):
                f(x)

    def test_oracles(self):
        assert abs(ze.zeta(0.5 + 0j) - ZETA_HALF) < 1e-13
        assert abs(ze.zeta(complex(0.5, 100.0)) - ZETA_HALF_100I) < 1e-12
        assert abs(ze.zeta(complex(-2.5, 3.0)) - ZETA_M25_3I) < 1e-12

    def test_trivial_zeros(self):
        assert abs(ze.zeta(-2.0 + 0j)) < 1e-15
        assert abs(ze.zeta(-8.0 + 0j)) < 1e-15

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=-120.0, max_value=120.0))
    def test_conjugation(self, sigma, t):
        s = complex(sigma, t)
        if abs(s - 1.0) < 0.05:
            return
        assert abs(ze.zeta(s.conjugate()) - ze.zeta(s).conjugate()) < 1e-12

    def test_accuracy_box_against_oracle(self):
        # absolute error <= 1e-10 over 0 <= Re s <= 2, |Im s| <= 500
        mp.mp.dps = 25
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(25):
            s = complex(rng.uniform(0.0, 2.0), rng.uniform(-500.0, 500.0))
            if abs(s - 1.0) < 0.05:
                continue
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            worst = max(worst, abs(ze.zeta(s) - ref))
        assert worst < 1e-10


class TestTheta:
    def test_at_zero(self):
        assert ze.theta_rs(0.0) == 0.0

    def test_asymptote_100(self):
        asym = 50.0 * math.log(100.0 / (2.0 * math.pi)) - 50.0 - math.pi / 8.0
        assert abs(ze.theta_rs(100.0) - asym) < 1e-2

    def test_oracle(self):
        assert ze.theta_rs(14.1347) == pytest.approx(THETA_14_1347, abs=1e-11)

    @given(st.floats(min_value=0.0, max_value=300.0))
    def test_odd(self, t):
        assert ze.theta_rs(-t) == pytest.approx(-ze.theta_rs(t), abs=1e-12)

    def test_phase_identity_sample(self):
        # e^{2 i theta(t)} = pi^{-it} Gamma(1/4+it/2)/Gamma(1/4-it/2)
        for t in (0.0, 3.7, 55.0, 200.0):
            lhs = cmath.exp(2j * ze.theta_rs(t))
            ratio = cmath.exp(log_gamma(complex(0.25, 0.5 * t))
                              - log_gamma(complex(0.25, -0.5 * t)))
            rhs = cmath.exp(-1j * t * math.log(math.pi)) * ratio
            assert abs(lhs - rhs) < 1e-10


class TestZFunction:
    def test_at_zero(self):
        assert ze.z_function(0.0) == pytest.approx(ZETA_HALF, abs=1e-13)

    @pytest.mark.parametrize("t", [5.0, 17.0, 63.0])
    def test_even(self, t):
        assert ze.z_function(-t) == pytest.approx(ze.z_function(t), abs=1e-12)

    def test_vanishes_at_first_zero(self):
        assert abs(ze.z_function(14.134725141734694)) < 1e-4


class TestArrayLayer:
    # one kernel per function; a number runs it as a one-element array
    SCAN_GRID = np.arange(0.0, 500.0 + 1e-9, ze.ZERO_GRID_STEP)

    def test_z_and_zeta_match_scalar_on_scan_grid(self):
        # a number call of Z and zeta agrees with the array call over the
        # whole scan grid
        ts = self.SCAN_GRID
        z_arr = ze.z_function(ts)
        z_sc = np.array([ze.z_function(float(t)) for t in ts])
        assert np.all(np.abs(z_arr - z_sc) <= 1e-14 * np.maximum(1.0, np.abs(z_sc)))
        zeta_arr = ze.zeta(0.5 + 1j * ts)
        zeta_sc = np.array([ze.zeta(complex(0.5, t)) for t in ts])
        assert np.all(np.abs(zeta_arr - zeta_sc) <= 1e-14 * np.maximum(1.0, np.abs(zeta_sc)))

    def test_zeta_off_the_line_and_shape(self):
        s = np.array([[2.0 + 3.0j, 0.0, 0.3 - 40.0j], [-1.5 + 10.0j, -3.0 + 0.5j, -2.5 + 40.0j]])
        got = ze.zeta(s)
        assert got.shape == s.shape
        ref = np.array([[ze.zeta(complex(v)) for v in row] for row in s])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
        # a transposed view, not in C order, is written point by point too
        assert ze.zeta(s.T).tobytes() == got.T.copy().tobytes()
        assert ze.zeta(np.array([], dtype=complex)).shape == (0,)
        with pytest.raises(PoleError):
            ze.zeta(np.array([0.5 + 1j, 1.0]))

    def test_zeta_against_mpmath_whole_domain(self):
        # 300 seeded points over Re s in [-3, 3], |Im s| <= 1420, both sides
        # of the functional equation, in a 2-d shape
        rng = np.random.default_rng(11)
        s = (rng.uniform(-3.0, 3.0, 300) + 1j * rng.uniform(-1420.0, 1420.0, 300)).reshape(20, 15)
        got = ze.zeta(s)
        assert got.shape == s.shape
        with mp.workdps(20):
            ref = np.array([complex(mp.zeta(mp.mpc(v.real, v.imag))) for v in s.ravel()])
        assert np.max(np.abs(got.ravel() - ref) / np.abs(ref)) < 1e-11

    def test_theta_against_mpmath_both_signs(self):
        rng = np.random.default_rng(12)
        ts = rng.uniform(-2000.0, 2000.0, 300)
        with mp.workdps(20):
            ref = np.array([float(mp.siegeltheta(t)) for t in ts])
        assert np.max(np.abs(ze.theta_rs(ts) - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13
        # continuous branch: theta' <= log(2000 / 2 pi) / 2 < 3, so a step of
        # 0.5 moves it by less than 1.5 and a 2 pi jump would stand out
        th = ze.theta_rs(np.linspace(-2000.0, 2000.0, 8001))
        assert np.max(np.abs(np.diff(th))) < 1.5

    @pytest.mark.parametrize("f, lo, hi, kind", [
        (log_gamma, -6.3 - 900j, 6.3 + 900j, complex),
        (ze.zeta, -3.0 - 1420j, 3.0 + 1420j, complex),
        (ze.theta_rs, -2000.0, 2000.0, float),
        (ze.z_function, 0.0, 500.0, float),
    ], ids=["log_gamma", "zeta", "theta_rs", "z_function"])
    def test_number_is_its_array_element(self, f, lo, hi, kind):
        # a Python number gives a Python number with the bits of its element
        # of an array call
        rng = np.random.default_rng(13)
        xs = rng.uniform(lo.real, hi.real, 40)
        if kind is complex:
            xs = xs + 1j * rng.uniform(lo.imag, hi.imag, 40)
        arr = f(xs)
        for x, a in zip(xs.tolist(), arr.tolist()):
            got = f(x)
            assert type(got) is kind
            assert np.array([got]).tobytes() == np.array([a]).tobytes()

    def test_against_mpmath_siegelz(self):
        mp.mp.dps = 25
        ts = self.SCAN_GRID[::200]  # 51 points of the scan grid
        got = ze.z_function(ts)
        ref = np.array([float(mp.siegelz(t)) for t in ts])
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        th_ref = np.array([float(mp.siegeltheta(t)) for t in ts])
        assert np.all(np.abs(ze.theta_rs(ts) - th_ref) <= 1e-12 * np.maximum(1.0, np.abs(th_ref)))

    def test_array_residue_above_budget_raises(self, monkeypatch):
        theta = ze.theta_rs
        monkeypatch.setattr(ze, "theta_rs", lambda t: theta(t) + 1e-3)
        with pytest.raises(ConsistencyError):
            ze.z_function(np.linspace(10.0, 20.0, 11))


class TestRiemannSiegel:
    # the kernel of the scan and plot grids from _RS_T_MIN up: its C_0..C_4 polynomials, its
    # values against mpmath and Euler-Maclaurin within its own error bound, and the helper
    # that hands a value within that bound of 0 to Euler-Maclaurin
    def test_coefficients_against_mpmath_taylor(self):
        # C_k(1/2 + x) from Psi's derivatives, Psi's Taylor series at x = 0 by mpmath's
        # numerical differentiation: each float coefficient within 1e-15 of its value, and the
        # first power of x^2 left out below 1e-19 at |x| = 1/2
        terms = ze._RS_TERMS + 1
        with mp.workdps(40):
            a = mp.taylor(lambda x: -mp.cos(2 * mp.pi * x * x - 5 * mp.pi / 8)
                          / mp.cos(2 * mp.pi * x), 0, 2 * terms + 12)
            ref = np.array([[float(sum(mp.mpf(p) / q * a[d + 4 * e - k] * mp.factorial(d + 4 * e - k)
                                       / (mp.factorial(d) * mp.pi ** (2 * e))
                                       for e, (p, q) in enumerate(rs, start=k > 0)))
                             for d in range(k % 2 + 2 * terms - 2, -1, -2)]
                            for k, rs in enumerate(ze._RS_R)])
        got = ze._rs_coefficients()
        assert got.shape == (5, ze._RS_TERMS)
        assert np.all(np.abs(got - ref[:, 1:]) <= 1e-15 * np.abs(ref[:, 1:]))
        assert np.max(np.abs(ref[:, 0]) * 0.5 ** (2 * ze._RS_TERMS)) < 1e-19

    def test_against_mpmath_siegelz_within_bound(self):
        ts = np.sort(np.random.default_rng(23).uniform(ze._RS_T_MIN, 1420.0, 150))
        got, err = ze._z_rs(ts)
        with mp.workdps(20):
            ref = np.array([float(mp.siegelz(mp.mpf(t))) for t in ts.tolist()])
        assert np.all(np.abs(got - ref) <= err) and np.all(err < 1e-6)

    def test_against_euler_maclaurin_on_the_scan_grid(self):
        # every point of the 0.05 scan grid on [_RS_T_MIN, 500]; measured worst 0.49 of the bound
        ts = np.arange(int(ze.T_BUDGET / ze.ZERO_GRID_STEP) + 1) * ze.ZERO_GRID_STEP
        ts = ts[ts >= ze._RS_T_MIN]
        got, err = ze._z_rs(ts)
        assert np.all(np.abs(got - ze.z_function(ts)) <= err)

    def test_scan_takes_the_grid_below_and_riemann_siegel_above(self):
        # the scan grid below the crossover is z_function's, point for point
        n = int(ze.T_BUDGET / ze.ZERO_GRID_STEP) + 1
        got = ze._z_scan(np.arange(n) * ze.ZERO_GRID_STEP)
        m = int(ze._RS_T_MIN / ze.ZERO_GRID_STEP)
        assert got.shape == (n,)
        assert got[:m].tobytes() == ze.z_function(np.arange(m) * ze.ZERO_GRID_STEP).tobytes()
        assert got[m:].tobytes() == ze._z_rs(np.arange(m, n) * ze.ZERO_GRID_STEP)[0].tobytes()

    def test_scan_value_does_not_depend_on_the_other_points(self):
        # a window of the 0.05 lattice has the bits of the same points in one call over [0, 500]
        ts = np.arange(int(ze.T_BUDGET / ze.ZERO_GRID_STEP) + 1) * ze.ZERO_GRID_STEP
        whole = ze._z_scan(ts)
        for lo, hi in [(2000, 4001), (4000, 8001), (9990, 10001)]:
            assert ze._z_scan(ts[lo:hi]).tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("hi", [30.01, 100.01])
    def test_clipped_end(self, hi):
        # the scan grid's last point, clipped at hi: Euler-Maclaurin below the crossover
        ts = scan_grid(0.0, hi, ze.ZERO_GRID_STEP)
        got = ze._z_scan(ts)
        want = ze.z_function(ts)
        assert ts[-1] == hi and got.shape == ts.shape
        if hi < ze._RS_T_MIN:
            assert got[-1] == want[-1]
        assert np.all(np.abs(got - want) <= ze._z_rs(np.maximum(ts, ze._RS_T_MIN))[1])

    @pytest.mark.parametrize("t_max", [14.15, 56.447, 240.0])
    def test_roots_start_from_the_scan_values(self, t_max):
        # Newton starts from the secant on the scan's values at the bracket ends, the clipped
        # last point included; 14.15 and 56.447 put a zero in the clipped last step
        ts = scan_grid(0.0, t_max, ze.ZERO_GRID_STEP)
        got = [r.t for r in ze.find_zeros(0.0, t_max)]
        zs = ze._z_scan(ts)
        assert got == find_all(ze._z_newton, ts, len(got), zs)
        assert t_max > 100.0 or ts[-2] < got[-1] < ts[-1]

    def test_large_bound_routes_through_euler_maclaurin(self, monkeypatch):
        # with every Riemann-Siegel value inside its bound, every point of the scan comes from
        # z_function, in one call
        rs, em, calls = ze._z_rs, ze.z_function, []
        monkeypatch.setattr(ze, "_z_rs", lambda t: (rs(t)[0], np.full(len(t), 1e9)))
        monkeypatch.setattr(ze, "z_function", lambda t: calls.append(t) or em(t))
        n = int(ze.T_BUDGET / ze.ZERO_GRID_STEP) + 1
        ts = np.arange(n) * ze.ZERO_GRID_STEP
        got = ze._z_scan(ts)
        assert len(calls) == 1 and np.array_equal(calls[0], ts)
        assert got.tobytes() == em(ts).tobytes()
        # the roots then come from Euler-Maclaurin signs alone, and are the same zeros
        assert len(ze.find_zeros(0.0, 100.0)) == 29


class TestDerivatives:
    def test_zeta_prime_at_zero_point(self):
        assert abs(ze.zeta_prime(0j) - (-0.5 * math.log(2.0 * math.pi))) < 1e-9

    def test_zeta_prime_minus_two(self):
        # Re s < 0 is refused; perron.zeta_prime_trivial gives zeta'(-2n) in closed form
        for f in (ze.zeta_prime, ze.zeta_second_prime):
            with pytest.raises(ValueError):
                f(-2.0 + 0j)

    def test_zeta_prime_oracle(self):
        assert abs(ze.zeta_prime(complex(0.5, 20.0)) - ZETA_PRIME_HALF_20I) < 1e-8

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            ze.zeta_prime(1.005 + 0j)

    def test_z_prime_t1(self):
        assert ze.z_prime(T1) == pytest.approx(Z_PRIME_T1, abs=1e-7)

    def test_z_prime_against_mpmath_at_published_zeros(self, ref_db, data_dir):
        # all 1000 zeros of the published table, up to t = 1419, against mpmath
        # values frozen by data/make_z_prime_oracle.py; worst measured error 4.7e-12
        ref = json.loads((data_dir / "z_prime_oracle.json").read_text())["zeros"]
        assert np.max(np.abs(ze.z_prime(ref_db.ordinates()) - ref)) < 1e-11

    def test_z_prime_against_mpmath_off_zeros(self, data_dir):
        # 300 seeded heights in (0.5, 1400], where the theta' zeta term counts;
        # worst measured error 2.5e-12
        doc = json.loads((data_dir / "z_prime_oracle.json").read_text())
        assert np.max(np.abs(ze.z_prime(np.array(doc["off_zero_t"])) - doc["off_zero"])) < 1e-11

    def test_theta_prime_against_mpmath(self):
        # seeded grid over [0, 2000]; worst measured error 8.9e-16
        ts = np.concatenate([[0.0], np.sort(np.random.default_rng(16).uniform(0.0, 2000.0, 200))])
        with mp.workdps(25):
            ref = np.array([float(mp.siegeltheta(t, derivative=1)) for t in ts.tolist()])
        assert np.max(np.abs(ze._theta_prime(ts) - ref)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 10, 51, 100])
    def test_zeta_derivatives_at_zeros_against_mpmath(self, ref_db, n):
        # closed-form derivatives of the Euler-Maclaurin terms; worst measured
        # relative error 1.1e-13 (zeta'' at the 51st zero)
        s = complex(0.5, ref_db.records[n - 1].t)
        with mp.workdps(30):
            ref = [complex(mp.zeta(mp.mpc(s.real, s.imag), derivative=k)) for k in (1, 2)]
        for got, want in zip((ze.zeta_prime(s), ze.zeta_second_prime(s)), ref):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_zeta_prime_where_a_correction_term_vanishes(self):
        # at s = 1/log N, N = 22 the kernel's cutoff there, the s-derivative of
        # the first correction term is 0; a stop rule on the summed term would
        # end the series there and err by 2.7e-8 relative
        s = complex(1.0 / math.log(22.0), 0.0)
        with mp.workdps(30):
            ref = complex(mp.zeta(s.real, derivative=1))
        assert abs(ze.zeta_prime(s) - ref) <= 1e-14 * abs(ref)


class TestDerivativeFill:
    def test_array_fill_matches_scalar_z_prime(self, ref_db):
        recs = [ze.ZeroRecord(index=r.index, t=r.t) for r in ref_db.records[::50]]
        ze.ZeroDatabase(records=recs).ensure_derivatives()
        for rec in recs:
            assert rec.z_prime == pytest.approx(ze.z_prime(rec.t), rel=1e-10)
            assert rec.zeta_prime_at_rho == ze.zeta_prime_at_zero(rec)

    def test_vanishing_z_prime_raises(self, monkeypatch):
        db = ze.ZeroDatabase(records=[ze.ZeroRecord(index=1, t=T1)])
        monkeypatch.setattr(ze, "z_prime", lambda t: np.zeros_like(t))
        with pytest.raises(ConsistencyError):
            db.ensure_derivatives()


class TestZeroFinding:
    def test_first_two(self, zero_db):
        recs = zero_db.records[:2]
        assert recs[0].t == pytest.approx(14.134725141734694, abs=1e-8)
        assert recs[1].t == pytest.approx(21.022039638771555, abs=1e-8)

    def test_empty_below_first(self):
        assert ze.find_zeros(0.0, 14.0) == []

    def test_count_to_100(self, zero_db):
        n = sum(1 for r in zero_db.records if r.t < 100.0)
        assert n == ze.exact_zero_count(100.0) == 29

    def test_budget(self):
        with pytest.raises(ValueError):
            ze.find_zeros(0.0, 501.0)

    @pytest.mark.parametrize("t_min, t_max", [(20.013, 199.97), (20.0, 200.0), (100.02, 150.0),
                                              (0.0, 56.447), (14.134725141734694, 21.1)])
    def test_window_is_the_tables_records(self, t_min, t_max):
        # a window's zeros are those of the table built to t_max, bit for bit, whatever t_min is
        want = [r for r in ze.extend_database(None, t_max).records if t_min < r.t < t_max]
        assert ze.find_zeros(t_min, t_max) == want and len(want) > 0

    def test_coarse_scan_trips_count_guard(self, monkeypatch):
        # a step of 2 puts the zeros 48.005 and 49.774 in one step [48, 50]
        monkeypatch.setattr(ze, "ZERO_GRID_STEP", 2.0)
        with pytest.raises(MissedZeroError):
            ze.find_zeros(0.0, 50.0)

    def test_exact_count_refuses_a_zero(self, zero_db):
        with pytest.raises(ConsistencyError):
            ze.exact_zero_count(zero_db.records[0].t)

    def test_sign_alternation(self, zero_db):
        signs = np.sign([r.z_prime for r in zero_db.records])
        assert np.all(signs[:-1] * signs[1:] < 0)
        assert np.all([r.z_prime != 0 for r in zero_db.records])

    def test_exact_count_identity_samples(self, zero_db):
        ts = np.array([r.t for r in zero_db.records])
        rng = np.random.default_rng(7)
        done = 0
        while done < 10:
            t = float(rng.uniform(5.0, 200.0))
            if np.min(np.abs(ts - t)) < 0.05:
                continue
            assert ze.exact_zero_count(t) == int(np.sum(ts < t))
            done += 1


class TestZetaPrimeAtZero:
    def test_modulus_equals_z_prime(self, zero_db):
        rec = zero_db.records[0]
        assert abs(rec.zeta_prime_at_rho) == pytest.approx(abs(rec.z_prime), rel=1e-12)

    def test_against_direct_difference(self, zero_db):
        rec = zero_db.records[0]
        direct = ze.zeta_prime(complex(0.5, rec.t))
        assert abs(rec.zeta_prime_at_rho - direct) < 1e-6
        assert abs(rec.zeta_prime_at_rho - ZETA_PRIME_RHO1) < 1e-6

    def test_records_match_mpmath_at_their_ordinates(self, zero_db):
        # zeta'(rho) by the phase relation at each record's t, against zeta'(1/2 + it) at that t:
        # Z(t) ~ Z' dt off the true zero moves the relation by theta' dt relative
        with mp.workdps(25):
            rel = [abs(complex(mp.zeta(mp.mpc(0.5, r.t), derivative=1)) - r.zeta_prime_at_rho)
                   / abs(r.zeta_prime_at_rho) for r in zero_db.records[:100]]
        assert max(rel) < 1e-12

    def test_conjugate_zero(self, zero_db):
        rec = zero_db.records[0]
        lower = ze.zeta_prime(complex(0.5, -rec.t))
        upper = ze.zeta_prime(complex(0.5, rec.t))
        assert abs(lower - upper.conjugate()) < 1e-8


class TestDatabaseIO:
    def test_text_ingest(self, tmp_path):
        p = tmp_path / "table.txt"
        p.write_text("# two zeros\n14.134725\n21.022040\n")
        db = ze.ingest_zeros(p)
        assert len(db) == 2
        assert db.source == "ingested"
        assert db.records[1].t == 21.022040

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        db = ze.ingest_zeros(p)
        assert len(db) == 0 and db.t_max_verified == 0.0

    def test_round_trip_identity(self, tmp_path, zero_db):
        p = tmp_path / "cache.json"
        small = ze.ZeroDatabase(records=zero_db.records[:5], source="computed",
                                t_max_verified=33.0)
        ze.persist_zeros(small, p)
        back = ze.ingest_zeros(p)
        assert len(back) == 5
        for a, b in zip(small.records, back.records):
            assert (a.index, a.t, a.z_prime) == (b.index, b.t, b.z_prime)
            assert a.zeta_prime_at_rho == b.zeta_prime_at_rho

    def test_failed_write_keeps_previous_cache(self, tmp_path, zero_db, monkeypatch):
        p = tmp_path / "cache.json"
        ze.persist_zeros(ze.ZeroDatabase(records=zero_db.records[:5], source="computed",
                                         t_max_verified=33.0), p)
        before = p.read_bytes()

        def torn_write(self, text, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            ze.persist_zeros(ze.ZeroDatabase(records=zero_db.records[:8], source="computed",
                                             t_max_verified=44.0), p)
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert len(ze.ingest_zeros(p)) == 5
        assert list(tmp_path.iterdir()) == [p]  # the partial temporary file is gone

    def test_format_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.13\nnot-a-number\n")
        with pytest.raises(FormatError):
            ze.ingest_zeros(p)

    def test_malformed_json_document(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"zeros": [{"t": 14.1}]}')
        with pytest.raises(FormatError):
            ze.ingest_zeros(p)

    def test_monotonicity_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("21.02\n14.13\n")
        with pytest.raises(MonotonicityError):
            ze.ingest_zeros(p)

    def test_count_invariant_enforced(self, tmp_path):
        p = tmp_path / "bogus.txt"
        p.write_text("14.134725\n17.5\n21.022040\n")  # 17.5 is not a zero
        with pytest.raises(ConsistencyError):
            ze.ingest_zeros(p)

    def test_ingested_reference_consistent(self, ref_db):
        assert len(ref_db) == 1000
        assert ref_db.records[0].t == pytest.approx(T1, abs=1e-9)


class TestTableBuilder:
    @staticmethod
    def fields(db):
        return [(r.index, r.t, r.z_prime, r.zeta_prime_at_rho) for r in db.records], db.t_max_verified

    def test_appends_equal_the_one_shot_table(self):
        # a table built in five appends to 500 is the one-shot table, record for record, bit for bit
        db = None
        for t in (100.0, 200.0, 300.0, 400.0, 500.0):
            db = ze.extend_database(db, t)
        assert self.fields(db) == self.fields(ze.extend_database(None, 500.0))
        assert len(db) == 269

    def test_extends_off_lattice_and_recomputes_unverified_records(self, ref_db, zero_db):
        # an ingested table (height 0.01 past its last zero) extends from that height; records
        # past a table's verified height are dropped and found again by the scan
        db = ze.extend_database(ze.ZeroDatabase(ref_db.records[:10], "ingested", ref_db.records[9].t + 0.01),
                                100.0)
        assert len(db) == 29 and db.t_max_verified == 100.0 and db.source == "ingested"
        assert np.max(np.abs(db.ordinates() - ref_db.ordinates()[:29])) < 2e-12
        past = ze.extend_database(ze.ZeroDatabase(zero_db.records[:13], t_max_verified=40.0), 100.0)
        assert self.fields(past) == self.fields(ze.extend_database(None, 100.0))

    def test_height_rounds_up_to_the_lattice(self, zero_db):
        # 240.3085 becomes 4807 * 0.05; a height within 1e-9 of a lattice point is that point
        db = ze.extend_database(zero_db, 240.3085)
        assert db.t_max_verified == 4807 * ze.ZERO_GRID_STEP
        assert self.fields(db)[0][:len(zero_db)] == self.fields(zero_db)[0]
        assert ze.extend_database(None, 60.0 + 1e-10).t_max_verified == 60.0
        with pytest.raises(ValueError):
            ze.extend_database(None, 500.01)


class TestFullBudgetScan:
    def test_scan_to_500_matches_reference(self, ref_db):
        # full desk-scale run: every zero below the budget, ordinates
        # checked one-for-one against the published table
        recs = ze.find_zeros(0.0, 500.0)
        ref = [r.t for r in ref_db.records if r.t < 500.0]
        assert len(recs) == len(ref)
        assert max(abs(a.t - b) for a, b in zip(recs, ref)) < 1e-9

    def test_scan_to_500_within_the_table_decimals(self, ref_db):
        # Newton stops at Z's own error: every ordinate is within 2e-12 of the 13-decimal table
        ts = np.array([r.t for r in ze.find_zeros(0.0, 500.0)])
        assert len(ts) == 269
        assert np.max(np.abs(ts - ref_db.ordinates()[:269])) < 2e-12
