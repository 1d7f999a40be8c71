import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import landau, specfun
from rzspec.ddouble import horner_step, horner_step_into, split
from rzspec.errors import PoleError, ToleranceNotMet
from rzspec.specfun import (
    KUMMER_RADIUS,
    bessel_k_complex_order,
    kummer_m,
    kummer_m_bounded,
    kummer_m_grid,
    log_gamma,
)

# frozen high-precision oracle values (mpmath, 30 digits)
LOGGAMMA_QUARTER_5I = complex(-7.3370880842091811, 2.6565750329571056)
K_HALF_7I_2PI = complex(1.3935871058549974e-5, 1.0473149412003543e-5)
M_EXAMPLE = complex(1.0949105136486249, 4.0249315749327309)

# (a, b) of the even and odd Landau sectors at E = 10, and at E = 40
LANDAU_SECTORS = [(0.25 + 5j, 0.5), (0.75 + 5j, 1.5)]
LANDAU_SECTORS_40 = [(0.25 + 20j, 0.5), (0.75 + 20j, 1.5)]
# an E = 40 cell that no route covers within the 1e-6 of psi_plus: its
# bound is 1.3e-4 |M|
UNCOVERED = (0.25 + 20j, 0.5, 1.0 + 50.0j)


def bits(*values):
    """The bytes of complex/float values, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=complex).tobytes()


def landau_grid_z(n):
    """Kummer arguments (x - iy)^2 / 2 of the n x n Landau grid on [-10, 10]^2,
    formed as the |psi| grid forms them, in real arithmetic, so that the
    grid's x <-> y mirror is z -> -conj z exactly."""
    xs = np.linspace(-10.0, 10.0, n)
    return landau._z_arg(xs[:, None], xs[None, :], landau.LandauGeometry()).ravel()


def full_length_horner(a, b, w):
    """F's series in double-double from each cell's last term K, by
    horner_step on every term and with no plain tail, as
    _kummer_series_dd summed it before: (values, bounds) of that route."""
    x = w * (1.0 / specfun._HORNER_SCALE)
    last, sums, _ = specfun._kummer_last_terms(a, b, np.abs(w))
    q, _ = specfun._kummer_coeffs(a, b, specfun._table_length(int(last.max()) + 1))
    x_re, x_im = split(x.real), split(x.imag)
    acc = [np.zeros(w.size)] * 4
    for k in range(int(last.max()), -1, -1):
        qk = tuple(col[k] for col in q)
        # cells past their K step, a cell at its K joins with acc = Q_K
        acc = [np.where(last > k, v, np.where(last == k, c, p))
               for p, v, c in zip(acc, horner_step(acc, x_re, x_im, qk), qk)]
    vals = np.empty(w.size, dtype=complex)
    vals.real, vals.imag = acc[0] + acc[1], acc[2] + acc[3]
    return vals, np.where(np.isfinite(vals), specfun._NOISE_PER_TERM * last * sums, np.inf)


@functools.lru_cache(maxsize=None)
def flipped_routes(a, b):
    """Each Kummer route on every cell of the 41 x 41 Landau grid, after the
    flip to F(w) = e^(-w/2) M(a_eff, b, w) with Re w >= 0: (a_eff, w,
    {route: (values, bounds)}); the asymptotic route from |w| = 10, with
    infinite bounds below, and the double-double bound with the rounding
    to double."""
    z = landau_grid_z(41)
    flip = z.real < 0
    a_eff, w = np.where(flip, b - a, a), np.where(flip, -z, z)
    routes = {}
    for name, route, r_min in (("plain", specfun._kummer_series_plain, 0.0),
                               ("asymptotic", specfun._kummer_asymptotic, 10.0),
                               ("double-double", specfun._kummer_series_dd, 0.0)):
        v, e = np.zeros(z.size, dtype=complex), np.full(z.size, np.inf)
        for a_g in (a, b - a):
            cells = np.flatnonzero((a_eff == a_g) & (np.abs(w) >= r_min))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                v[cells], e[cells], _ = route(a_g, b, w[cells])
        routes[name] = v, e
    v, e = routes["double-double"]
    routes["double-double"] = v, e + specfun._ROUNDING_EPS * np.abs(v)
    return a_eff, w, routes


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        assert log_gamma(0.5).imag == 0.0

    def test_oracle_quarter_plus_5i(self):
        assert abs(log_gamma(0.25 + 5j) - LOGGAMMA_QUARTER_5I) < 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    @given(st.complex_numbers(min_magnitude=0.01, max_magnitude=40.0,
                              allow_infinity=False, allow_nan=False))
    def test_recurrence_right_half_plane(self, z):
        z = complex(abs(z.real) + 0.05, z.imag)
        d = log_gamma(z + 1.0) - log_gamma(z) - cmath.log(z)
        k = round(d.imag / (2.0 * math.pi))
        assert abs(d - 2j * math.pi * k) < 1e-10

    def test_conjugate_symmetry(self):
        z = 0.3 + 11.0j
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()

    def test_against_mpmath_whole_domain(self):
        # 300 seeded points over both half-planes and both signs of Im z, in
        # a 2-d shape, and the real axis off the poles
        rng = np.random.default_rng(14)
        z = (rng.uniform(-6.3, 6.3, 300) + 1j * rng.uniform(-900.0, 900.0, 300)).reshape(15, 20)
        z[0] = np.linspace(-6.29, 6.31, 20)
        got = log_gamma(z)
        assert got.shape == z.shape
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z.ravel()])
        assert np.max(np.abs(got.ravel() - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14

    def test_array_pole(self):
        with pytest.raises(PoleError):
            log_gamma(np.array([0.5 + 1j, -3.0]))

    @pytest.mark.parametrize("z", [complex(0.25, math.nan), complex(math.inf, 1.0),
                                   complex(-math.inf, 0.0), complex(0.5, -math.inf)])
    def test_non_finite_raises(self, z):
        # with a NaN imaginary part the reflection would recurse without end
        with pytest.raises(ValueError):
            log_gamma(z)
        with pytest.raises(ValueError):
            log_gamma(np.array([0.5 + 1j, z]))

    def test_theta_second_by_trigamma_against_mpmath(self):
        # theta''(t) = -Im psi'(1/4 + it/2) / 4, the slope of the Landau turn's
        # Newton, on [0, 1e4]: worst measured 2.7e-16 absolute, 1.5e-14 relative
        ts = np.concatenate([[0.0], np.sort(np.random.default_rng(17).uniform(0.0, 1e4, 200))])
        z = 0.25 + 0.5j * ts
        got = -0.25 * (specfun._trigamma_right(z + 1.0) + 1.0 / (z * z)).imag
        with mp.workdps(25):
            ref = np.array([float(mp.siegeltheta(t, derivative=2)) for t in ts.tolist()])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 1e-15)


class TestBesselK:
    def test_half_order_closed_form(self):
        v = bessel_k_complex_order(0.5, 1.0)
        assert v.real == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)
        assert v.imag == 0.0

    def test_order_reflection(self):
        a = bessel_k_complex_order(0.5 + 7j, 2.0 * math.pi)
        b = bessel_k_complex_order(-0.5 - 7j, 2.0 * math.pi)
        assert a == b

    def test_oracle_half_plus_7i(self):
        v = bessel_k_complex_order(0.5 + 7j, 2.0 * math.pi)
        assert abs(v - K_HALF_7I_2PI) < 1e-10 * abs(K_HALF_7I_2PI)

    @pytest.mark.parametrize("z", [1.0, 2.0 * math.pi, 10.0])
    def test_symmetry_grid(self, z):
        for t in np.linspace(0.0, 50.0, 11):
            nu = complex(0.5, 0.5 * t)
            a = bessel_k_complex_order(nu, z)
            b = bessel_k_complex_order(-nu, z)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    @given(st.floats(min_value=0.0, max_value=60.0),
           st.sampled_from([1.0, 2.0 * math.pi, 5.0]))
    def test_conjugation(self, t, z):
        nu = complex(0.5, 0.5 * t)
        a = bessel_k_complex_order(nu.conjugate(), z)
        b = bessel_k_complex_order(nu, z).conjugate()
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)

    def test_asymptotic_envelope(self):
        # K_(1/2+it/2)(2 pi) ~ sqrt(pi/t) (t/2pi)^(1/2) e^(-pi t/4); the
        # 3% tolerance at t = 200 is calibrated (measured deviation 2.6%),
        # and the deviation must shrink with t.
        def ratio(t):
            env = math.sqrt(math.pi / t) * math.sqrt(t / (2.0 * math.pi)) * math.exp(-math.pi * t / 4.0)
            return abs(bessel_k_complex_order(complex(0.5, 0.5 * t), 2.0 * math.pi)) / env
        d100 = abs(ratio(100.0) - 1.0)
        d200 = abs(ratio(200.0) - 1.0)
        assert d200 < 0.03
        assert d200 < d100

    def test_truncation_budget_error(self):
        # truncation point 13.7 at z = 1e-4, beyond MAX_ABSCISSA
        with pytest.raises(ToleranceNotMet):
            bessel_k_complex_order(0.5, 1e-4)

    @pytest.mark.parametrize("a", [0.5, 2.25])
    def test_deep_decay_against_oracle(self, a):
        # |K| ~ 1e-68 at t = 200: only a closing test relative to the sum
        # keeps an aliased coarse level from passing
        v = bessel_k_complex_order(complex(a, 100.0), 2.0 * math.pi)
        with mp.workdps(40):
            ref = complex(mp.besselk(mp.mpc(a, 100.0), 2.0 * mp.pi))
        assert abs(v - ref) < 1e-9 * abs(ref)


class TestBesselKArray:
    """An ndarray of orders runs the block quadrature; each element is its
    one-order call, and the oracle covers the sweep's whole domain."""

    def test_against_oracle_whole_domain(self):
        mus = np.linspace(0.0, 100.0, 41)
        worst = 0.0
        for z in (0.05, 1.0, 2.0 * math.pi, 30.0):
            for a in (0.5, 2.25):
                got = bessel_k_complex_order(a + 1j * mus, z)
                with mp.workdps(40):
                    ref = np.array([complex(mp.besselk(mp.mpc(a, mu), mp.mpf(z))) for mu in mus])
                worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
        assert worst < 1e-9

    def test_against_oracle_random_orders(self):
        # the documented domain of K: a in [0, 5], mu in [0, 150], z in
        # [0.02, 100], 120 seeded orders, each within the stated 1e-8
        rng = np.random.default_rng(15)
        a, mu, z = rng.uniform(0.0, 5.0, 120), rng.uniform(0.0, 150.0, 120), rng.uniform(0.02, 100.0, 120)
        worst = 0.0
        for ai, mi, zi in zip(a, mu, z):
            got = bessel_k_complex_order(complex(ai, mi), zi)
            with mp.workdps(40):
                ref = complex(mp.besselk(mp.mpc(ai, mi), mp.mpf(zi)))
            worst = max(worst, abs(got - ref) / abs(ref))
        assert worst < 1e-8

    def test_elements_equal_one_order_calls(self):
        # 300 orders of both signs in a 2-d shape: three blocks, the last partial
        rng = np.random.default_rng(7)
        nu = (rng.choice([-2.25, -0.5, 0.5, 2.25], 300)
              + 1j * rng.uniform(-100.0, 100.0, 300)).reshape(15, 20)
        assert 2 * specfun._K_BLOCK < nu.size < 3 * specfun._K_BLOCK
        for z in (1.0, 2.0 * math.pi):
            got = bessel_k_complex_order(nu, z)
            assert got.shape == nu.shape and got.dtype == complex
            assert all(g == bessel_k_complex_order(complex(n), z)
                       for g, n in zip(got.ravel(), nu.ravel()))
            # the first row of the one K kernel, with no integrand of its own
            assert got.ravel().tolist() == specfun._bessel_k(nu.ravel(), z)[0].tolist()

    def test_orders_needing_several_halvings(self, monkeypatch):
        # At z = 0.05 the orders of one block close after one to four
        # halvings of the step: the open rows of the block shrink level by
        # level, each with its own closing test.
        z = 0.05
        nu = np.array([0.5, 2.25, 2.25 + 13j, 0.5 + 9j, 2.25 + 14.5j, 0.5 + 30j,
                       2.25 + 60j, 0.5 + 100j, 2.25 + 5j, 2.25 + 16j])
        levels = []
        helper = specfun._nested_trapezoid

        def counted(f, u_max):
            def g(u, rows):
                levels.append(np.unique(rows).tolist())
                return f(u, rows)
            return helper(g, u_max)
        monkeypatch.setattr(specfun, "_nested_trapezoid", counted)
        got = bessel_k_complex_order(nu, z)
        halvings = [sum(k in p for p in levels) - 1 for k in range(len(nu))]
        assert halvings == [1, 1, 2, 2, 2, 3, 4, 4, 2, 2]
        monkeypatch.undo()
        assert all(g == bessel_k_complex_order(complex(n), z) for g, n in zip(got, nu))
        with mp.workdps(40):
            ref = np.array([complex(mp.besselk(mp.mpc(n.real, n.imag), mp.mpf(z))) for n in nu])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9

    def test_one_order_over_budget_raises(self):
        # at z = 0.05 the truncation point of 0.5 + 50i is 8.95, that of
        # 0.5 + 200i 10.3, beyond MAX_ABSCISSA
        bessel_k_complex_order(0.5 + 50j, 0.05)
        with pytest.raises(ToleranceNotMet):
            bessel_k_complex_order(np.array([0.5, 0.5 + 2j, 0.5 + 200j, 0.5 + 50j]), 0.05)

    def test_rows_close_on_their_own(self):
        # the peaked row needs more halvings than the smooth one; each row's
        # value is its one-row value, whatever level the other closes at
        peak = lambda u: np.exp(-400.0 * (u - 3.0) ** 2)
        smooth = lambda u: np.exp(-u * u)
        levels = []

        def both(u, rows):
            levels.append(np.unique(rows).tolist())
            return np.where(rows == 0, smooth(u), peak(u))
        got, _ = specfun._nested_trapezoid(both, np.array([8.0, 6.0]))
        assert levels[1] == [0, 1] and levels[-1] == [1] and len(levels) > 3
        solo = [specfun._nested_trapezoid(lambda u, rows: g(u), np.array([u_max]))[0][0, 0]
                for g, u_max in ((smooth, 8.0), (peak, 6.0))]
        assert got[0].tolist() == solo
        assert solo[1] == pytest.approx(math.sqrt(math.pi) / 20.0, rel=1e-12)

    def test_stalled_row_raises(self):
        # the singular row never settles to 1e-13 and raises for the call;
        # the smooth row alone settles to its exact value
        integrand = lambda u, rows: np.where(rows == 0, np.abs(u - 0.3) ** -0.5, np.exp(-u * u))
        with pytest.raises(ToleranceNotMet):
            specfun._nested_trapezoid(integrand, np.array([1.0, 8.0]))
        val, _ = specfun._nested_trapezoid(lambda u, rows: np.exp(-u * u), np.array([8.0]))
        assert val[0] == pytest.approx([math.sqrt(math.pi) / 2.0], rel=1e-14)


class TestKummer:
    def test_at_zero(self):
        assert kummer_m(0.25 + 5j, 0.5, 0.0) == 1.0

    def test_exponential_case(self):
        z = 1.0 + 2.0j
        assert abs(kummer_m(1.0, 1.0, z) - cmath.exp(z)) < 1e-13 * abs(cmath.exp(z))

    def test_oracle_example(self):
        v = kummer_m(0.25 + 5j, 0.5, 1.0 + 2.0j)
        assert abs(v - M_EXAMPLE) < 1e-12 * abs(M_EXAMPLE)

    @pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
    def test_pole_in_b(self, b):
        with pytest.raises(PoleError):
            kummer_m(1.0, b, 0.5)

    def test_budget_radius(self):
        with pytest.raises(ToleranceNotMet):
            kummer_m(0.25, 0.5, 250.0)

    def test_cancellation_raises(self):
        with pytest.raises(ToleranceNotMet):
            kummer_m(*UNCOVERED)

    def test_certified_bound_covers_error(self):
        # the cell is out of budget on every route, and the bound says so:
        # it exceeds the 1e-6 |M| of psi_plus, and it covers the error
        # against mpmath
        v, bound = kummer_m_bounded(*UNCOVERED)
        a, b, z = UNCOVERED
        with mp.workdps(60):
            want = complex(mp.hyp1f1(mp.mpc(a.real, a.imag), b, mp.mpc(z.real, z.imag)))
        assert landau.PSI_REL_TOL * abs(v) < bound and abs(v - want) <= bound

    @pytest.mark.parametrize("a, b", [(0.25, 0.5), (0.5, 1.0), (0.75, 1.5), (0.25 + 5e-31j, 0.5),
                                      (0.75 + 5e-31j, 1.5)])
    def test_half_b_against_mpmath(self, a, b):
        # at a = b/2 every odd f_k of F = e^(-z/2) M is 0 (the Landau
        # sectors at E = 0), and near it tiny: a series that stopped at one
        # small term would drop the even tail
        zs = [1.0, -1.0, 1j, 10.0, -10.0, 10j, 1.0 + 3.0j, 3.0 - 7.0j, 6.0 + 8.0j]
        vals, bounds = kummer_m_grid(a, b, np.array(zs))
        with mp.workdps(40):
            for z, v, bound in zip(zs, vals, bounds):
                want = complex(mp.hyp1f1(mp.mpc(a.real, a.imag), b, mp.mpc(z.real, z.imag)))
                assert abs(v - want) <= bound <= 1e-13 * abs(want), (a, z)
                assert kummer_m_bounded(a, b, z) == (v, bound)

    def test_kummer_m_falls_back_to_double_double(self):
        # 45 - 5j at E = 10: the asymptotic bound meets 1e-10 but not 1e-12
        a, b, z = 0.25 + 5j, 0.5, 45.0 - 5.0j
        v, bound = kummer_m_bounded(a, b, z)
        assert 1e-12 * abs(v) < bound <= 1e-10 * abs(v)
        assert abs(kummer_m(a, b, z) - v) <= bound

    @given(st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False))
    def test_kummer_transformation(self, z):
        a, b = 0.25 + 2.5j, 0.5
        lhs = kummer_m(a, b, z)
        rhs = cmath.exp(z) * kummer_m(b - a, b, -z)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_grid_matches_scalar(self):
        zs = np.array([0.3 + 0.4j, -2.0 + 1.0j, 5.0j])
        vals, bounds = kummer_m_grid(0.25 + 5j, 0.5, zs)
        for z, v in zip(zs, vals):
            assert abs(kummer_m(0.25 + 5j, 0.5, complex(z)) - v) < 1e-12 * max(abs(v), 1.0)
        assert np.all(bounds >= 0)
        assert KUMMER_RADIUS >= 200.0

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_grid_cells_are_one_cell_calls(self, a, b, monkeypatch):
        # each cell stops at its own last term, so it does not depend on the
        # other cells: bit-equal to its one-cell call and to any regrouping.
        # The cells take in z = 0, flipped cells (Re z < 0), both signs of
        # Re z at the budget |z| = 200, six default-grid cells, the last
        # three on the double-double series at E = 40 with bounds that move
        # if the float path of _abs_terms took |w| from abs() of a Python
        # complex instead of np.abs, and the uncovered E = 40 cell.
        z = np.concatenate([landau_grid_z(5), landau_grid_z(200)[[560, 35760, 36200, 1591, 1792, 38408]],
                            [KUMMER_RADIUS, -KUMMER_RADIUS, UNCOVERED[2]]])
        vals, bounds = kummer_m_grid(a, b, z)
        assert np.any(z == 0.0) and np.any(z.real < 0.0)
        if (a, b) in LANDAU_SECTORS_40:
            assert np.any(bounds > 1e-6 * np.abs(vals))  # over-budget cells included
        assert kummer_m_bounded(a, b, 0.0)[0] == 1.0
        for zc, v, e in zip(z, vals, bounds):
            assert bits(*kummer_m_bounded(a, b, zc)) == bits(v, e)
        perm = np.random.default_rng(7).permutation(z.size)
        monkeypatch.setattr(specfun, "_KUMMER_BLOCK", 7)
        pv, pb = kummer_m_grid(a, b, z[perm])
        assert np.array_equal(pv, vals[perm]) and np.array_equal(pb, bounds[perm])

    def test_one_cell_calls_never_enter_the_block_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-cell call entered _horner_block")

        monkeypatch.setattr(specfun, "_horner_block", refuse)
        with pytest.raises(AssertionError):  # two cells that both end on the double-double series
            kummer_m_grid(0.25 + 5j, 0.5, np.array([1.0 + 2.0j, 2.0j]))
        v, bound = kummer_m_bounded(0.25 + 5j, 0.5, 1.0 + 2.0j)
        assert abs(v - M_EXAMPLE) < 1e-12 * abs(M_EXAMPLE) and bound < 1e-14 * abs(v)
        assert kummer_m(0.25 + 5j, 0.5, 1.0 + 2.0j) == v
        g = landau.LandauGeometry(magnetic_length=1.0, box_size=100.0)
        assert landau.psi_plus(10.0, 1.5, -2.0, g) != 0.0
        assert landau.psi_minus(10.0, 1.5, -2.0, g) != 0.0

    def test_coefficient_cache_never_changes_bits(self):
        # 1 + 2i and its flipped twin -1 + 2i end on the double-double
        # series; the twin's M(b - a, b, 1 - 2i) with b - a = 1/4 - 5i is
        # read as conj M(a, b, 1 + 2i), so both cells share the a table.  A
        # one-cell call gives the same bits before a grid call, after it,
        # after longer a and b - a tables were built, and whichever cell
        # built the table
        a, b = LANDAU_SECTORS[0]
        cells = (1.0 + 2.0j, -1.0 + 2.0j)

        def one_cell():
            return [bits(*kummer_m_bounded(a, b, z)) for z in cells]
        specfun._kummer_coeffs.cache_clear()
        before = one_cell()
        assert specfun._kummer_coeffs.cache_info().currsize == 1
        kummer_m_grid(a, b, landau_grid_z(41))
        after = one_cell()
        for a_g in (a, b - a):  # a table long enough for |w| = 200
            specfun._kummer_series_dd(a_g, b, np.array([KUMMER_RADIUS + 0j]))
        assert before == after == one_cell()
        for first in cells:
            specfun._kummer_coeffs.cache_clear()
            kummer_m_bounded(a, b, first)
            assert one_cell() == before
        # in a block the cell reads the coefficients of the longer table
        alone = specfun._kummer_series_dd(a, b, np.array([cells[0]]))
        with_far = specfun._kummer_series_dd(a, b, np.array([cells[0], KUMMER_RADIUS]))
        assert bits(alone[0][0], alone[1][0]) == bits(with_far[0][0], with_far[1][0])

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_routes_commute_with_conjugation(self, a, b):
        # the fold of flipped cells rests on route(conj a, b, conj w) ==
        # conj route(a, b, w) bit for bit, for values, bounds and sens: on
        # the w of every flipped cell of the default grid, as one array
        # (the asymptotic route from |w| = 10, below its domain), and on
        # one-cell inputs, which take the float path of the double-double
        # series
        z = landau_grid_z(200)
        w = -z[z.real < 0]
        assert np.all(w.imag != 0.0)
        singles = [np.array([v]) for v in (1.0 + 2.0j, 0.5 - 0.25j, 45.0 - 5.0j, 30.0 + 40.0j, 3.0 + 1e-9j)]
        for route, r_min in ((specfun._kummer_series_plain, 0.0), (specfun._kummer_asymptotic, 10.0),
                             (specfun._kummer_series_dd, 0.0)):
            for ws in [w[np.abs(w) >= r_min]] + singles:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = route(a.conjugate(), b, ws.conjugate())
                    want = route(a, b, ws)
                assert bits(*got[0]) == bits(*want[0].conjugate()), route.__name__
                for g, v in zip(got[1:], want[1:]):
                    assert (g is None and v is None) or g.tobytes() == v.tobytes(), route.__name__

    def test_folded_grid_cells_are_one_cell_calls(self):
        # grids symmetric under x <-> y, where each flipped cell off the
        # real axis shares its key with its mirror: every cell of the 41 x
        # 41 grid in the even sector, and in the odd sector the cells of
        # the 201 x 201 grid on both axes (Im w = 0, not folded) and both
        # diagonals (Re z = +-0)
        n, k = 201, np.arange(201)
        lines = np.concatenate([100 * n + k, k * n + 100, k * n + k, k * n + n - 1 - k])
        for (a, b), z, cells in ((LANDAU_SECTORS[0], landau_grid_z(41), np.arange(41 * 41)),
                                 (LANDAU_SECTORS[1], landau_grid_z(n), lines)):
            vals, bounds = kummer_m_grid(a, b, z)
            assert np.any(z[cells].real < 0.0) and np.any(z[cells].imag == 0.0)
            for c in cells:
                assert bits(*kummer_m_bounded(a, b, z[c])) == bits(vals[c], bounds[c]), z[c]

    def test_fold_halves_the_double_double_cells(self, monkeypatch):
        # on the default E = 10 grid the flipped cells off the real axis
        # read their mirrors' keys, evaluated once: 7226 cells end on the
        # double-double series, about half as many as without the fold
        sent = []
        route = specfun._kummer_series_dd

        def counted(a, b, w):
            sent.append(w.size)
            return route(a, b, w)
        monkeypatch.setattr(specfun, "_kummer_series_dd", counted)
        kummer_m_grid(*LANDAU_SECTORS[0], landau_grid_z(200))
        assert 0 < sum(sent) <= 7300

    def test_double_double_cells_take_one_horner_pass(self, monkeypatch):
        # the Horner pass keeps only the cells still summing, so one call
        # does each cell's arithmetic once: on the default E = 10 grid 31
        # plain tail steps, then 88 double-double steps on the workspace
        # kernel from each cell's entry K' (118 would start at the last
        # terms K), where two 4096-cell blocks would take more; the float
        # step of one-cell calls never runs, and the bits equal those of
        # the blocks.  The steps cover sum (K - K') = 167,016 and sum (K' +
        # 1) = 395,788 cell-steps (sum K = 555,578)
        blocks, steps, tails, floats, calls = [], [], [], [], []
        block, step, tail, route = (specfun._horner_block, specfun.horner_step_into,
                                    specfun._tail_step, specfun._kummer_series_dd)

        def counted_block(*args):
            blocks.append(args[2].size)
            return block(*args)

        def counted_step(*args):
            steps.append(int(args[-1]))
            return step(*args)

        def counted_tail(p_re, *args):
            tails.append(p_re.size)
            return tail(p_re, *args)

        def recorded(a, b, w):
            calls.append((a, b, w))
            return route(a, b, w)
        monkeypatch.setattr(specfun, "_horner_block", counted_block)
        monkeypatch.setattr(specfun, "horner_step_into", counted_step)
        monkeypatch.setattr(specfun, "_tail_step", counted_tail)
        monkeypatch.setattr(specfun, "horner_step", lambda *args: floats.append(1))
        monkeypatch.setattr(specfun, "_kummer_series_dd", recorded)
        xs = np.linspace(-10.0, 10.0, 200)
        landau.psi_abs_grid(10.0, xs, xs, landau.LandauGeometry(1.0, 100.0))
        assert len(blocks) == 1 and len(tails) == 31 and len(steps) == 88 and not floats
        assert sum(tails) == 167016 and sum(steps) == 395788
        (a, b, w), = calls
        assert w.size == blocks[0] > 4096
        whole = route(a, b, w)
        parts = [route(a, b, p) for p in np.split(w, [4096])]
        for k in range(2):
            assert np.concatenate([p[k] for p in parts]).tobytes() == whole[k].tobytes()

    def test_in_place_step_is_horner_step(self):
        # the workspace kernel against the float step on random double-
        # doubles over 40 orders of magnitude, with zeros of both signs:
        # the same bits on its first n cells, the others untouched
        rng = np.random.default_rng(11)
        n, size = 1000, 1200
        hi = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-20, 20, (2, size))
        hi[:, :8] = [[0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]] * 2
        acc = np.array([hi[0], hi[0] * 1e-17 * rng.uniform(-1, 1, size),
                        hi[1], hi[1] * 1e-17 * rng.uniform(-1, 1, size)])
        x = rng.standard_normal((2, size))
        x[:, :4] = [[0.0, -0.0, 2.0, -0.0]] * 2
        q = (1.5e3, -2.0e-14, -0.0, 0.0)
        xs = split(x[0]) + split(x[1])
        want = horner_step(tuple(acc), xs[:3], xs[3:], q)
        got = acc.copy()
        horner_step_into(got, xs, q, np.full((9, size), np.nan), n)
        for g, w, a in zip(got, want, acc):
            assert g[:n].tobytes() == w[:n].tobytes() and g[n:].tobytes() == a[n:].tobytes()

    @pytest.mark.parametrize("a, b", [(0.25, 0.5), (0.75, 1.5)] + LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_plain_tail_keeps_the_full_length_bits(self, a, b, monkeypatch):
        # every double-double cell of the default grid against the Horner
        # pass in double-double from each cell's last term: at E = 0 and
        # E = 10 the same value and bound bit for bit; at E = 40, where
        # sum|term| / |F| reaches 6e33, the bounds bit for bit and each
        # value that moves within 1e-3 of its bound
        sent = []
        route = specfun._kummer_series_dd

        def kept(a_g, b_g, w):
            out = route(a_g, b_g, w)
            sent.append((a_g, w, out))
            return out
        monkeypatch.setattr(specfun, "_kummer_series_dd", kept)
        kummer_m_grid(a, b, landau_grid_z(200))
        assert sum(w.size for _, w, _ in sent) > 2000
        for a_g, w, (vals, bounds, _) in sent:
            want, want_bounds = full_length_horner(a_g, b, w)
            assert bounds.tobytes() == want_bounds.tobytes()
            if (a, b) in LANDAU_SECTORS_40:
                assert np.all(np.abs(vals - want)[vals != want] <= 1e-3 * bounds[vals != want])
            else:
                assert vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_horner_bound_covers_error(self, a, b):
        # the double-double sum of F(w) = e^(-w/2) M(a, b, w) itself, before
        # rounding to double, against mpmath at 80 digits: for both a-groups
        # at |w| = 200 on both axes, w = 0 and |w| = 1e-3 at eight angles,
        # and on the 20 default-grid cells with the largest sum|term| / |F|
        # after the Kummer flip
        edge = np.concatenate([[200.0, -200.0, 200.0j, -200.0j, 0.0],
                               1e-3 * np.exp(0.25j * math.pi * np.arange(8))])
        z = landau_grid_z(200)
        flip = z.real < 0
        a_eff, w = np.where(flip, b - a, a), np.where(flip, -z, z)
        ratio = np.empty(z.size)
        vals, _ = kummer_m_grid(a, b, z)
        for a_g in (a, b - a):
            cells = np.flatnonzero(a_eff == a_g)
            _, sums, _ = specfun._kummer_last_terms(a_g, b, np.abs(w[cells]))
            ratio[cells] = sums / np.abs(vals[cells] * np.exp(-0.5 * z[cells]))
        worst = np.argsort(ratio)[-20:]
        checked = 0
        with mp.workdps(80):
            for a_g in (a, b - a):
                ws = np.concatenate([edge, w[worst[a_eff[worst] == a_g]]])
                parts, noise = specfun._kummer_horner(a_g, b, ws)
                for k, wk in enumerate(ws):
                    got = mp.mpc(mp.mpf(parts[0][k]) + mp.mpf(parts[1][k]),
                                 mp.mpf(parts[2][k]) + mp.mpf(parts[3][k]))
                    wm = mp.mpc(wk.real, wk.imag)
                    want = mp.exp(-wm / 2) * mp.hyp1f1(mp.mpc(a_g.real, a_g.imag), b, wm)
                    assert abs(got - want) <= noise[k], (a_g, wk)
                    checked += 1
        assert checked == 2 * edge.size + 20

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_coefficient_table_against_mpmath(self, a, b):
        # the exact Q_k = f_k 2^(7k) of F(w) = e^(-w/2) M(a, b, w) against
        # the recurrence (k + 1)(k + b) f_(k+1) = f_(k-1) / 4 - (b/2 - a) f_k
        # at 60 digits, k < 512: each double-double entry is correctly
        # rounded, and each double entry of the term table is within its
        # rounding.  Then at |w| from 1e-3 to 200 the noise bound of the
        # Horner pass covers its steps, u^2 (17 K + 6) sum|term|, and the
        # tail past K by the majorant g_(k+1) = (g_(k-1) / 4 + |b/2 - a|
        # g_k) / ((k + 1)(k + b)) from g_(K-1) = |f_(K-1)|, g_K = |f_K|
        n = 512
        cols, (c, g) = specfun._kummer_coeffs(a, b, n)
        with mp.workdps(60):
            cm = mp.mpf(b) / 2 - mp.mpc(a.real, a.imag)
            f = [mp.mpc(0), mp.mpc(1)]  # f_(-1), f_0, f_1, ...
            for k in range(n):
                f.append((f[k] / 4 - cm * f[k + 1]) / ((k + 1) * (k + mp.mpf(b))))
            f = f[1:]
            for k in range(n):
                want = f[k] * mp.mpf(2) ** (7 * k)
                tol = 1e-50 * abs(want)
                for part, hi, lo, t in ((want.real, cols[0][k], cols[1][k], c[k, 0].real),
                                        (want.imag, cols[2][k], cols[3][k], c[k, 0].imag)):
                    assert abs(part - hi) <= math.ulp(hi) / 2 + tol, k
                    assert abs(part - hi - lo) <= math.ulp(lo) / 2 + tol, k
                    e = int(g[k // specfun._POWERS])
                    assert abs(part - math.ldexp(t, e)) <= math.ldexp(math.ulp(t), e) / 2 + tol, k
            r = np.array([1e-3, 1.0, 10.0, 50.0, 100.0, 150.0, 200.0])
            last, sums, _ = specfun._kummer_last_terms(a, b, r)
            u2 = mp.mpf(2) ** -106
            for rk, big_k, s in zip(r, last.tolist(), sums):
                x = mp.mpf(rk)
                g_prev, g_k, tail, k = abs(f[big_k - 1]), abs(f[big_k]), mp.mpf(0), big_k
                while k < 4 * big_k + 100:
                    g_prev, g_k = g_k, (g_prev / 4 + abs(cm) * g_k) / ((k + 1) * (k + mp.mpf(b)))
                    k += 1
                    tail += g_k * x ** k
                steps = u2 * (17 * big_k + 6) * s * (1 + 1e-6)
                assert tail + steps <= specfun._NOISE_PER_TERM * big_k * s, rk

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS)
    def test_most_cancelling_double_double_cells_within_bounds(self, a, b, monkeypatch):
        # on the default E = 10 grid, the 200 cells of the double-double
        # series with the largest sum|f_k w^k| / |F| and every 97th of them
        # in grid order, each against mpmath at 60 digits
        sent = []
        route = specfun._kummer_series_dd

        def kept(a_g, b_g, w):
            out = route(a_g, b_g, w)
            sent.append((a_g, w, out[0]))
            return out
        monkeypatch.setattr(specfun, "_kummer_series_dd", kept)
        z = landau_grid_z(200)
        vals, bounds = kummer_m_grid(a, b, z)
        at = {v.tobytes(): k for k, v in enumerate(z)}
        cells, ratio = [], []
        for a_g, w, f_vals in sent:
            # a key w of the a side is the grid cell z = w, of the b - a side z = -w
            cells += [at[(w[k] if a_g == a else -w[k]).tobytes()] for k in range(w.size)]
            ratio.append(specfun._kummer_last_terms(a_g, b, np.abs(w))[1] / np.abs(f_vals))
        cells, ratio = np.array(cells), np.concatenate(ratio)
        assert cells.size > 7000 and ratio.max() > 1e12
        picked = set(cells[np.argsort(ratio)[-200:]].tolist()) | set(np.sort(cells)[::97].tolist())
        with mp.workdps(60):
            for k in sorted(picked):
                want = complex(mp.hyp1f1(mp.mpc(a.real, a.imag), b, mp.mpc(z[k].real, z[k].imag)))
                assert abs(vals[k] - want) <= bounds[k], (k, z[k])

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_bound_covers_error_on_landau_grid(self, a, b):
        # the bound also covers rounding to double and the e^z factor of
        # flipped cells, where the series noise alone is far below an ulp;
        # over-budget cells remain at E = 40 only
        z = landau_grid_z(200)
        vals, bounds = kummer_m_grid(a, b, z)
        rel = bounds / np.abs(vals)
        over = np.flatnonzero(rel > 1e-6)
        assert (over.size > 0) == ((a, b) in LANDAU_SECTORS_40)
        cells = (set(np.argsort(rel)[-10:].tolist()) | set(over[::max(1, over.size // 20)].tolist())
                 | set(range(0, z.size, 571)))
        with mp.workdps(60):
            for k in sorted(cells):
                want = complex(mp.hyp1f1(mp.mpc(a.real, a.imag), b,
                                         mp.mpc(z[k].real, z[k].imag)))
                assert abs(vals[k] - want) <= bounds[k], (k, z[k])

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_each_route_against_mpmath(self, a, b):
        # every route on every cell of the 41 x 41 grid where its bound is
        # finite (the asymptotic one from |w| = 10, below its domain)
        a_eff, w, routes = flipped_routes(a, b)
        with mp.workdps(40):
            want = np.array([complex(mp.exp(-mp.mpc(q.real, q.imag) / 2)
                                     * mp.hyp1f1(mp.mpc(p.real, p.imag), b, mp.mpc(q.real, q.imag)))
                             for p, q in zip(a_eff, w)])
        for name, (v, e) in routes.items():
            checked = np.isfinite(e)
            # at E = 40 the DLMF 13.7.5 bound leaves the asymptotic route few cells
            sparse = name == "asymptotic" and (a, b) in LANDAU_SECTORS_40
            assert np.count_nonzero(checked) >= (20 if sparse else 200), name
            bad = np.flatnonzero(checked & ~(np.abs(v - want) <= e))
            assert bad.size == 0, (name, w[bad[:5]])

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_routes_agree_where_both_accept(self, a, b):
        _, w, routes = flipped_routes(a, b)
        accept = {n: e <= 1e-10 * np.abs(v) for n, (v, e) in routes.items()}
        assert (accept["plain"] & accept["double-double"]).any()
        names = list(routes)
        for i, n1 in enumerate(names):
            for n2 in names[i + 1:]:
                (v1, e1), (v2, e2) = routes[n1], routes[n2]
                both = accept[n1] & accept[n2]
                assert np.all(np.abs(v1 - v2)[both] <= (e1 + e2)[both]), (n1, n2)

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_one_cell_calls_match_grid_on_every_route(self, a, b):
        # every cell of the 41 x 41 grid: cells that end on the asymptotic
        # expansion, on the plain series and on the double-double series
        # (no E = 40 cell of this grid ends on the asymptotic expansion)
        a_eff, w, routes = flipped_routes(a, b)
        (av, ae), (pv, pe) = routes["asymptotic"], routes["plain"]
        asym_tol, plain_tol = specfun._ROUTE_REL_TOLS
        asym = (np.abs(w) >= 2.0 * np.abs(a_eff) + specfun._ASYM_RADIUS) & (ae <= asym_tol * np.abs(av))
        plain = ~asym & (pe <= plain_tol * np.abs(pv))
        z = landau_grid_z(41)
        vals, bounds = kummer_m_grid(a, b, z)
        for name, mask in (("asymptotic", asym), ("plain", plain), ("double-double", ~asym & ~plain)):
            assert mask.any() or (name == "asymptotic" and (a, b) in LANDAU_SECTORS_40), name
        for k in range(z.size):
            assert bits(*kummer_m_bounded(a, b, z[k])) == bits(vals[k], bounds[k]), z[k]

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_chunk_length_never_changes_bits(self, a, b, monkeypatch):
        # a term's bits are fixed by its index alone: the grid and one-cell
        # calls with chunks of 1, 7 and the default number of terms, with
        # the sums by np.add.accumulate on blocks too, and one term a pass
        # added in place on one cell too, give the same bits
        z = np.concatenate([landau_grid_z(41), [KUMMER_RADIUS, -KUMMER_RADIUS, 60.0 + 60.0j]])
        cells = np.arange(0, z.size, 97)
        want = kummer_m_grid(a, b, z)
        want_cells = [bits(*kummer_m_bounded(a, b, z[k])) for k in cells]
        chunk, few = specfun._TERM_CHUNK, specfun._ACCUMULATE_SERIES
        for patched in ((1, few), (7, few), (chunk, 0), (7, 1 << 30), (chunk, 1 << 30)):
            monkeypatch.setattr(specfun, "_TERM_CHUNK", patched[0])
            monkeypatch.setattr(specfun, "_ACCUMULATE_SERIES", patched[1])
            got = kummer_m_grid(a, b, z)
            for g, v in zip((got[0], got[1], got.sens), (want[0], want[1], want.sens)):
                assert g.tobytes() == v.tobytes(), patched
            assert [bits(*kummer_m_bounded(a, b, z[k])) for k in cells] == want_cells, patched

    def test_one_cell_series_take_few_chunk_passes(self, monkeypatch):
        # a one-cell plain call at |w| = 100 forms its K + 1 terms in at
        # most ceil((K + 1) / C) + 1 passes of C terms, not one pass a term
        # (counted with C = 1), and the asymptotic expansion likewise
        a, b = LANDAU_SECTORS[0]
        passes = []
        kernel = specfun._term_chunks

        def counted(*args):
            for chunk in kernel(*args):
                passes[-1] += 1
                yield chunk
        monkeypatch.setattr(specfun, "_term_chunks", counted)
        chunk = specfun._TERM_CHUNK
        for route, least in ((specfun._kummer_series_plain, 3 * chunk), (specfun._kummer_asymptotic, 10)):
            counts = []
            for length in (1, chunk):
                monkeypatch.setattr(specfun, "_TERM_CHUNK", length)
                passes.append(0)
                route(a, b, np.array([60.0 + 80.0j]))
                counts.append(passes[-1])
            terms, chunked = counts
            assert terms > least and chunked <= -(-terms // chunk) + 1, route.__name__

    def test_coefficients_beyond_double_range_give_infinite_bounds(self):
        # at a = 1/4 + 2500i the coefficients f_k 2^(7k) of the long series
        # of the last two cells leave the double range: their bounds are
        # infinite instead of the table raising OverflowError
        zs = np.array([0.5, 3.0 + 4.0j, 30.0 - 40.0j, 100.0j])
        vals, bounds = kummer_m_grid(0.25 + 2500j, 0.5, zs)
        assert np.all(np.isfinite(bounds[:2])) and np.all(np.isinf(bounds[2:]))
        with pytest.raises(ToleranceNotMet):
            kummer_m(0.25 + 2500j, 0.5, 100.0j)

    def test_grid_takes_a_scalar_a(self):
        with pytest.raises(TypeError):
            kummer_m_grid(np.array([0.25 + 5j, 0.75 + 5j]), 0.5, np.array([1.0, 2.0]))

    def test_grid_empty(self):
        vals, bounds = kummer_m_grid(0.25 + 5j, 0.5, np.array([], dtype=complex))
        assert vals.shape == (0,) and bounds.shape == (0,)

    @pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(1.0, math.inf),
                                     complex(-math.inf, 0.0)])
    def test_grid_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            kummer_m_grid(0.25 + 5j, 0.5, np.array([1.0 + 1.0j, bad]))
        with pytest.raises(ValueError):
            kummer_m_grid(bad, 0.5, np.array([1.0 + 1.0j, 2.0]))


class TestBesselKSlope:
    """The one K kernel: K with dK/dnu from a second integrand on K's own
    trapezoidal nodes, and K's error estimate."""

    @pytest.mark.parametrize("a", [0.5, 2.25])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0 * math.pi, 20.0, 60.0])
    def test_against_oracle(self, a, x):
        # seeded orders a + it/2, t in (0, 200]: dK/dnu within K's
        # documented 1e-8, and each estimate covers K's error
        t = np.random.default_rng(21).uniform(0.0, 200.0, 5)
        k, dk, err = specfun._bessel_k(a + 0.5j * t, x)
        with mp.workdps(30):
            nus = [mp.mpc(a, 0.5 * ti) for ti in t]
            ref = np.array([complex(mp.besselk(nu, x)) for nu in nus])
            dref = np.array([complex(mp.diff(lambda n: mp.besselk(n, x), nu)) for nu in nus])
        assert np.all(np.abs(dk - dref) < 1e-8 * np.abs(dref))
        assert np.all(np.abs(k - ref) <= err)
        assert np.all(err < 1e-8 * np.abs(ref))

    def test_reflection_and_conjugation(self):
        # K_(-nu) = K_nu and K_conj(nu) = conj K_nu: dK/dnu changes sign
        # and is conjugated
        nu = np.array([0.5 + 7.0j, 2.25 + 40.0j, 0.5])
        k, dk, err = specfun._bessel_k(nu, 2.0 * math.pi)
        for other, sign, conj in ((-nu, -1.0, False), (nu.conj(), 1.0, True),
                                  (-nu.conj(), -1.0, True)):
            k2, dk2, err2 = specfun._bessel_k(other, 2.0 * math.pi)
            assert k2.tolist() == (k.conj() if conj else k).tolist()
            assert dk2.tolist() == (sign * (dk.conj() if conj else dk)).tolist()
            assert err2.tolist() == err.tolist()

    def test_elements_equal_one_order_calls(self):
        nu = 0.5 + 1j * np.linspace(0.0, 100.0, 300)
        got = specfun._bessel_k(nu, 1.0)
        for i in (0, 127, 128, 299):
            one = specfun._bessel_k(nu[i:i + 1], 1.0)
            assert [g[i] for g in got] == [o[0] for o in one]


class TestBesselKSweep:
    def test_adversarial_bands_against_oracle(self):
        # crossover |Im nu| ~ z, small z, generic, and the deep-decay band
        mp.mp.dps = 30
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(30):
            band = rng.integers(0, 4)
            if band == 0:
                z = rng.uniform(0.5, 15.0)
                mu = z * rng.uniform(0.85, 1.15)
            elif band == 1:
                z = rng.uniform(0.05, 1.0)
                mu = rng.uniform(0.0, 30.0)
            elif band == 2:
                z = rng.uniform(1.0, 30.0)
                mu = rng.uniform(0.0, 100.0)
            else:
                z = 2.0 * math.pi
                mu = rng.uniform(60.0, 100.0)
            nu = complex(rng.choice([0.5, 2.25]), mu)
            ref = complex(mp.besselk(mp.mpc(nu.real, nu.imag), mp.mpf(z)))
            rel = abs(bessel_k_complex_order(nu, z) - ref) / abs(ref)
            worst = max(worst, rel)
        assert worst < 1e-9
