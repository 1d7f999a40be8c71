import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import landau, specfun
from rzspec.errors import PoleError, ToleranceNotMet
from rzspec.specfun import (
    KUMMER_RADIUS,
    QuadratureSpec,
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
# an E = 40 cell that no route covers: its bound exceeds |M|
UNCOVERED = (0.25 + 20j, 0.5, 1.0 + 50.0j)


def bits(*values):
    """The bytes of complex/float values, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=complex).tobytes()


def landau_z(n):
    """Kummer arguments (x - iy)^2 / 2 of the n x n Landau grid on [-10, 10]^2."""
    xs = np.linspace(-10.0, 10.0, n)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    w = x - 1j * y
    return (0.5 * w * w).ravel()


@functools.lru_cache(maxsize=None)
def flipped_routes(a, b):
    """Each Kummer route on every cell of the 41 x 41 Landau grid, after the
    flip to M(a_eff, b, w) with Re w >= 0: (a_eff, w, {route: (values,
    bounds)}); the asymptotic route from |w| = 10, with infinite bounds
    below, and the double-double bound with the rounding to double."""
    z = landau_z(41)
    flip = z.real < 0
    a_eff, w = np.where(flip, b - a, a), np.where(flip, -z, z)
    routes = {}
    for name, route, r_min in (("plain", specfun._kummer_series_plain, 0.0),
                               ("asymptotic", specfun._kummer_asymptotic, 10.0)):
        v, e = np.zeros(z.size, dtype=complex), np.full(z.size, np.inf)
        for a_g in (a, b - a):
            cells = np.flatnonzero((a_eff == a_g) & (np.abs(w) >= r_min))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                v[cells], e[cells], _ = route(a_g, b, w[cells])
        routes[name] = v, e
    v, e = specfun._kummer_series_dd(a_eff, b, w)
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

    def test_array_matches_scalar(self):
        # both half-planes, both signs of Im z, the real axis off the poles
        re, im = np.meshgrid(np.linspace(-6.29, 6.31, 43), np.linspace(-900.0, 900.0, 41))
        z = re + 1j * im
        got = log_gamma(z)
        assert got.shape == z.shape
        ref = np.array([log_gamma(complex(v)) for v in z.ravel()]).reshape(z.shape)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

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
        with pytest.raises(ToleranceNotMet):
            bessel_k_complex_order(0.5, 0.01, QuadratureSpec(max_abscissa=2.0))


class TestBesselKArray:
    """An ndarray of orders runs the block quadrature; each element is its
    one-order call, and the oracle covers the sweep's whole domain."""

    def test_against_oracle_whole_domain(self):
        mp = pytest.importorskip("mpmath")
        mus = np.linspace(0.0, 100.0, 41)
        worst = 0.0
        for z in (0.05, 1.0, 2.0 * math.pi, 30.0):
            for a in (0.5, 2.25):
                got = bessel_k_complex_order(a + 1j * mus, z)
                with mp.workdps(40):
                    ref = np.array([complex(mp.besselk(mp.mpc(a, mu), mp.mpf(z))) for mu in mus])
                worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
        assert worst < 1e-9

    def test_elements_equal_one_order_calls(self):
        # 40 orders of both signs in a 2-d shape: three blocks, the last partial
        rng = np.random.default_rng(7)
        nu = (rng.choice([-2.25, -0.5, 0.5, 2.25], 40)
              + 1j * rng.uniform(-100.0, 100.0, 40)).reshape(5, 8)
        for z in (1.0, 2.0 * math.pi):
            got = bessel_k_complex_order(nu, z)
            assert got.shape == nu.shape and got.dtype == complex
            assert all(g == bessel_k_complex_order(complex(n), z)
                       for g, n in zip(got.ravel(), nu.ravel()))

    def test_orders_needing_several_halvings(self, monkeypatch):
        # With 16 nodes and a 1e-18 goal at z = 0.05, 2.25 + 13i and
        # 2.25 + 14.5i close after four halvings, 0.5 + 9i and 2.25 + 16i
        # after three, the rest after one: the live rows of one block shrink
        # round by round, each with its own scale.
        mp = pytest.importorskip("mpmath")
        q, z = QuadratureSpec(node_count=16, target_abs_tol=1e-18), 0.05
        nu = np.array([0.5, 2.25, 2.25 + 13j, 0.5 + 9j, 2.25 + 14.5j, 0.5 + 30j,
                       2.25 + 60j, 0.5 + 100j, 2.25 + 5j, 2.25 + 16j])
        passes = []
        row_sums = specfun._row_sums

        def counted(integrand, lo, hi, rows, n_rows, node_count):
            passes.append(np.unique(rows).tolist())
            return row_sums(integrand, lo, hi, rows, n_rows, node_count)
        monkeypatch.setattr(specfun, "_row_sums", counted)
        got = bessel_k_complex_order(nu, z, q)
        halvings = [sum(k in p for p in passes) - 1 for k in range(len(nu))]
        assert halvings == [1, 1, 4, 3, 4, 1, 1, 1, 1, 3]
        monkeypatch.undo()
        assert all(g == bessel_k_complex_order(complex(n), z, q) for g, n in zip(got, nu))
        with mp.workdps(40):
            ref = np.array([complex(mp.besselk(mp.mpc(n.real, n.imag), mp.mpf(z))) for n in nu])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9

    def test_one_order_over_budget_raises(self):
        q = QuadratureSpec(max_abscissa=3.5)
        bessel_k_complex_order(0.5, 2.0 * math.pi, q)  # its truncation point is 2.7
        with pytest.raises(ToleranceNotMet):
            bessel_k_complex_order(np.array([0.5, 0.5 + 2j, 0.5 + 50j, 0.5]), 2.0 * math.pi, q)

    def test_rows_close_on_their_own(self):
        # the peaked row needs more halvings than the smooth one; each row's
        # value is its one-row value, whatever round the other closes in
        peak = lambda u: np.exp(-400.0 * (u - 0.37) ** 2)
        smooth = lambda u: u * u
        both = lambda u, rows: np.where(rows[:, None] == 0, smooth(u), peak(u))
        edges = np.array([0.0, 1.0])
        got = specfun._refine_panels(both, np.array([edges, edges]), 16, 1e-12)
        solo = [specfun._refine_panels(lambda u, rows: g(u), edges, 16, 1e-12)[0]
                for g in (smooth, peak)]
        assert got.tolist() == solo
        assert solo[1] == pytest.approx(math.sqrt(math.pi) / 20.0, rel=1e-12)

    def test_stalled_row_raises(self):
        # the singular row cannot settle to 1e-13 in four halvings; the
        # smooth row beside it settles in one
        edges = np.array([[0.0, 0.5, 1.0], [0.0, 1.0, 1.0]])
        integrand = lambda u, rows: np.where(rows[:, None] == 0, np.abs(u - 0.3) ** -0.5, u * u)
        with pytest.raises(ToleranceNotMet):
            specfun._refine_panels(integrand, edges, 16, 1e-12)
        val = specfun._refine_panels(lambda u, rows: u * u, edges[1], 16, 1e-12)
        assert val == pytest.approx([1.0 / 3.0], rel=1e-14)


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
        # the cell is out of budget on every route, but the bound must say so
        v, bound = kummer_m_bounded(*UNCOVERED)
        assert bound > 1e3 * max(abs(v), 1.0) or bound > 1e6

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
        # Re z at the budget |z| = 200, three default-grid cells whose bound
        # would move if the double-double float path took |term| from
        # math.hypot instead of np.hypot, and the uncovered E = 40 cell.
        z = np.concatenate([landau_z(5), landau_z(200)[[560, 35760, 36200]],
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
            raise AssertionError("a one-cell call entered _kummer_block")

        monkeypatch.setattr(specfun, "_kummer_block", refuse)
        with pytest.raises(AssertionError):  # two cells that both end on the double-double series
            kummer_m_grid(0.25 + 5j, 0.5, np.array([1.0 + 2.0j, 2.0j]))
        v, bound = kummer_m_bounded(0.25 + 5j, 0.5, 1.0 + 2.0j)
        assert abs(v - M_EXAMPLE) < 1e-12 * abs(M_EXAMPLE) and bound < 1e-14 * abs(v)
        assert kummer_m(0.25 + 5j, 0.5, 1.0 + 2.0j) == v
        g = landau.LandauGeometry(magnetic_length=1.0, box_size=100.0)
        assert landau.psi_plus(10.0, 1.5, -2.0, g) != 0.0
        assert landau.psi_minus(10.0, 1.5, -2.0, g) != 0.0

    @pytest.mark.parametrize("a, b", LANDAU_SECTORS + LANDAU_SECTORS_40)
    def test_bound_covers_error_on_landau_grid(self, a, b):
        # the bound also covers rounding to double and the e^z factor of
        # flipped cells, where the series noise alone is far below an ulp;
        # over-budget cells remain at E = 40 only
        mp = pytest.importorskip("mpmath")
        z = landau_z(200)
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
        mp = pytest.importorskip("mpmath")
        a_eff, w, routes = flipped_routes(a, b)
        with mp.workdps(40):
            want = np.array([complex(mp.hyp1f1(mp.mpc(p.real, p.imag), b, mp.mpc(q.real, q.imag)))
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
        # cells that end on the asymptotic expansion, on the plain series
        # and on the double-double series (no E = 40 cell of this grid ends
        # on the asymptotic expansion)
        a_eff, w, routes = flipped_routes(a, b)
        (av, ae), (pv, pe) = routes["asymptotic"], routes["plain"]
        asym_tol, plain_tol = specfun._ROUTE_REL_TOLS
        asym = (np.abs(w) >= 2.0 * np.abs(a_eff) + specfun._ASYM_RADIUS) & (ae <= asym_tol * np.abs(av))
        plain = ~asym & (pe <= plain_tol * np.abs(pv))
        z = landau_z(41)
        vals, bounds = kummer_m_grid(a, b, z)
        for name, mask in (("asymptotic", asym), ("plain", plain), ("double-double", ~asym & ~plain)):
            cells = np.flatnonzero(mask)
            assert cells.size or (name == "asymptotic" and (a, b) in LANDAU_SECTORS_40), name
            for k in cells[::max(1, cells.size // 12)]:
                assert bits(*kummer_m_bounded(a, b, z[k])) == bits(vals[k], bounds[k]), z[k]

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


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=8)
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_abscissa=-1.0)


class TestBesselKSweep:
    def test_adversarial_bands_against_oracle(self):
        # crossover |Im nu| ~ z, small z, generic, and the deep-decay band
        mp = pytest.importorskip("mpmath")
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
