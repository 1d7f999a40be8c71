import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import perron, zeta as ze
from rzspec.errors import NotAZero, OnZeroAmbiguity

T1 = 14.134725141734694
TRIVIAL_TERM_5_0_3 = 0.00074635824213665312
AT_ZERO_CONST_T1 = complex(0.52089222342695596, 0.021962255381613508)


class TestMoebius:
    def test_values(self):
        assert [perron.moebius(n) for n in (1, 2, 4, 30)] == [1, -1, 0, -1]
        assert perron.moebius(6) == 1

    def test_budget(self):
        with pytest.raises(ValueError):
            perron.moebius(0)
        with pytest.raises(ValueError):
            perron.moebius(10 ** 9 + 1)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
    def test_multiplicative_on_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            assert perron.moebius(a * b) == perron.moebius(a) * perron.moebius(b)

    def test_sieve_matches_scalar(self):
        # 10007 is prime and 10201 = 101^2: both need the step that flips
        # the sign for the one prime factor above sqrt(n_max)
        for n_max in (500, 10007, 10201, 10 ** 5):
            mu = perron.moebius_sieve(n_max)
            assert mu.dtype == np.int8 and mu[0] == 0 and len(mu) == n_max + 1
            assert mu[1:].tolist() == [perron.moebius(n) for n in range(1, n_max + 1)]


class TestMertens:
    def test_values(self):
        assert perron.mertens(1) == 1
        assert perron.mertens(10) == -1
        assert perron.mertens(10.5) == -1

    def test_sqrt_ratio_reported(self):
        # no bound asserted (the classical conjecture is false); sanity only
        for x in (100, 1000):
            ratio = abs(perron.mertens(x)) / math.sqrt(x)
            assert ratio < 1.0


class TestDirectSums:
    def test_single_term(self):
        assert perron.m_z_direct(1.0, 5.0) == 1.0

    def test_half_weight_example(self):
        v = perron.m_z_direct(2.0, 0.0, primed=True)
        assert v.real == pytest.approx(1.0 - 0.5 / math.sqrt(2.0), rel=1e-14)
        assert v.imag == pytest.approx(0.0, abs=1e-16)

    def test_growth_at_zero(self):
        a = abs(perron.m_z_direct(50, T1))
        b = abs(perron.m_z_direct(150, T1))
        assert b > a

    @given(st.integers(min_value=2, max_value=400),
           st.floats(min_value=0.0, max_value=60.0))
    def test_half_weight_sum_rule(self, x, E):
        lhs = perron.m_z_direct(float(x), E, primed=True)
        rhs = (perron.m_z_direct(x - 0.5, E, primed=False)
               + 0.5 * perron.moebius(x) * x ** complex(-0.5, -E))
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


class TestTrivialZeros:
    def test_closed_form_matches_numeric_derivative(self):
        for n in (1, 2, 3):
            closed = perron.zeta_prime_trivial(n)
            numeric = ze.zeta_prime(complex(-2.0 * n, 0.0)).real
            assert closed == pytest.approx(numeric, rel=1e-7)

    def test_first_is_zeta3_form(self):
        ref = -1.2020569031595943 / (4.0 * math.pi ** 2)
        assert perron.zeta_prime_trivial(1) == pytest.approx(ref, rel=1e-13)

    def test_term_example(self):
        v = perron.trivial_zero_term(5.0, 0.0, 3)
        assert v.real == pytest.approx(TRIVIAL_TERM_5_0_3, rel=1e-10)

    def test_terms_decrease(self):
        mags = [abs(perron.trivial_zero_term(10.0, 20.0, n)) for n in range(1, 8)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_tail_bounded_by_first(self):
        # the 2x bound holds from x ~ 2.25 up; at the x = 2 edge the
        # measured ratio peaks at 2.34 (factorial growth kicks in one
        # term later), so the boundary point gets a calibrated 2.5x
        for x in (2.5, 5.0, 50.0):
            total = sum(abs(perron.trivial_zero_term(x, 11.0, n)) for n in range(1, 21))
            assert total <= 2.0 * abs(perron.trivial_zero_term(x, 11.0, 1))
        total = sum(abs(perron.trivial_zero_term(2.0, 11.0, n)) for n in range(1, 21))
        assert total <= 2.5 * abs(perron.trivial_zero_term(2.0, 11.0, 1))


class TestResidueExpansion:
    def test_off_zero_accuracy(self, zero_db):
        cfg = perron.ResidueExpansionConfig(zero_db, 100, 20)
        devs = [abs(perron.m_z_perron(n, 20.0, cfg) - perron.m_z_direct(n, 20.0, True))
                for n in range(10, 51)]
        assert max(devs) < 0.1

    def test_mode_mismatch(self, zero_db):
        cfg = perron.ResidueExpansionConfig(zero_db, 50, 10)
        with pytest.raises(OnZeroAmbiguity):
            perron.m_z_perron(20.0, zero_db.records[0].t, cfg)
        cfg_at = perron.ResidueExpansionConfig(zero_db, 50, 10, at_zero_mode=True)
        with pytest.raises(NotAZero):
            perron.m_z_perron(20.0, 20.0, cfg_at)

    def test_at_zero_constant_term(self, zero_db):
        z = complex(0.5, zero_db.records[0].t)
        zp = ze.zeta_prime(z)
        zpp = ze.zeta_second_prime(z)
        assert abs(-zpp / (2.0 * zp * zp) - AT_ZERO_CONST_T1) < 1e-5

    def test_at_zero_log_slope(self, zero_db):
        t = zero_db.records[0].t
        cfg = perron.ResidueExpansionConfig(zero_db, 100, 20, at_zero_mode=True)
        xs = np.linspace(10.5, 50.5, 9)
        vals = [abs(perron.m_z_perron(float(x), t, cfg)) for x in xs]
        A = np.vstack([np.log(xs), np.ones_like(xs)]).T
        (slope, _), *_ = np.linalg.lstsq(A, np.array(vals), rcond=None)
        assert slope == pytest.approx(1.0 / abs(zero_db.records[0].z_prime), rel=0.1)

    def test_pairs_built_once(self, zero_db, monkeypatch):
        cfg = perron.ResidueExpansionConfig(zero_db, 50, 10)
        first = cfg.pairs()
        assert len(first) == 100
        assert first[0] == (complex(0.5, zero_db.records[0].t),
                            zero_db.records[0].zeta_prime_at_rho)
        assert first[1] == (complex(0.5, -zero_db.records[0].t),
                            zero_db.records[0].zeta_prime_at_rho.conjugate())
        walks = []
        monkeypatch.setattr(type(zero_db), "ensure_derivatives",
                            lambda self, upto=None: walks.append(upto))
        perron.mertens_residue(10.5, cfg)
        perron.mertens_residue(np.array([2.5, 20.5]), cfg)
        assert cfg.pairs() is first and walks == []

    def test_config_validation(self, zero_db):
        with pytest.raises(ValueError):
            perron.ResidueExpansionConfig(zero_db, len(zero_db) + 1, 5)


def _reference_tail(x, z, cfg, exclude=False):
    # the per-pair loop that the array kernel replaced, plus the sum of
    # |term| that sets the rounding scale of either summation order
    acc, scale = 0.0 + 0.0j, 0.0
    for rho, zp in cfg.pairs():
        if exclude and abs(rho - z) < 1e-6:
            continue
        term = x ** (rho - z) / ((rho - z) * zp)
        acc, scale = acc + term, scale + abs(term)
    for n in range(1, cfg.n_trivial + 1):
        term = x ** (-2.0 * n - z) / (-(2.0 * n + z) * perron.zeta_prime_trivial(n))
        acc, scale = acc + term, scale + abs(term)
    return acc, scale


class TestResidueKernel:
    def _check(self, x, z, cfg, exclude=False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = perron._residue_tail(x, z, cfg, at_zero=exclude)
        want, scale = _reference_tail(x, z, cfg, exclude)
        assert np.shape(got) == np.shape(x)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        return got

    def test_scalar_and_array_off_zero(self, zero_db):
        cfg = perron.ResidueExpansionConfig(zero_db, 100, 20)
        z = complex(0.5, 20.0)
        got = self._check(37.5, z, cfg)
        assert isinstance(got, complex)
        self._check(np.linspace(1.5, 400.5, 50), z, cfg)

    def test_at_zero_drops_its_pair(self, zero_db):
        cfg = perron.ResidueExpansionConfig(zero_db, 100, 20, at_zero_mode=True)
        z = complex(0.5, zero_db.records[0].t)
        self._check(37.5, z, cfg, exclude=True)
        self._check(np.linspace(2.5, 200.5, 40), z, cfg, exclude=True)
        # the public path runs the kernel with the pair dropped, without warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perron.m_z_perron(np.array([10.5, 20.5]), z.imag, cfg)

    def test_thousand_zeros_over_several_blocks(self, ref_db):
        cfg = perron.ResidueExpansionConfig(ref_db, 1000, 20)
        xs = np.linspace(2.5, 4000.5, 300)
        assert len(xs) * (2 * 1000 + 20) > 2 * perron._RESIDUE_BLOCK
        self._check(xs, 0j, cfg)
        self._check(186.5, 0j, cfg)
        # a block boundary does not change any row
        whole = perron._residue_tail(xs, 0j, cfg)
        assert np.array_equal(whole[200:], perron._residue_tail(xs[200:], 0j, cfg))

    def test_residue_zeros_cached(self, zero_db):
        cfg = perron.ResidueExpansionConfig(zero_db, 10, 5)
        s, dz = cfg.residue_zeros()
        assert cfg.residue_zeros() is cfg.residue_zeros()
        assert s.tolist() == [rho for rho, _ in cfg.pairs()] + [-2.0, -4.0, -6.0, -8.0, -10.0]
        assert dz[-1] == perron.zeta_prime_trivial(5)


class TestMertensResidue:
    def test_constant_is_inverse_zeta_at_zero(self):
        assert 1.0 / ze.zeta(0j).real == -2.0

    def test_reconstruction(self, ref_db):
        cfg = perron.ResidueExpansionConfig(ref_db, 1000, 20)
        for x, m_exact in ((10.5, -1), (100.5, 1)):
            r = perron.mertens_residue(x, cfg)
            assert abs(r - m_exact) < 0.5
            assert m_exact == perron.mertens(x)

    def test_imaginary_residue_vanishes(self, ref_db):
        cfg = perron.ResidueExpansionConfig(ref_db, 500, 20)
        v = perron.mertens_residue_complex(55.5, cfg)
        assert abs(v.imag) < 1e-9


class TestGrowthFit:
    def test_log_growth_at_zero(self, zero_db):
        ns = np.unique(np.geomspace(10, 10000, 40).astype(int))
        rep = perron.growth_fit(zero_db.records[0].t, ns)
        assert rep.classification == "log-growth-like"
        assert rep.log_slope == pytest.approx(1.0 / abs(zero_db.records[0].z_prime), rel=0.1)

    def test_bounded_off_zero(self):
        ns = np.unique(np.geomspace(10, 10000, 40).astype(int))
        rep = perron.growth_fit(20.0, ns)
        assert rep.classification == "bounded-like"
        # the level of the bounded oscillation tracks 1/|zeta| loosely
        baseline = 1.0 / abs(ze.zeta(complex(0.5, 20.0)))
        assert 0.5 * baseline < rep.mean_abs < 2.0 * baseline

    def test_synthetic_off_line_zero(self):
        # growth surrogate of a hypothetical zero at sigma_c = 3/4:
        # x^(sigma_c - 1/2) cos(E_c log x - phi_c) scaled arbitrarily
        ns = np.unique(np.geomspace(10, 10000, 200).astype(int))
        vals = [2.0 * n ** 0.25 * abs(math.cos(35.0 * math.log(n) - 0.4)) / 20.0
                for n in ns]
        rep = perron.fit_growth_sequence(ns, vals)
        assert rep.classification == "power-growth-like"
        assert rep.power_exponent == pytest.approx(0.25, abs=0.1)
