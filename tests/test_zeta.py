import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import zeta as ze
from rzspec.errors import (
    ConsistencyError,
    FormatError,
    MissedZeroError,
    MonotonicityError,
    PoleError,
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
    def test_two(self):
        assert ze.zeta(2.0 + 0j).real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)

    def test_zero_is_minus_half(self):
        assert ze.zeta(0j) == -0.5

    def test_first_zero_small(self):
        assert abs(ze.zeta(complex(0.5, 14.134725141734694))) < 1e-4

    def test_pole(self):
        with pytest.raises(PoleError):
            ze.zeta(1.0 + 0j)

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
        mp = pytest.importorskip("mpmath")
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
    # an ndarray takes the array kernels; a float takes the scalar code
    SCAN_GRID = np.arange(0.0, 500.0 + 1e-9, ze.ZERO_GRID_STEP)

    def test_z_and_zeta_match_scalar_on_scan_grid(self):
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
        assert ze.zeta(np.array([], dtype=complex)).shape == (0,)
        with pytest.raises(PoleError):
            ze.zeta(np.array([0.5 + 1j, 1.0]))

    def test_theta_matches_scalar_both_signs(self):
        ts = np.linspace(-2000.0, 2000.0, 8001)
        th = ze.theta_rs(ts)
        ref = np.array([ze.theta_rs(float(t)) for t in ts])
        assert np.all(np.abs(th - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        # continuous branch: theta' <= log(2000 / 2 pi) / 2 < 3, so a step of
        # 0.5 moves it by less than 1.5 and a 2 pi jump would stand out
        assert np.max(np.abs(np.diff(th))) < 1.5

    def test_against_mpmath_siegelz(self):
        mp = pytest.importorskip("mpmath")
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


class TestDerivatives:
    def test_zeta_prime_at_zero_point(self):
        assert abs(ze.zeta_prime(0j) - (-0.5 * math.log(2.0 * math.pi))) < 1e-9

    def test_zeta_prime_minus_two(self):
        ref = -1.2020569031595943 / (4.0 * math.pi ** 2)  # -zeta(3)/(4 pi^2)
        assert abs(ze.zeta_prime(-2.0 + 0j) - ref) < 1e-9

    def test_zeta_prime_oracle(self):
        assert abs(ze.zeta_prime(complex(0.5, 20.0)) - ZETA_PRIME_HALF_20I) < 1e-8

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            ze.zeta_prime(1.005 + 0j)

    def test_z_prime_t1(self):
        assert ze.z_prime(T1) == pytest.approx(Z_PRIME_T1, abs=1e-7)


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


class TestFullBudgetScan:
    def test_scan_to_500_matches_reference(self, ref_db):
        # full desk-scale run: every zero below the budget, ordinates
        # checked one-for-one against the published table
        recs = ze.find_zeros(0.0, 500.0)
        ref = [r.t for r in ref_db.records if r.t < 500.0]
        assert len(recs) == len(ref)
        assert max(abs(a.t - b) for a, b in zip(recs, ref)) < 1e-6
