import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzspec import mirrors as mi
from rzspec import zeta as ze
from rzspec.errors import BadCharacter, NotAZero, ToleranceNotMet, UnimodularReflection

T1 = 14.134725141734694
PHI_Z_100_AT_20 = -2.1383868543976183
TUNED_T1 = 0.15787391988094121
NORM_LIMIT_T1 = 9.1221311938869859
ZERO_SENS_T1 = complex(0.0, -2.5215579545948545)

rho_strategy = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                                  allow_infinity=False)


class TestArrays:
    def test_moebius_values(self):
        m = mi.moebius_mirrors(30, epsilon=1.0)
        assert m.rho(4) == 0.0
        r6 = m.reflections_r[6 - 2]
        assert r6 == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-14)
        assert m.position(30) == pytest.approx(math.sqrt(30.0), rel=1e-15)
        assert m.position(1) == 1.0

    def test_tanh_map_round_trip(self):
        for r in (0.3, -0.2 + 0.6j, 1e-8j):
            rho = mi.rho_from_r(r)
            assert abs(rho) < 1.0
            assert abs(mi.r_from_rho(rho) - r) < 1e-12

    def test_invariants(self):
        with pytest.raises(ValueError):
            mi.MirrorArray(np.array([2.0, 3.0]), np.array([3.0, 4.0]),
                           np.array([0.1]))


class TestMatrices:
    def test_transparent_is_identity(self):
        assert np.allclose(mi.transfer_matrix(0.0, 2.0, 5.0), np.eye(2), atol=0)
        assert np.allclose(mi.scattering_matrix(0.0), np.eye(2), atol=0)

    def test_det_specific(self):
        T = mi.transfer_matrix(0.3j, math.sqrt(2.0), 14.13)
        assert abs(np.linalg.det(T) - 1.0) < 1e-12

    def test_unitarity_specific(self):
        S = mi.scattering_matrix(0.7 * cmath.exp(1j * math.pi / 5.0))
        assert np.abs(S @ S.conj().T - np.eye(2)).max() < 1e-14

    def test_l_inversion_specific(self):
        rho = 0.4 + 0.1j
        assert np.abs(mi.l_matrix(1.0 / rho.conjugate()) + mi.l_matrix(rho)).max() < 1e-14

    @given(rho_strategy, st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_det_property(self, rho, ell, E):
        T = mi.transfer_matrix(rho, ell, E)
        assert abs(np.linalg.det(T) - 1.0) < 1e-12

    @given(rho_strategy)
    def test_unitarity_property(self, rho):
        S = mi.scattering_matrix(rho)
        assert np.abs(S @ S.conj().T - np.eye(2)).max() < 1e-13

    def test_exp_form_identity(self):
        rho, ell, E = 0.3j, math.sqrt(2.0), 14.13
        tau = mi.transfer_generator(mi.r_from_rho(rho), ell, E)
        assert np.abs(mi.expm_offdiag(tau) - mi.transfer_matrix(rho, ell, E)).max() < 1e-12

    def test_unimodular_guard(self):
        with pytest.raises(UnimodularReflection):
            mi.transfer_matrix(1.0, 2.0, 1.0)
        with pytest.raises(UnimodularReflection):
            mi.l_matrix(cmath.exp(0.3j))


def _per_mirror_amplitudes(m, E, N):
    # propagate_exact's recurrence run mirror by mirror through the accessors
    amps = np.empty((N, 2), dtype=complex)
    amps[0] = (1.0, cmath.exp(1j * m.boundary_phase))
    am, ap = amps[0]
    for n in range(2, N + 1):
        rho = m.rho(n)
        if rho != 0.0:
            m2 = abs(rho) ** 2
            inv = 1.0 / (1.0 - m2)
            diag = (1.0 + m2) * inv
            off = 2.0 * rho * m.position(n) ** (-2j * E) * inv
            am, ap = diag * am - off * ap, -off.conjugate() * am + diag * ap
        amps[n - 1] = (am, ap)
    return amps


class TestPropagation:
    def test_transparent_array_is_constant(self):
        m = mi.moebius_mirrors(500, epsilon=0.0, boundary_phase=1.0)
        seq = mi.propagate_exact(m, 14.13, 500)
        assert np.abs(seq.amplitudes - seq.amplitudes[0]).max() == 0.0
        assert seq.amplitudes[0, 0] == 1.0
        assert seq.amplitudes[0, 1] == cmath.exp(1j)

    def test_first_order_expansion(self):
        eps, vt, E = 1e-4, 1.0, 14.1347
        N = 2000
        m = mi.moebius_mirrors(N, epsilon=eps, boundary_phase=vt)
        seq = mi.propagate_exact(m, E, N)
        gen = mi.m_z_cumulative(m, E, N) - 1.0
        pred_minus = 1.0 - eps * cmath.exp(1j * vt) * gen
        dev = np.abs(seq.amplitudes[:, 0] - pred_minus)
        assert dev.max() < 10.0 * eps ** 2 * N

    def test_golden_file(self, data_dir):
        doc = json.loads((data_dir / "golden_propagation.json").read_text())
        m = mi.moebius_mirrors(doc["N"], epsilon=doc["epsilon"],
                               boundary_phase=doc["vartheta"])
        seq = mi.propagate_exact(m, doc["E"], doc["N"])
        for i, c in enumerate(doc["checkpoints"]):
            assert seq.amplitudes[c - 1, 0] == pytest.approx(
                complex(doc["amp_minus_re"][i], doc["amp_minus_im"][i]), abs=1e-12)
            assert seq.amplitudes[c - 1, 1] == pytest.approx(
                complex(doc["amp_plus_re"][i], doc["amp_plus_im"][i]), abs=1e-12)
            assert seq.norm_partials[c - 1] == pytest.approx(
                doc["norm_partials"][i], rel=1e-12)

    def test_exact_matches_per_mirror_loop(self):
        # transparent runs at the start, in the middle and at the end; the
        # skipped rows must repeat the last amplitudes bit for bit
        N, E = 400, 21.02
        r = np.zeros(N - 1)
        r[5:60] = np.cos(0.7 * np.arange(55)) / np.sqrt(np.arange(7, 62))
        r[100:103] = 0.3, -0.2, 0.1
        r[250:300:7] = -0.4
        n = np.arange(1, N + 1, dtype=float)
        m = mi.MirrorArray(positions=np.sqrt(n), interval_ends=np.sqrt(n + 1.0),
                           reflections_r=r, boundary_phase=2.0, epsilon=0.6)
        for arr in (m, mi.moebius_mirrors(N, epsilon=0.3, boundary_phase=1.0)):
            for k in (1, 2, 7, N):
                got = mi.propagate_exact(arr, E, k)
                assert np.array_equal(got.amplitudes, _per_mirror_amplitudes(arr, E, k))
        # complex generators: Python and numpy scalars round r/|r| differently
        mc = mi.MirrorArray(positions=m.positions, interval_ends=m.interval_ends,
                            reflections_r=r * np.exp(0.3j * np.arange(N - 1)),
                            boundary_phase=2.0, epsilon=0.6)
        np.testing.assert_allclose(mi.propagate_exact(mc, E, N).amplitudes,
                                   _per_mirror_amplitudes(mc, E, N), rtol=1e-13)

    def test_magnus_zero_epsilon(self):
        m = mi.moebius_mirrors(300, epsilon=0.0, boundary_phase=0.4)
        seq = mi.propagate_magnus(m, 20.0, 300)
        assert np.abs(seq.amplitudes - seq.amplitudes[0]).max() < 1e-15

    def test_magnus_second_order_scaling(self):
        E, N = 14.1347, 3000
        gaps = []
        for eps in (1e-2, 5e-3):
            m = mi.moebius_mirrors(N, epsilon=eps, boundary_phase=0.7)
            a = mi.propagate_exact(m, E, N).amplitudes
            b = mi.propagate_magnus(m, E, N).amplitudes
            gaps.append(np.abs(a - b).max())
        ratio = gaps[0] / gaps[1]
        assert 3.2 < ratio < 4.8

    def test_magnus_norm_identity(self):
        # <A_n|A_n> of the closed form equals the hyperbolic-weight form
        eps, vt, E, N = 0.1, 2.0, 20.0, 400
        m = mi.moebius_mirrors(N, epsilon=eps, boundary_phase=vt)
        seq = mi.propagate_magnus(m, E, N)
        gen = mi.m_z_cumulative(m, E, N) - 1.0
        mod, cosd = np.abs(gen), np.cos(vt + np.angle(np.where(gen == 0, 1.0, gen)))
        pred = np.exp(-2 * eps * mod) * (1 + cosd) + np.exp(2 * eps * mod) * (1 - cosd)
        sq = np.abs(seq.amplitudes[:, 0]) ** 2 + np.abs(seq.amplitudes[:, 1]) ** 2
        ok = ~seq.undefined_phase
        assert np.abs(pred[ok] - sq[ok]).max() < 1e-12

    def test_norm_weight_bounds(self):
        # (1/2) x/(1+x) <= log(1+x) <= x with x = 1/n bounds the interval
        # weights by the harmonic ones
        N = 800
        m = mi.moebius_mirrors(N, epsilon=0.1, boundary_phase=0.5)
        seq = mi.propagate_exact(m, 33.3, N)
        sq = np.abs(seq.amplitudes[:, 0]) ** 2 + np.abs(seq.amplitudes[:, 1]) ** 2
        n = np.arange(1, N + 1)
        upper = np.cumsum(0.5 * sq / n)
        lower = np.cumsum(0.5 * sq / (n + 1.0))
        assert np.all(seq.norm_partials <= upper + 1e-12)
        assert np.all(seq.norm_partials >= lower - 1e-12)

    def test_wavefunction_scaling(self):
        N = 50
        m = mi.moebius_mirrors(N, epsilon=0.3, boundary_phase=0.2)
        seq = mi.propagate_exact(m, 14.13, N)
        for n in (3, 10, 40):
            rho = 0.5 * (m.position(n) + m.interval_ends[n - 1])
            chi_m, chi_p = mi.wavefunction_at(seq, m, rho)
            assert abs(chi_m) * math.sqrt(rho) == pytest.approx(
                abs(seq.amplitudes[n - 1, 0]), rel=1e-12)
            assert abs(chi_p) * math.sqrt(rho) == pytest.approx(
                abs(seq.amplitudes[n - 1, 1]), rel=1e-12)


class TestPhaseTuning:
    def test_phi_z_trivial(self):
        assert mi.phase_phi_z(1, 17.0) == 0.0

    def test_phi_z_oracle(self):
        val = mi.phase_phi_z(100, 20.0)
        d = math.remainder(val - PHI_Z_100_AT_20, 2.0 * math.pi)
        assert abs(d) < 1e-10

    def test_phi_z_limit_at_zero(self, t1):
        phi = mi.phase_phi_z(100000, t1)
        lim = -(ze.theta_rs(t1) + 0.5 * math.pi * math.copysign(1.0, ze.z_prime(t1)))
        assert abs(math.remainder(phi - lim, 2.0 * math.pi)) < 0.02

    def test_tuned_theta_value(self, t1):
        assert mi.tuned_theta(t1) == pytest.approx(TUNED_T1, abs=1e-9)

    def test_tuned_theta_heuristic_relation(self, t1):
        # the rigorous tuning sits a quarter turn off the heuristic phase
        # condition: e^{2i(vt + theta)} = -1 (so its square is +1)
        vt = mi.tuned_theta(t1)
        val = cmath.exp(2j * (vt + ze.theta_rs(t1)))
        assert abs(val + 1.0) < 1e-10

    def test_tuned_theta_sign_flip(self, t1):
        vt = mi.tuned_theta(t1)
        flipped = (-(ze.theta_rs(t1) - 0.5 * math.pi)) % (2.0 * math.pi)
        assert abs(math.remainder(vt - flipped - math.pi, 2.0 * math.pi)) < 1e-9

    def test_not_a_zero(self):
        with pytest.raises(NotAZero):
            mi.tuned_theta(20.0)
        with pytest.raises(NotAZero):
            mi.norm_limit(20.0, 0.1)

    def test_norm_limit_values(self, t1):
        assert mi.norm_limit(t1, 0.1) == pytest.approx(NORM_LIMIT_T1, rel=1e-9)
        # eps -> infinity limit is 2 zeta(inf) = 2
        assert mi.norm_limit(t1, 50.0) == pytest.approx(2.0, abs=1e-3)
        # pole scaling: 2 zeta(1 + delta) ~ 2/delta, delta = 2 eps/|Z'|
        eps = 1e-6
        assert mi.norm_limit(t1, eps) * eps == pytest.approx(
            abs(ze.z_prime(t1)), rel=1e-4)

    def test_zero_sensitivity(self, t1):
        v = mi.zero_sensitivity(t1)
        assert abs(v) == pytest.approx(2.0 / abs(ze.z_prime(t1)), rel=1e-10)
        assert abs(v - ZERO_SENS_T1) < 1e-7
        # consistency with the zeta-gradient form through the phase relation
        rec = ze.ZeroRecord(index=1, t=t1)
        alt = -2j * cmath.exp(1j * mi.tuned_theta(t1)) / ze.zeta_prime_at_zero(rec)
        assert abs(v - alt) < 1e-10


def _angle_formula_report(terms, eps, vt):
    # the diagnostic with cos(vartheta + angle M) and a separate
    # exp(-2 eps |M|) for the bounded part, written out as a reference
    N = len(terms)
    mz = np.cumsum(terms)
    mod = np.abs(mz)
    cosd = np.cos(vt + np.angle(mz))
    n = np.arange(1, N + 1)
    bounded = np.exp(-2.0 * eps * mod) * (1.0 + cosd) / n
    divergent = np.exp(2.0 * eps * mod) * (1.0 - cosd) / n
    norm, div = np.cumsum(bounded + divergent), np.cumsum(divergent)
    checkpoints = sorted({min(int(c), N) for c in np.geomspace(10, N, 12)})
    tail = n >= max(1000, N // 100)
    cos_tail_min = float(cosd[tail].min())
    ks = np.unique(np.geomspace(max(10, N // 100), N, 16).astype(int))
    A = np.vstack([np.log(ks), np.ones_like(ks, dtype=float)]).T
    (alpha, _), *_ = np.linalg.lstsq(A, np.log(div[ks - 1] + 1e-300), rcond=None)
    head = (n >= 10) & (n <= max(100, N // 1000))
    m_growth = mod[tail].mean() / max(mod[head].mean(), 1e-300)
    if cos_tail_min > mi.COS_FLOOR:
        cls = "tuned"
    elif m_growth < mi.M_GROWTH_FLOOR or alpha <= mi.POWER_FLOOR:
        cls = "scattering"
    else:
        cls = "detuned"
    idx = np.array(checkpoints) - 1
    return {"checkpoints": checkpoints, "norm_partials": norm[idx], "divergent_partials": div[idx],
            "cos_phase": cosd[idx], "cos_tail_min": cos_tail_min, "growth_exponent": alpha,
            "classification": cls}


def _assert_report_close(rep, want):
    assert rep.checkpoints == want["checkpoints"]
    assert rep.classification == want["classification"]
    for key in ("norm_partials", "divergent_partials", "cos_phase", "cos_tail_min",
                "growth_exponent"):
        np.testing.assert_allclose(getattr(rep, key), want[key], rtol=1e-12, atol=0, err_msg=key)


class TestDiagnostic:
    def test_overflowing_strength_is_refused(self, t1):
        # e^(2 eps |M_z|) past the floats would report Infinity and NaN partial sums
        with pytest.raises(ToleranceNotMet):
            mi.normalizability_diagnostic(t1, 1e300, 1000, 0.0)

    def test_tuned_vs_detuned(self, t1):
        vt = mi.tuned_theta(t1)
        rep_t = mi.normalizability_diagnostic(t1, 0.1, 30000, vt)
        rep_d = mi.normalizability_diagnostic(
            t1, 0.1, 30000, (vt + 0.5 * math.pi) % (2.0 * math.pi))
        assert rep_t.classification == "tuned"
        assert rep_d.classification == "detuned"
        assert rep_t.cos_tail_min > 0.9
        assert rep_d.norm_partials[-1] > 5.0 * rep_t.norm_partials[-1]

    def test_scattering_case(self):
        rep = mi.normalizability_diagnostic(20.0, 0.1, 30000, 1.0)
        assert rep.classification == "scattering"
        # partials track the free-state harmonic series 2 sum 1/n
        h = math.log(30000.0) + 0.5772156649015329
        assert rep.norm_partials[-1] == pytest.approx(2.0 * h, rel=0.5)

    def test_budget(self):
        with pytest.raises(ValueError):
            mi.normalizability_diagnostic(20.0, 0.1, 10 ** 7, 0.0)

    def test_fresh_run_does_not_import_numpy_ma(self):
        # np.unique and np.union1d import numpy.ma, about 14 ms and 0.6 MB of
        # every fresh mirror run: one diagnostic call in one fresh interpreter
        code = ("import sys; from rzspec import mirrors; "
                "mirrors.normalizability_diagnostic(20.0, 0.1, 5000, 1.0); print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(mi.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert run.stdout.split() == ["False"]

    def test_json_document_holds_every_field(self):
        # the calibration constants nest under "calibration"; every other field is a key
        rep = mi.DiagnosticReport(E=14.5, epsilon=0.1, vartheta=0.25, checkpoints=[10, 20],
                                  norm_partials=[1.0, 2.0], divergent_partials=[0.5, 0.75],
                                  cos_phase=[0.9, 0.95], cos_tail_min=0.9, growth_exponent=0.125,
                                  classification="tuned")
        assert rep.to_json_dict() == {
            "E": 14.5, "epsilon": 0.1, "vartheta": 0.25, "checkpoints": [10, 20],
            "norm_partials": [1.0, 2.0], "divergent_partials": [0.5, 0.75],
            "cos_phase": [0.9, 0.95], "cos_tail_min": 0.9, "growth_exponent": 0.125,
            "classification": "tuned",
            "calibration": {"cos_floor": mi.COS_FLOOR, "power_floor": mi.POWER_FLOOR}}
        assert rep.checkpoints == [10, 20] and rep.cos_floor == mi.COS_FLOOR

    @pytest.mark.parametrize("case", ["tuned", "detuned", "scattering"])
    def test_matches_angle_formula(self, t1, case):
        vt = mi.tuned_theta(t1)
        E, vt = {"tuned": (t1, vt), "detuned": (t1, (vt + 0.5 * math.pi) % (2.0 * math.pi)),
                 "scattering": (20.0, 1.0)}[case]
        N = 30000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mi.normalizability_diagnostic(E, 0.1, N, vt)
        want = _angle_formula_report(mi._dirichlet_terms(mi.moebius_sieve(N)[1:], E), 0.1, vt)
        assert rep.classification == want["classification"] == case
        _assert_report_close(rep, want)

    def test_vanishing_partial_sum(self, t1, monkeypatch):
        # M_z(10) = 0 exactly, and M_z = 0 on both sides of the first block
        # boundary, so the carry into the second block is 0: the phase is
        # taken as 0 there, so the checkpoint n = 10 carries cos(vartheta),
        # and nothing warns
        N, vt, edge = 70000, 2.5, mi._DIAGNOSTIC_BLOCK
        terms = mi._dirichlet_terms(mi.moebius_sieve(N)[1:], t1)
        terms[9] = -np.cumsum(terms[:9])[-1]
        terms[edge - 1] = -np.cumsum(terms[:edge - 1])[-1]
        terms[edge] = 0.0
        partial = np.cumsum(terms)
        assert partial[9] == partial[edge - 1] == partial[edge] == 0.0
        monkeypatch.setattr(mi, "_dirichlet_terms",
                            lambda mu, E, lo=1: terms[lo - 1:lo - 1 + len(mu)].copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mi.normalizability_diagnostic(t1, 0.1, N, vt)
        assert rep.checkpoints[0] == 10
        assert rep.cos_phase[0] == math.cos(vt)
        _assert_report_close(rep, _angle_formula_report(terms, 0.1, vt))


    def test_minimum_length(self, t1):
        # below N = 1000 the tail n >= 1000 is empty
        with pytest.raises(ValueError):
            mi.normalizability_diagnostic(t1, 0.1, 999, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mi.normalizability_diagnostic(t1, 0.1, 1000, mi.tuned_theta(t1))
        assert math.isfinite(rep.growth_exponent) and rep.checkpoints[-1] == 1000

    @pytest.mark.parametrize("N", [1000, 65536, 65537, 10 ** 6])
    def test_blocks_match_whole_arrays(self, t1, N):
        vt = mi.tuned_theta(t1)
        for theta in (vt, (vt + 0.5 * math.pi) % (2.0 * math.pi)):
            got = mi.normalizability_diagnostic(t1, 0.1, N, theta).to_json_dict()
            assert json.dumps(got) == json.dumps(_whole_array_report(t1, 0.1, N, theta))

    def test_memory_flat_in_n(self, t1):
        # the peak is the Moebius sieve's own (about 10 MB at N = 10^6);
        # whole length-N arrays took about 31 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mi.normalizability_diagnostic(t1, 0.1, 10 ** 6, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _whole_array_report(E, epsilon, N, vartheta):
    # the diagnostic over whole length-N arrays, the reference that the
    # block-streamed one must reproduce bit for bit
    mz = np.cumsum(mi._dirichlet_terms(mi.moebius_sieve(N)[1:], E))
    mod = np.abs(mz)
    mz.real *= math.cos(vartheta)
    mz.imag *= math.sin(vartheta)
    cosd = mz.real - mz.imag
    np.divide(cosd, mod, out=cosd, where=mod > 0.0)
    cosd[mod == 0.0] = math.cos(vartheta)
    checkpoints = sorted({min(int(c), N) for c in np.geomspace(10, N, 12)})
    cos_phase = cosd[np.array(checkpoints) - 1].tolist()
    t0 = max(1000, N // 100)
    cos_tail_min = float(cosd[t0 - 1:].min())
    m_growth = float(mod[t0 - 1:].mean() / max(mod[9:max(100, N // 1000)].mean(), 1e-300))
    grow = np.exp(2.0 * epsilon * mod)
    div_partials = (1.0 - cosd) * grow
    norm_partials = (cosd + 1.0) / grow
    n = np.arange(1, N + 1)
    div_partials /= n
    norm_partials /= n
    norm_partials += div_partials
    norm_partials, div_partials = np.cumsum(norm_partials), np.cumsum(div_partials)
    ks = np.unique(np.geomspace(max(10, N // 100), N, 16).astype(int))
    A = np.vstack([np.log(ks), np.ones_like(ks, dtype=float)]).T
    (alpha, _), *_ = np.linalg.lstsq(A, np.log(div_partials[ks - 1] + 1e-300), rcond=None)
    if cos_tail_min > mi.COS_FLOOR:
        cls = "tuned"
    elif m_growth < mi.M_GROWTH_FLOOR or alpha <= mi.POWER_FLOOR:
        cls = "scattering"
    else:
        cls = "detuned"
    return mi.DiagnosticReport(
        E=E, epsilon=epsilon, vartheta=vartheta, checkpoints=checkpoints,
        norm_partials=[float(norm_partials[c - 1]) for c in checkpoints],
        divergent_partials=[float(div_partials[c - 1]) for c in checkpoints],
        cos_phase=cos_phase, cos_tail_min=cos_tail_min, growth_exponent=float(alpha),
        classification=cls).to_json_dict()


class TestInterferometer:
    def test_first_mirror(self):
        lay = mi.interferometer_layout(10)
        n, d, r = lay.entries[0]
        assert n == 2
        assert d == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert r == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)

    def test_skips_square_full(self):
        lay = mi.interferometer_layout(10)
        assert [e[0] for e in lay.entries] == [2, 3, 5, 6, 7, 10]

    def test_trivial_character_matches_mirror_map(self):
        lay = mi.interferometer_layout(40)
        m = mi.moebius_mirrors(40, epsilon=1.0)
        for n, d, r in lay.entries:
            assert d == pytest.approx(math.log(m.position(n)), rel=1e-14)
            assert r == pytest.approx(m.reflections_r[n - 2], rel=1e-14)

    def test_quadratic_character_mod_4(self):
        chi = mi.DirichletCharacter(4, (0, 1, 0, -1))
        lay = mi.interferometer_layout(10, chi)
        entry3 = next(e for e in lay.entries if e[0] == 3)
        assert entry3[2] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert all(e[0] % 2 == 1 for e in lay.entries)

    def test_bad_characters(self):
        with pytest.raises(BadCharacter):
            mi.DirichletCharacter(4, (0, 1, 0, 2))      # not multiplicative
        with pytest.raises(BadCharacter):
            mi.DirichletCharacter(4, (1, 1, 0, -1))     # nonzero on non-unit
        with pytest.raises(BadCharacter):
            mi.DirichletCharacter(4, (0, -1, 0, 1))     # chi(1) != 1

    def test_json_shape(self):
        doc = mi.interferometer_layout(6, boundary_phase=0.25).to_json_dict()
        assert doc["boundary_phase"] == 0.25
        assert {"n", "position", "reflection_re", "reflection_im"} == set(doc["mirrors"][0])


class TestTransferInverse:
    @given(rho_strategy, st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=0.0, max_value=40.0))
    def test_closed_form_inverse(self, rho, ell, E):
        # the off-diagonal sign flip used by propagate_exact is the inverse
        T = mi.transfer_matrix(rho, ell, E)
        flip = np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])
        assert np.abs(T @ flip - np.eye(2)).max() < 1e-11
