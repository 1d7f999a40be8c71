import math

import mpmath as mp
import numpy as np

import pytest

from rzspec.errors import MissedZeroError
from rzspec.roots import find_all, level_roots, newton, scan_grid, scan_sign_changes


def sin(x):
    # np.sin as find_all takes it: values, slopes and no value error
    return np.sin(x), np.cos(x), np.zeros_like(x)


class TestFindAll:
    def test_known_roots(self):
        roots = find_all(sin, scan_grid(0.5, 10.0, 0.1), 3)
        assert len(roots) == 3
        for k, r in enumerate(roots, start=1):
            assert r == pytest.approx(k * math.pi, abs=1e-9)

    def test_no_sign_change(self):
        f = lambda x: (x * x + 1.0, 2.0 * x, np.zeros_like(x))
        assert find_all(f, scan_grid(-1.0, 1.0, 0.1), 0) == []

    def test_close_pair_inside_one_step_raises(self):
        def f(x):
            return (x - 1.03) * (x - 1.05), 2.0 * x - 2.08, np.zeros_like(x)
        # both roots sit between the grid points 1.0 and 1.1
        with pytest.raises(MissedZeroError):
            find_all(f, scan_grid(0.0, 2.0, 0.1), 2)
        assert find_all(f, scan_grid(0.0, 2.0, 0.005), 2) == pytest.approx([1.03, 1.05], abs=1e-9)

    @pytest.mark.parametrize("expected", [2, 4])
    def test_count_must_be_exact(self, expected):
        # three roots: a count one off either way raises
        with pytest.raises(MissedZeroError):
            find_all(sin, scan_grid(0.5, 10.0, 0.1), expected)

    def test_grid_is_clipped_at_its_end(self):
        ts = scan_grid(0.5, 9.98, 0.1)
        assert ts[:-1].tolist() == (0.5 + np.arange(95) * 0.1).tolist()
        assert ts[-1] == 9.98
        assert scan_grid(0.0, 0.05, 0.1).tolist() == [0.0, 0.05]
        assert scan_grid(0.0, 0.3, 0.1).tolist() == np.minimum(np.arange(4) * 0.1, 0.3).tolist()

    def test_grid_point_on_a_root_is_nudged(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return (x - 1.0) * (x - 3.0)
        # 1.0 and 3.0 are grid points; f vanishes there exactly
        a, b, _, _ = scan_sign_changes(f, scan_grid(0.0, 4.0, 0.25))
        assert list(zip(a.tolist(), b.tolist())) == [
            (0.75, 1.0 + 0.25 / 64.0), (2.75, 3.0 + 0.25 / 64.0)]
        assert calls == [(17,), (2,)]  # the whole grid, then the two nudged points
        g = lambda x: (f(x), 2.0 * x - 4.0, np.zeros_like(x))
        assert find_all(g, scan_grid(0.0, 4.0, 0.25), 2) == pytest.approx([1.0, 3.0], abs=1e-9)

    def test_grid_gives_the_values_below_t_max(self):
        # the caller's values, here one grid call for t_min + k step below
        # t_max and f at the clipped end, give the brackets and roots of f alone
        calls = []

        def grid(lo, step, n):
            calls.append(("grid", lo, step, n))
            return np.sin(lo + np.arange(n) * step)

        def f(x):
            calls.append(("f", np.shape(x)))
            return np.sin(x)
        ts = scan_grid(0.5, 9.98, 0.1)
        fs = np.append(grid(0.5, 0.1, len(ts) - 1), f(ts[-1:]))
        got = scan_sign_changes(f, ts, fs)
        want = scan_sign_changes(np.sin, ts)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))
        assert calls == [("grid", 0.5, 0.1, 95), ("f", (1,))]
        g = lambda x: (f(x), np.cos(x), np.zeros_like(x))
        assert find_all(g, ts, 3, fs, np.cos(ts)) == find_all(sin, ts, 3)


class TestLockstepBrent:
    """find_all's lockstep refinement, checked bracket by bracket against mpmath.findroot."""

    @pytest.mark.parametrize("f,lo,hi,step,n", [
        (sin, 0.5, 10.0, 0.1, 3),
        (lambda x: ((x - 1.03) * (x - 1.05), 2.0 * x - 2.08, np.zeros_like(x)), 0.0, 2.0, 0.005, 2),
    ])
    def test_find_all_matches_per_bracket_brent(self, f, lo, hi, step, n):
        a, b, _, _ = scan_sign_changes(lambda x: f(x)[0], scan_grid(lo, hi, step))
        want = [float(mp.findroot(lambda x: float(f(float(x))[0]), (lo_k, hi_k), solver="anderson"))
                for lo_k, hi_k in zip(a.tolist(), b.tolist())]
        assert len(want) == n
        assert find_all(f, scan_grid(lo, hi, step), n) == pytest.approx(want, abs=1e-10)

    def test_one_call_per_iteration_on_open_brackets(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return sin(x)
        roots = find_all(f, scan_grid(0.5, 20.0, 0.1), 6)
        assert roots == pytest.approx([k * math.pi for k in range(1, 7)], abs=1e-10)
        grid, refine = calls[0], calls[1:]
        assert len(grid) == 196
        # one call on the grid, then one per iteration, on the six brackets
        # and fewer as they close; the grid's values and slopes seed them
        sizes = [len(x) for x in refine]
        assert 1 < len(sizes) < 20 and sizes[0] == 6
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert not np.isin(np.concatenate(refine), grid).any()


class TestLockstepNewton:
    def test_find_all_with_slopes(self):
        # values and slopes at the nodes seed each bracket by inverse cubic
        # Hermite interpolation; Newton then makes one call per round on the
        # brackets still open
        calls = []

        def f(x):
            calls.append(np.array(x))
            return np.sin(x), np.cos(x), np.zeros_like(x)
        ts = scan_grid(0.5, 20.0, 0.5)
        roots = find_all(f, ts, 6, np.sin(ts), np.cos(ts))
        assert roots == pytest.approx([k * math.pi for k in range(1, 7)], abs=1e-12)
        sizes = [len(x) for x in calls]
        assert sizes[0] == 6 and len(sizes) <= 3
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert np.all(np.abs(calls[0] - np.arange(1, 7) * math.pi) < 1e-3)

    def test_step_leaving_the_bracket_bisects(self):
        # Newton on atan diverges from |x| > 1.39; the bracket keeps every
        # point inside it and the cut brackets close in on the root
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.arctan(x), 1.0 / (1.0 + x * x), np.zeros_like(x)
        a, b = np.array([-10.0, -3.0]), np.array([5.0, 20.0])
        roots = newton(f, a, b, np.array([4.0, 15.0]), np.arctan(a))
        assert np.all(np.abs(roots) < 1e-12)
        pts = np.concatenate(seen)
        assert pts.min() >= -10.0 and pts.max() <= 20.0

    def test_stops_at_the_value_error(self):
        # values carry noise of 1e-7 and say so: Newton stops once the value
        # is within its error instead of chasing the noise to 1e-10
        calls = []

        def f(x):
            calls.append(len(x))
            return (x - 1.0) + 1e-7 * np.sin(1e9 * x), np.ones_like(x), np.full_like(x, 2e-7)
        roots = newton(f, np.array([0.0]), np.array([2.0]), np.array([1.3]), np.array([-1.0]))
        assert abs(roots[0] - 1.0) < 3e-7
        assert len(calls) <= 3


class TestLevelRoots:
    @pytest.mark.parametrize("phase", [
        lambda t: (t, np.ones_like(t), np.zeros_like(t)),
        lambda t: (-t, -np.ones_like(t), np.zeros_like(t)),
        lambda t: (np.angle(np.exp(1j * t)), np.ones_like(t), np.zeros_like(t))],
        ids=["rising", "falling", "rising-principal"])
    def test_monotone_phase_from_a_level(self, phase):
        # the level 0 at ts[0] = 0 is not counted; the phase crosses 0 mod pi
        # at pi, 2 pi and 3 pi, whether it rises or falls, continuous or principal
        roots = level_roots(phase, scan_grid(0.0, 10.0, 0.1), 0.0)
        assert roots == pytest.approx([math.pi, 2.0 * math.pi, 3.0 * math.pi], abs=1e-12)

    def test_one_turn(self):
        # (t - 5.05)^2 / 2 falls through the levels 0.5 + k pi below 12.5 and
        # rises through them again; its turn becomes a node of the scan
        calls = []

        def phase(t):
            calls.append(np.array(t))
            return 0.5 * (t - 5.05) ** 2, t - 5.05, np.zeros_like(t)
        ts = scan_grid(0.0, 10.0, 0.1)
        roots = level_roots(phase, ts, 0.5, (5.05,))
        crossings = np.sqrt(2.0 * (0.5 + math.pi * np.arange(4)))
        assert roots == pytest.approx(np.concatenate((5.05 - crossings[::-1], 5.05 + crossings)), abs=1e-12)
        assert calls[0].tolist() == sorted(ts.tolist() + [5.05])
        # without the turn the piece holds no monotone phase
        with pytest.raises(MissedZeroError, match="pi/2"):
            level_roots(phase, ts, 0.5)

    def test_step_past_a_quarter_turn_raises(self):
        # 2t moves by 1.6 > pi/2 a step of 0.8, where a step may hide two levels
        phase = lambda t: (2.0 * t, np.full_like(t, 2.0), np.zeros_like(t))
        assert len(level_roots(phase, scan_grid(0.1, 10.0, 0.7), 0.0)) == 6
        with pytest.raises(MissedZeroError, match="pi/2"):
            level_roots(phase, scan_grid(0.1, 10.0, 0.8), 0.0)
