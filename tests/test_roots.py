import math

import numpy as np

import pytest

from rzspec.errors import MissedZeroError
from rzspec.roots import brent, find_all, scan_sign_changes


class TestFindAll:
    def test_known_roots(self):
        roots = find_all(np.sin, 0.5, 10.0, 0.1, 3)
        assert len(roots) == 3
        for k, r in enumerate(roots, start=1):
            assert r == pytest.approx(k * math.pi, abs=1e-9)

    def test_no_sign_change(self):
        assert find_all(lambda x: x * x + 1.0, -1.0, 1.0, 0.1, 0) == []

    def test_close_pair_inside_one_step_raises(self):
        def f(x):
            return (x - 1.03) * (x - 1.05)
        # both roots sit between the grid points 1.0 and 1.1
        with pytest.raises(MissedZeroError):
            find_all(f, 0.0, 2.0, 0.1, 2)
        assert find_all(f, 0.0, 2.0, 0.005, 2) == pytest.approx([1.03, 1.05], abs=1e-9)

    def test_smooth_count_beyond_slack_raises(self):
        # three roots; a smooth count of 5.4 is within 2.5, one of 5.6 is not
        assert len(find_all(np.sin, 0.5, 10.0, 0.1, 5.4, slack=2.5)) == 3
        with pytest.raises(MissedZeroError):
            find_all(np.sin, 0.5, 10.0, 0.1, 5.6, slack=2.5)

    def test_grid_point_on_a_root_is_nudged(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return (x - 1.0) * (x - 3.0)
        # 1.0 and 3.0 are grid points; f vanishes there exactly
        a, b, _, _ = scan_sign_changes(f, 0.0, 4.0, 0.25)
        assert list(zip(a.tolist(), b.tolist())) == [
            (0.75, 1.0 + 0.25 / 64.0), (2.75, 3.0 + 0.25 / 64.0)]
        assert calls == [(17,), (2,)]  # the whole grid, then the two nudged points
        assert find_all(f, 0.0, 4.0, 0.25, 2) == pytest.approx([1.0, 3.0], abs=1e-9)


class TestLockstepBrent:
    @pytest.mark.parametrize("f,lo,hi,step,n", [
        (np.sin, 0.5, 10.0, 0.1, 3),
        (lambda x: (x - 1.03) * (x - 1.05), 0.0, 2.0, 0.005, 2),
    ])
    def test_find_all_matches_per_bracket_brent(self, f, lo, hi, step, n):
        a, b, _, _ = scan_sign_changes(f, lo, hi, step)
        want = [brent(lambda x: float(f(x)), lo_k, hi_k, xtol=1e-10)
                for lo_k, hi_k in zip(a.tolist(), b.tolist())]
        assert len(want) == n
        assert find_all(f, lo, hi, step, n) == pytest.approx(want, abs=1e-10)

    def test_brackets_do_not_interact(self):
        # a polynomial takes the same IEEE steps on floats and on arrays
        def f(x):
            return (x - 1.3) * (x - 2.9) * (x - 4.1) + 0.1 * x
        a, b = np.array([0.0, 2.0, 3.5]), np.array([2.0, 3.5, 6.0])
        got = brent(f, a, b, xtol=1e-12)
        assert got.tolist() == [brent(f, float(lo), float(hi), xtol=1e-12) for lo, hi in zip(a, b)]
        assert got[1:].tolist() == brent(f, a[1:], b[1:], xtol=1e-12).tolist()

    def test_one_call_per_iteration_on_open_brackets(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return np.sin(x)
        roots = find_all(f, 0.5, 20.0, 0.1, 6)
        assert roots == pytest.approx([k * math.pi for k in range(1, 7)], abs=1e-10)
        grid, refine = calls[0], calls[1:]
        assert len(grid) == 196
        # one call per iteration, on the six brackets and fewer as they
        # close; the scan's values at the bracket ends are reused
        sizes = [len(x) for x in refine]
        assert 1 < len(sizes) < 20 and sizes[0] == 6
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert not np.isin(np.concatenate(refine), grid).any()

    def test_not_a_bracket_raises(self):
        with pytest.raises(ValueError):
            brent(math.cos, 0.0, 1.0)
        with pytest.raises(ValueError):
            brent(np.cos, np.array([0.0, 1.0]), np.array([3.0, 1.5]))
