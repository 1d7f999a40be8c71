import math

import numpy as np

import pytest

from rzspec.errors import MissedZeroError
from rzspec.roots import find_all, scan_sign_changes


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
        assert scan_sign_changes(f, 0.0, 4.0, 0.25) == [
            (0.75, 1.0 + 0.25 / 64.0), (2.75, 3.0 + 0.25 / 64.0)]
        assert calls == [(17,), (2,)]  # the whole grid, then the two nudged points
        assert find_all(f, 0.0, 4.0, 0.25, 2) == pytest.approx([1.0, 3.0], abs=1e-9)
