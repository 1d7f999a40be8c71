import math

import pytest

from rzspec.errors import MissedZeroError
from rzspec.roots import find_all


class TestFindAll:
    def test_known_roots(self):
        roots = find_all(math.sin, 0.5, 10.0, 0.1, 3)
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
        assert len(find_all(math.sin, 0.5, 10.0, 0.1, 5.4, slack=2.5)) == 3
        with pytest.raises(MissedZeroError):
            find_all(math.sin, 0.5, 10.0, 0.1, 5.6, slack=2.5)
