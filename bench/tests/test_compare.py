import pytest

import compare


@pytest.mark.parametrize(
    "first, second, better, expected",
    [
        ([10.0, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "ok"),
        ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "WORSE"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", "WORSE"),
        ([10.0, 14.0, 6.0, 10.0], [12.0, 12.1, 11.9], "lower", "unresolved"),
        ([10.0, 14.0, 6.0, 10.0], [5.0, 5.1, 4.9], "lower", "better"),
    ],
)
def test_verdict(first, second, better, expected):
    _, outcome = compare.verdict(first, second, better, bound=0.1)
    assert outcome == expected


def test_single_record_per_side_has_zero_spread():
    assert compare.quartiles([3.0]) == (3.0, 3.0, 3.0)
    worse_by, outcome = compare.verdict([2.0], [2.1], "lower", bound=0.1)
    assert outcome == "ok"
    assert worse_by == pytest.approx(0.05)
