import compare

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]


def test_clear_gain_is_improved():
    change = [b * 0.8 for b in BASE]
    assert compare.verdict(BASE, change, True, 0.2) == ("improved", 10)


def test_worse_beyond_bound_is_regressed():
    change = [b * 1.3 for b in BASE]
    assert compare.verdict(BASE, change, True, 0.2)[0] == "regressed"
    assert compare.verdict(BASE, change, False, 0.2)[0] == "improved"


def test_small_drift_is_unchanged():
    change = [b * 1.05 for b in BASE]
    assert compare.verdict(BASE, change, True, 0.2)[0] == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [n * 1.02 for n in noisy]
    assert compare.verdict(noisy, change, True, 0.2)[0] == "unresolved"


def test_regression_beyond_a_wide_spread_is_regressed():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [n * 2.0 for n in noisy]
    assert compare.verdict(noisy, change, True, 0.2)[0] == "regressed"
