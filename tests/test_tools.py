import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]  # median 10, IQR 0.2


@pytest.mark.parametrize("change, bound, lower, expected", [
    ([x - 0.5 for x in PARENT], 0.03, True, ("better", 10, 0, 0)),
    ([x - 0.5 for x in PARENT[:9]] + [x + 0.5 for x in PARENT[9:]], 0.03, True, ("better", 9, 0, 1)),
    ([x - 0.5 for x in PARENT[:8]] + PARENT[8:], 0.03, True, ("no worse", 8, 2, 0)),
    ([x - 0.1 for x in PARENT], 0.03, True, ("no worse", 10, 0, 0)),
    ([x + 0.1 for x in PARENT], 0.03, True, ("no worse", 0, 0, 10)),
    ([x + 0.25 for x in PARENT], 0.03, True, ("no worse", 0, 0, 10)),
    ([x + 0.5 for x in PARENT], 0.03, True, ("worse", 0, 0, 10)),
    ([x + 0.04 for x in PARENT], 0.005, True, ("unresolved", 0, 0, 10)),
    ([x + 0.1 for x in PARENT], 0.005, True, ("worse", 0, 0, 10)),
    ([x + 0.5 for x in PARENT], 0.03, False, ("better", 10, 0, 0)),
    ([x - 0.5 for x in PARENT], 0.03, False, ("worse", 0, 0, 10)),
    (list(PARENT), 0.03, True, ("no worse", 0, 10, 0)),
    (list(PARENT), 0.01, True, ("unresolved", 0, 10, 0)),
])
def test_bench_pairs_verdict(change, bound, lower, expected):
    """A gain needs nine tenths of the pairs and a median past the parent's
    IQR; a loss past the bound, a share of the parent's median (0.03 of 10
    allows 0.3), is worse; a spread wider than the bound leaves the rest
    unresolved."""
    assert bench_pairs.verdict(PARENT, change, bound, lower) == expected


def test_bench_pairs_calls_a_separated_change_no_worse_under_a_wide_spread():
    """A change short of a gain, under a spread wider than the bound, is no
    worse only when every run of it reads better than every run of the
    parent."""
    parent = [10.0, 13.0, 8.0, 12.0, 8.5]  # median 10, IQR 3.5
    assert bench_pairs.verdict(parent, [7.9] * 5, 0.01) == ("no worse", 5, 0, 0)
    assert bench_pairs.verdict(parent, [7.9] * 4 + [8.1], 0.01) == ("unresolved", 5, 0, 0)
