import json
from fractions import Fraction
from unittest import mock

import pytest

from zolab import bounds
from zolab.bounds import (
    SpectrumBound,
    limit_upper_endpoint,
    max_spectrum_candidates,
    other_bound_values,
    qk_contains,
    theorem1_region,
    theorem2_region,
    theorem4_alpha_set,
    theorem5_endpoint,
    theorem6_endpoint,
    theorem7_alpha_set,
    theorem8_alpha_set,
)

F = Fraction


def test_theorem1_examples():
    assert theorem1_region(3, 4) == 2
    vals = [theorem1_region(3, k) for k in range(4, 13)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # grows like the binomial coefficient
    import math
    for k in (20, 40):
        c = math.comb(k - 1, 2)
        assert abs(theorem1_region(3, k) / c - 1) < F(1, 10)
    with pytest.raises(ValueError):
        theorem1_region(3, 3)


def test_theorem7_set_examples():
    assert theorem7_alpha_set(3, 5, 1) == {F(2) - F(1, 15), F(2) - F(1, 16)}
    assert all(v < 2 for v in theorem7_alpha_set(3, 5, 8))
    assert max(theorem7_alpha_set(3, 5, 4)) == F(2) - F(1, 16)


def test_theorem8_set_examples():
    assert theorem8_alpha_set(3, 5) == {F(2) - F(1, 8 + a) for a in range(1, 6)}
    assert theorem8_alpha_set(3, 4) == {F(2) - F(1, 5)}
    assert not theorem7_alpha_set(3, 5, 1) & theorem8_alpha_set(3, 5)


def test_max_candidates():
    c1, c2 = max_spectrum_candidates(3, 5)
    assert (c1, c2) == (F(2) - F(1, 13), F(2) - F(1, 14))
    assert c1 == max(theorem8_alpha_set(3, 5))
    for s in (3, 4):
        for k in range(s + 1, s + 9):
            c1, c2 = max_spectrum_candidates(s, k)
            m2 = 1 << (k - s + 2)
            assert c1 == F(s - 1) - F(1, m2 - 3)
            assert c2 == F(s - 1) - F(1, m2 - 2)
            assert c1 < c2


def test_max_candidates_in_closed_form():
    # at k = 40 the violating set has 2^38 - 3 points: none may be built
    with mock.patch.object(bounds, "theorem8_alpha_set",
                           side_effect=RuntimeError("violating set enumerated")):
        c1, c2 = max_spectrum_candidates(3, 40)
        rows = other_bound_values(3, 40)
    m2 = 1 << 39
    assert (c1, c2) == (F(2) - F(1, m2 - 3), F(2) - F(1, m2 - 2))
    assert [r.value for r in rows if r.theorem == "theorem8"] == [c1]


def test_no_theorem7_point_between_candidates():
    # holds for k >= s + 2; at k = s + 1 a half-integer residue fills the gap
    for s in (3, 4):
        for k in range(s + 2, s + 8):
            c1, c2 = max_spectrum_candidates(s, k)
            points = theorem7_alpha_set(s, k, 64)
            assert not any(c1 < a < c2 for a in points)
    c1, c2 = max_spectrum_candidates(3, 4)
    assert any(c1 < a < c2 for a in theorem7_alpha_set(3, 4, 2))


def test_integer_theorem7_points_sit_above_candidate_two():
    for s in (3, 4):
        for k in range(s + 1, s + 8):
            _, c2 = max_spectrum_candidates(s, k)
            integer_points = theorem7_alpha_set(s, k, 1)
            assert min(integer_points) > c2


def test_disjointness_grid():
    for s in (3, 4):
        for k in range(s + 1, s + 9):
            assert not theorem7_alpha_set(s, k, 16) & theorem8_alpha_set(s, k)


def test_theorem4_subset_of_theorem8():
    for s in (3, 4):
        for k in range(s + 4, s + 9):
            assert theorem4_alpha_set(s, k) <= theorem8_alpha_set(s, k)


def test_qk_membership():
    # alpha with residue a/b, a <= 2^(k-s+1), is in the exceptional set
    assert qk_contains(3, 5, F(2) - 1 / (8 + F(3, 2)))
    assert qk_contains(3, 5, F(2) - 1 / (8 + F(8)))
    assert not qk_contains(3, 5, F(2) - 1 / (8 + F(9)))
    assert not qk_contains(3, 5, F(1, 2))
    assert not qk_contains(3, 5, F(2))


def test_endpoint_rows():
    assert theorem6_endpoint(3, 10) == F(2) - F(1, 8)
    assert theorem5_endpoint(3, 13) == F(1, 1)
    with pytest.raises(ValueError):
        theorem5_endpoint(3, 12)
    # the literal ordering assertion: lower limit-point bound below upper bound
    for s in (3, 4):
        for k in range(s + 5, s + 10):
            assert theorem6_endpoint(s, k) < limit_upper_endpoint(s, k)


def test_table_rows_are_serializable_and_reduced():
    rows = other_bound_values(3, 10)
    names = {r.theorem for r in rows}
    assert {"theorem1", "theorem3", "theorem4", "theorem6", "theorem7",
            "theorem8", "remark"} <= names
    for r in rows:
        assert isinstance(r, SpectrumBound)
        assert r.value == F(r.value.numerator, r.value.denominator)
        blob = json.dumps({"num": r.value.numerator, "den": r.value.denominator})
        loaded = json.loads(blob)
        assert F(loaded["num"], loaded["den"]) == r.value
    t2 = theorem2_region(3, 10)
    assert t2 < theorem1_region(3, 10)
