"""Exact rational calculators for the spectrum endpoint statements.

Every value is a Fraction computed with big integers; each table row carries
its parameter constraints so callers cannot extrapolate out of range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


KIND_MIN_LOWER = "min_Sk_lower_region"
KIND_MIN_WITNESS = "min_Sk_witness_region"
KIND_MAX_OBEYS = "max_Sk_obeys"
KIND_MAX_VIOLATES = "max_Sk_violates"
KIND_MIN_LIMIT = "min_limit_points"
KIND_MAX_LIMIT = "max_limit_points"


@dataclass(frozen=True)
class SpectrumBound:
    s: int
    k: int
    value: Fraction
    kind: str
    theorem: str
    note: str = ""


def _check_base(s: int, k: int, min_gap: int = 1) -> None:
    if s < 3:
        raise ValueError("arity must be >= 3")
    if k < s + min_gap:
        raise ValueError(f"need k >= s + {min_gap}, got s={s}, k={k}")


def theorem8_split(s: int, k: int, a1: int | None, a2: int | None) -> int:
    """The a of the Theorem 8 point s-1-1/(2^(k-s+1) + a) that the split
    a1 + a2 = a + 3 gives, a1, a2 in 1..2^(k-s).  The split is required for
    k >= s + 2; at k = s + 1 it must be omitted, and a = 1."""
    _check_base(s, k)
    if k == s + 1:
        if a1 is not None or a2 is not None:
            raise ValueError("a1/a2 are fixed for k = s + 1; omit them")
        return 1
    if a1 is None or a2 is None:
        raise ValueError("a1 and a2 are required for k >= s + 2")
    lim = 1 << (k - s)
    if not (1 <= a1 <= lim and 1 <= a2 <= lim):
        raise ValueError(f"a1, a2 must lie in 1..{lim}")
    a = a1 + a2 - 3
    if not (1 <= a <= (1 << (k - s + 1)) - 3):
        raise ValueError(f"a = a1 + a2 - 3 = {a} outside 1..{(1 << (k - s + 1)) - 3}")
    return a


def theorem1_region(s: int, k: int) -> Fraction:
    """Reciprocal threshold: the k-law holds whenever 1/alpha exceeds this."""
    _check_base(s, k)
    c = math.comb(k - 1, s - 1)
    return (Fraction(c) - 1 - Fraction(s - 1, k - 1)
            + Fraction(2) * (1 + Fraction(s - 1, k - 1)) / (c + 2))


def theorem2_region(s: int, k: int) -> Fraction:
    """Reciprocal bound below which some violating alpha exists."""
    _check_base(s, k, 2)
    c = math.comb(k - 1, s - 1)
    return Fraction(c) - 1 - Fraction(s - 1, k - 1) - Fraction(2, c)


def theorem7_alpha_set(s: int, k: int, b_max: int) -> set[Fraction]:
    """All obeying points s-1-1/(2^(k-s+1) + a/b) with a/b irreducible,
    a in {max(1, 2^(k-s+1)-b), ..., 2^(k-s+1)}, b <= b_max."""
    _check_base(s, k)
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    m = 1 << (k - s + 1)
    out: set[Fraction] = set()
    for b in range(1, b_max + 1):
        nu = max(1, m - b)
        for a in range(nu, m + 1):
            if math.gcd(a, b) != 1:
                continue
            out.add(Fraction(s - 1) - 1 / (m + Fraction(a, b)))
    return out


def theorem8_alpha_set(s: int, k: int) -> set[Fraction]:
    """All violating points s-1-1/(2^(k-s+1) + a) with 1 <= a <= 2^(k-s+1)-3."""
    _check_base(s, k)
    m = 1 << (k - s + 1)
    return {Fraction(s - 1) - Fraction(1, m + a) for a in range(1, m - 2)}


def theorem4_alpha_set(s: int, k: int) -> set[Fraction]:
    """Earlier violating points; a <= 2^(k-s-2) + 2^(k-s-3) + 1, k >= s+4."""
    _check_base(s, k, 4)
    m = 1 << (k - s + 1)
    a_max = (1 << (k - s - 2)) + (1 << (k - s - 3)) + 1
    return {Fraction(s - 1) - Fraction(1, m + a) for a in range(1, a_max + 1)}


def max_spectrum_candidates(s: int, k: int) -> tuple[Fraction, Fraction]:
    """The two-element candidate set for the maximal spectrum point.

    The first candidate is the largest point of `theorem8_alpha_set`, at
    a = 2^(k-s+1) - 3, in closed form.
    """
    _check_base(s, k)
    m2 = 1 << (k - s + 2)
    return Fraction(s - 1) - Fraction(1, m2 - 3), Fraction(s - 1) - Fraction(1, m2 - 2)


def qk_contains(s: int, k: int, alpha: Fraction) -> bool:
    """Membership in the exceptional set: alpha = s-1-1/(2^(k-s+1) + a/b) with
    a, b natural and a <= 2^(k-s+1); equivalently the residue a/b is a positive
    rational whose reduced numerator is within the bound."""
    _check_base(s, k)
    gap = Fraction(s - 1) - alpha
    if gap <= 0:
        return False
    q = 1 / gap - (1 << (k - s + 1))
    return q > 0 and q.numerator <= (1 << (k - s + 1))


def theorem5_endpoint(s: int, k: int) -> Fraction:
    """Upper bound for the least limit point; valid only for k past an
    unspecified constant."""
    if k - 11 < s - 1:
        raise ValueError(f"need k - 11 >= s - 1, got s={s}, k={k}")
    return Fraction(1, math.comb(k - 11, s - 1))


def theorem6_endpoint(s: int, k: int) -> Fraction:
    """Lower bound for the largest limit point; valid only for k past an
    unspecified constant."""
    _check_base(s, k, 5)
    return Fraction(s - 1) - Fraction(1, 1 << (k - s - 4))


def limit_upper_endpoint(s: int, k: int) -> Fraction:
    """Upper bound for the largest limit point (finiteness of the spectrum tail)."""
    _check_base(s, k)
    return Fraction(s - 1) - Fraction(1, 1 << (k - s + 1))


def theorem7_max_sk_upper(s: int, k: int) -> Fraction:
    """Largest-point upper bound implied by the obeying set."""
    _check_base(s, k)
    return Fraction(s - 1) - Fraction(1, (1 << (k - s + 2)) - 2)


_CONSTANT_NOTE = "valid for k >= s + C with C unspecified; value is the raw expression"


def other_bound_values(s: int, k: int) -> list[SpectrumBound]:
    """Every endpoint statement evaluable at (s, k), as exact rationals."""
    rows: list[SpectrumBound] = []
    rows.append(SpectrumBound(s, k, theorem1_region(s, k), KIND_MIN_LOWER,
                              "theorem1", "reciprocal: obeys when 1/alpha exceeds"))
    if k >= s + 2:
        rows.append(SpectrumBound(s, k, theorem2_region(s, k), KIND_MIN_WITNESS,
                                  "theorem2",
                                  "reciprocal: some violating alpha above this"))
    rows.append(SpectrumBound(s, k, limit_upper_endpoint(s, k), KIND_MAX_OBEYS,
                              "theorem3", "left endpoint of the obeying interval"))
    if k >= s + 4:
        a_max = (1 << (k - s - 2)) + (1 << (k - s - 3)) + 1
        rows.append(SpectrumBound(
            s, k, Fraction(s - 1) - Fraction(1, (1 << (k - s + 1)) + a_max),
            KIND_MAX_VIOLATES, "theorem4", f"largest point with a <= {a_max}"))
    if k - 11 >= s - 1:
        rows.append(SpectrumBound(s, k, theorem5_endpoint(s, k), KIND_MIN_LIMIT,
                                  "theorem5", _CONSTANT_NOTE))
    if k >= s + 5:
        rows.append(SpectrumBound(s, k, theorem6_endpoint(s, k), KIND_MAX_LIMIT,
                                  "theorem6", _CONSTANT_NOTE))
    rows.append(SpectrumBound(s, k, theorem7_max_sk_upper(s, k), KIND_MAX_OBEYS,
                              "theorem7", "largest spectrum point is not above this"))
    rows.append(SpectrumBound(s, k, max_spectrum_candidates(s, k)[0], KIND_MAX_VIOLATES,
                              "theorem8", "largest violating point"))
    rows.append(SpectrumBound(s, k, limit_upper_endpoint(s, k), KIND_MAX_LIMIT,
                              "remark", "upper bound for the largest limit point"))
    return rows
