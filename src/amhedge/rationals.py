"""Exact rational scalar used across the package.

Every price, payoff, probability and LP coefficient is an exact rational.
gmpy2's mpq is used when it is installed and fractions.Fraction otherwise;
both behave the same.  An LP (``amhedge.lp``) stores its rows in Python
ints from the moment they are added, and a solve returns its vectors as
ints over one denominator, so the backend reaches no pivot and no
certificate check; the pathwise re-checks of ``hedging`` and
``measures`` put their rationals over one common denominator
(``over_common``) and compare integers.  Floats are rejected
at the parsing boundary so no binary rounding can leak in.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Any, Iterable

try:
    from gmpy2 import mpq as _mpq

    Q = _mpq
    GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Fraction

    Q = _Fraction
    GMPY2 = False

ZERO = Q(0)
ONE = Q(1)


def rat(value: Any) -> Q:
    """Coerce an int, 'p/q' string or rational to the package scalar.

    Floats are refused: they carry binary rounding and would silently
    break the exactness guarantees.
    """
    if type(value) is Q:  # immutable, so already the package scalar
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an int or 'p/q' string")
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in {value!r}")
            return Q(int(num), d)
        return Q(int(text))
    # already a rational (mpq or Fraction)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return Q(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Any) -> str:
    """Canonical 'p/q' form with positive denominator, used in all reports."""
    q = rat(value)
    return f"{q.numerator}/{q.denominator}"


def ratio_str(num: int, den: int) -> str:
    """rat_str of num/den (den > 0), without building the rational."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def over_common(*groups: Iterable[Any]) -> tuple[list[list[int]], int]:
    """Numerators of each group of rationals over one common denominator.

    They are Python ints whatever the backend (an mpz is passed through
    int(); a Fraction's pair is read in one as_integer_ratio call), so sums
    and comparisons of them are exact integer arithmetic.
    """
    pairs = [[(int(v.numerator), int(v.denominator)) if GMPY2 else v.as_integer_ratio()
              for v in group] for group in groups]
    den = lcm(*{d for group in pairs for _, d in group})
    return [[n * (den // d) for n, d in group] for group in pairs], den
