"""Test-only oracle: ``exactlin.rat`` as it read strings before the split
reader, through ``Fraction(str)`` and, past 600 characters, a regex for
"p" / "p/q" read by halves.

Differential tests compare the current ``rat`` with this copy in value,
type and error message.
"""

import re
from fractions import Fraction

from homcert.errors import InputError

_SHORT_DIGITS = 600
_INTEGER_PARTS = re.compile(r"([-+]?)(\d+)(?:/(\d+))?")


def _int_by_halves(digits: str) -> int:
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_by_halves(digits[:-k]) * 10 ** k + _int_by_halves(digits[-k:])


def _fraction(text: str) -> Fraction:
    parts = _INTEGER_PARTS.fullmatch(text) if len(text) > _SHORT_DIGITS else None
    if parts is None:
        return Fraction(text)
    sign, num, den = parts.groups()
    n = _int_by_halves(num)
    return Fraction(-n if sign == "-" else n, _int_by_halves(den or "1"))


def _short_repr(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def rat(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            q = _fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {_short_repr(value)}") from exc
        return q.numerator if q.denominator == 1 else q
    raise InputError(f"not a rational: {_short_repr(value)}")
