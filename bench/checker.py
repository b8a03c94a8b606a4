"""Independent check of an `sos-cert/1` certificate.

Reads the JSON with the standard library and tests, in exact `Fraction`
arithmetic and without any code from `rootsos`, that

- f and g are the polynomials the instance asked about,
- every weight is positive and every square has degree < deg f,
- g - sum w_i h_i^2 - q*f is the zero polynomial.

Together these prove g >= 0 at every real root of f, so a certificate this
checker accepts is sound whatever the certifier did.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?")


def _rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _poly(items) -> list[Fraction]:
    if not isinstance(items, list):
        raise ValueError("a polynomial must be a coefficient list")
    coeffs = [_rational(c) for c in items]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _subtract(acc: list[Fraction], p: list[Fraction], scale: Fraction = Fraction(1)) -> None:
    acc.extend([Fraction(0)] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] -= scale * c


def parse(text: str):
    """(f, g, q, [(w, h), ...]) with coefficient lists in ascending powers."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("version") != "sos-cert/1":
        raise ValueError("not an sos-cert/1 document")
    terms = doc["terms"]
    if not isinstance(terms, list):
        raise ValueError("'terms' must be a list")
    pairs = [(_rational(t["omega"]), _poly(t["h"])) for t in terms]
    return _poly(doc["f"]), _poly(doc["g"]), _poly(doc["q"]), pairs


def check(text: str, f, g) -> str | None:
    """None when the certificate proves g >= 0 at the real roots of f;
    otherwise the reason it does not."""
    try:
        cf, cg, q, pairs = parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable certificate: {exc}"
    if cf != list(f) or cg != list(g):
        return "certificate is for another (f, g)"
    if not cf:
        return "f is zero"
    for i, (w, h) in enumerate(pairs):
        if w <= 0:
            return f"weight {i + 1} is not positive"
        if len(h) >= len(cf):
            return f"square {i + 1} has degree >= deg f"
    residual = list(cg)
    _subtract(residual, _mul(q, cf))
    for w, h in pairs:
        _subtract(residual, _mul(h, h), w)
    if any(residual):
        return "g - sum w_i h_i^2 - q*f is not zero"
    return None


def max_bits(text: str) -> int:
    """Largest numerator or denominator bit length over the weights, the
    squares and q (the quantity `rootsos certify` reports)."""
    _f, _g, q, pairs = parse(text)
    values = list(q)
    for w, h in pairs:
        values.append(w)
        values.extend(h)
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )
