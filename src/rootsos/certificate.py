"""Certificate data model, exact verifier, and JSON serialization.

A certificate for (f, g) is the exact identity g = sum w_i h_i^2 + q*f with
positive rational weights and deg h_i < deg f; its existence proves that g
is non-negative at every real root of f.  The file format stores every
rational bit-exactly as a "num/den" string, so verification after a
round-trip is still an exact computation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ratpoly import Poly, weighted_square_sum

FORMAT_VERSION = "sos-cert/1"

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


class ParseError(ValueError):
    """Malformed certificate text; carries a line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Certificate:
    """(f, g, weights, polys, q) with g = sum w_i polys_i^2 + q*f."""

    f: Poly
    g: Poly
    weights: tuple[Fraction, ...]
    polys: tuple[Poly, ...]
    q: Poly


@dataclass(frozen=True)
class Verdict:
    """Outcome of exact verification; falsy when invalid."""

    valid: bool
    reason: Optional[str] = None
    residual: Optional[Poly] = None

    def __bool__(self) -> bool:
        return self.valid


def verify(cert: Certificate) -> Verdict:
    """Exact check of every certificate invariant.

    Returns the first violated clause; for the identity clause the non-zero
    residual polynomial g - sum w_i h_i^2 - q*f is attached.
    """
    if len(cert.weights) != len(cert.polys):
        return Verdict(False, "weights and squares have different lengths")
    if cert.f.is_zero:
        return Verdict(False, "modulus f is zero")
    for i, w in enumerate(cert.weights):
        if w <= 0:
            return Verdict(False, f"weight {i + 1} is not positive")
    for i, h in enumerate(cert.polys):
        if not h.degree < cert.f.degree:
            return Verdict(False, f"square {i + 1} has degree >= deg f")
    residual = cert.g - weighted_square_sum(cert.weights, cert.polys) - cert.q * cert.f
    if not residual.is_zero:
        return Verdict(False, "identity g = sum w_i h_i^2 + q*f fails", residual)
    return Verdict(True)


def _poly_obj(p: Poly) -> list[str]:
    # each coefficient as str(Fraction) renders it: "n" or "n/d"
    return [f"{n}" if d == 1 else f"{n}/{d}" for n, d in p.pairs()]


def _parse_pair(text: object, where: str) -> tuple[int, int]:
    """(numerator, denominator) of a rational string, not reduced."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"{where}: expected a rational string, got {text!r}")
    num, _, den = text.partition("/")
    try:
        numerator, denominator = int(num), int(den or "1")
    except ValueError as exc:  # beyond the interpreter's int<->str digit limit
        raise ParseError(f"{where}: {exc}") from exc
    if denominator == 0:
        raise ParseError(f"{where}: zero denominator")
    return numerator, denominator


def _parse_poly(obj: object, where: str) -> Poly:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a coefficient array")
    return Poly.from_pairs(_parse_pair(c, f"{where}[{i}]") for i, c in enumerate(obj))


def serialize(cert: Certificate) -> str:
    """Render a certificate as a stable, bit-exact JSON document."""
    doc = {
        "version": FORMAT_VERSION,
        "f": _poly_obj(cert.f),
        "g": _poly_obj(cert.g),
        "q": _poly_obj(cert.q),
        "terms": [
            {"omega": str(w), "h": _poly_obj(h)}
            for w, h in zip(cert.weights, cert.polys)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def deserialize(text: str) -> Certificate:
    """Parse a serialized certificate; raises ParseError with position info."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc
    except ValueError as exc:  # a number literal beyond the int<->str digit limit
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's limit
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r} (expected {FORMAT_VERSION!r})")
    for key in ("f", "g", "q", "terms"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    terms = doc["terms"]
    if not isinstance(terms, list):
        raise ParseError("'terms' must be an array")
    weights: list[Fraction] = []
    polys: list[Poly] = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or "omega" not in term or "h" not in term:
            raise ParseError(f"terms[{i}] must be an object with 'omega' and 'h'")
        weights.append(Fraction(*_parse_pair(term["omega"], f"terms[{i}].omega")))
        polys.append(_parse_poly(term["h"], f"terms[{i}].h"))
    return Certificate(
        f=_parse_poly(doc["f"], "f"),
        g=_parse_poly(doc["g"], "g"),
        weights=tuple(weights),
        polys=tuple(polys),
        q=_parse_poly(doc["q"], "q"),
    )
