"""Differential test of certify_nonnegative against sympy as an independent
exact oracle: sympy's real-root isolation, its root counts of g on each
isolating interval, and its gcds decide what the outcome must be."""

import random
from fractions import Fraction as F

import pytest

from rootsos.certificate import verify
from rootsos.exactify import PrecisionExhausted
from rootsos.lifting import HypothesisViolated, NotNonnegative, certify_nonnegative
from rootsos.ratpoly import Poly
from support import random_nonzero_poly, random_poly

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")


def _sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      x, domain="QQ")


def _negative_counts(f, g):
    """{monic irreducible factor p of f: (real roots of p, those where g < 0)}
    for the factors that do not divide g."""
    out = {}
    for p, _mult in f.factor_list()[1]:
        if g.rem(p).is_zero:
            continue
        negative = 0
        for (a, b), _ in p.intervals():
            while g.count_roots(a, b):  # refine until g has one sign on [a, b]
                a, b = p.refine_root(a, b, steps=1)
            negative += bool(g.eval(a) < 0)
        out[p.monic()] = (p.count_roots(), negative)
    return out


def _instance(rng):
    """f of degree <= 8 from small pieces, some squared; g random, sometimes
    positive everywhere, sometimes sharing a piece or its square with f."""
    pieces = [random_poly(rng, rng.randint(1, 3), 4) for _ in range(rng.randint(1, 3))]
    f = Poly.one()
    for p in pieces:
        e = rng.choice([1, 2])
        if f.degree + e * p.degree <= 8:
            f = f * p**e
    if f.degree < 1:
        return None
    if rng.random() < 0.3:
        s = random_nonzero_poly(rng, 2, 5)
        g = s * s + Poly.constant(rng.randint(1, 3))
    else:
        g = random_nonzero_poly(rng, 5, 6)
    share = rng.random()
    if share < 0.4:
        g = g * rng.choice(pieces) ** (1 if share < 0.25 else 2)
    return f, g


def _outcome(f, g):
    """Certify g on the roots of f, check the outcome against sympy, and
    return its name."""
    sf, sg = _sympy(f), _sympy(g)
    d = sf.gcd(sg)
    violated = d.degree() > 0 and sf.quo(d).gcd(d).degree() > 0
    counts = {} if violated else _negative_counts(sf, sg)
    negative = any(k for _real, k in counts.values())
    try:
        cert = certify_nonnegative(f, g)
    except HypothesisViolated:
        assert violated, (f, g)
        return "hypothesis"
    except NotNonnegative as exc:
        assert not violated and negative, (f, g)
        assert (exc.real, exc.negative) == counts[_sympy(exc.factor).monic()], (f, g)
        return "negative"
    except PrecisionExhausted as exc:
        pytest.fail(f"precision exhausted on f = {f}, g = {g}: {exc}")
    assert not violated and not negative, (f, g)
    assert verify(cert), (f, g)
    return "certified"


def test_certify_agrees_with_the_sympy_oracle():
    rng = random.Random(2027)
    seen = {"certified": 0, "hypothesis": 0, "negative": 0}
    while sum(seen.values()) < 300:
        instance = _instance(rng)
        if instance is not None:
            seen[_outcome(*instance)] += 1
    assert min(seen.values()) >= 30, seen


def test_certify_agrees_with_the_sympy_oracle_on_distinct_64_bit_denominators():
    # every coefficient over its own 64-bit denominator, so that each
    # division's common denominator is hundreds of bits past the largest
    rng = random.Random(2028)

    def spread(n):
        return F(n, rng.randrange(2**63, 2**64))

    def poly(degree):
        lead = rng.choice([n for n in range(-9, 10) if n])
        return Poly([spread(rng.randint(-9, 9)) for _ in range(degree)] + [spread(lead)])

    seen = {"certified": 0, "hypothesis": 0, "negative": 0}
    for _ in range(60):
        f = poly(rng.randint(2, 6))
        if rng.random() < 0.3:
            s = poly(rng.randint(0, 2))
            g = s * s + Poly.constant(spread(1))
        else:
            g = poly(rng.randint(0, 4))
        seen[_outcome(f, g)] += 1
    assert seen["certified"] >= 30 and seen["negative"] >= 10, seen
