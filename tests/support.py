"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from rootsos import ratpoly
from rootsos.ratpoly import Poly, is_squarefree


def random_poly(rng: random.Random, degree: int, bound: int = 100) -> Poly:
    """Random polynomial of exactly the given degree, integer coefficients."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return Poly(coeffs + [lead])


def random_nonzero_poly(rng: random.Random, max_degree: int, bound: int = 100) -> Poly:
    return random_poly(rng, rng.randint(0, max_degree), bound)


def random_squarefree_poly(rng: random.Random, degree: int, bound: int = 100) -> Poly:
    while True:
        p = random_poly(rng, degree, bound)
        if is_squarefree(p):
            return p


def random_strictly_positive_poly(rng: random.Random, half_degree: int, bound: int = 10) -> Poly:
    """s^2 + c with c >= 1: strictly positive on all of R."""
    s = random_poly(rng, rng.randint(0, half_degree), bound)
    return s * s + Poly.constant(rng.randint(1, 4))


def odd_primes_product(count: int) -> int:
    """Product of the first ``count`` odd primes, by trial division."""
    out, n = 1, 3
    while count:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            out, count = out * n, count - 1
        n += 2
    return out


def random_irreducible(rng: random.Random) -> Poly:
    """Random monic irreducible of degree 1 or 2 (non-square discriminant)."""
    if rng.random() < 0.4:
        return Poly([Fraction(rng.randint(-8, 8)), 1])
    while True:
        b = rng.randint(-6, 6)
        c = rng.randint(-8, 8)
        disc = b * b - 4 * c
        if disc < 0:
            return Poly([c, b, 1])
        root = math.isqrt(disc)
        if root * root != disc:
            return Poly([c, b, 1])


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots, via the rational root theorem on the cleared form."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor x^k: root 0 handled below
    roots = []
    if p.coefficient(0) == 0:
        roots.append(Fraction(0))
    if not ints or len(ints) == 1:
        return roots
    lead, const = ints[-1], ints[0]
    for dn in _divisors(abs(const)):
        for dl in _divisors(abs(lead)):
            for cand in (Fraction(dn, dl), Fraction(-dn, dl)):
                if p(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def monic_integer_image(p: Poly) -> list[int]:
    """Monic integer polynomial with the same factorization shape as p."""
    m = p.monic()
    n = int(m.degree)
    scale = 1
    for c in m.coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    return [int(c * scale ** (n - k)) for k, c in enumerate(m.coeffs)]


def quartic_splits(g: list[int]) -> bool:
    """Brute-force check whether a monic integer quartic splits into two
    monic integer quadratics (undetermined coefficients over divisor pairs)."""
    g0, g1, g2, g3 = g[0], g[1], g[2], g[3]
    if g0 == 0:
        return True  # x divides
    pairs = []
    for b in _signed_divisors(g0):
        if g0 % b == 0:
            pairs.append((b, g0 // b))
    for b, d in pairs:
        s = g3  # a + c
        prod_ac = g2 - b - d
        disc = s * s - 4 * prod_ac
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for a in ((s + r) // 2, (s - r) // 2):
            c = s - a
            if a + c == s and a * c == prod_ac and a * d + b * c == g1:
                return True
    return False


def _signed_divisors(n: int) -> list[int]:
    ds = _divisors(abs(n))
    return [d for x in ds for d in (x, -x)]


def is_irreducible_by_brute_force(p: Poly) -> bool:
    """Independent spot-check: no rational root, and for degree <= 4 no
    splitting found by bounded undetermined-coefficient search."""
    deg = int(p.degree)
    if deg == 1:
        return True
    if rational_roots(p):
        return False
    if deg in (2, 3):
        return True  # would need a linear factor
    if deg == 4:
        return not quartic_splits(monic_integer_image(p))
    return True  # higher degrees: only the root screen


def grid_real_root_count(f: Poly, lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """Sign-change scan plus bisection refinement; exact rational arithmetic.

    Counts simple real roots in (lo, hi) provided they are separated by more
    than step and none falls on a grid point.
    """
    count = 0
    x = lo
    prev = f(x)
    while x < hi:
        nxt = x + step
        val = f(nxt)
        if prev == 0 or val == 0:
            raise ValueError("grid point hit a root; choose another offset")
        if (prev < 0) != (val < 0):
            a, b = x, nxt
            for _ in range(20):  # bisection keeps exactly one sign change
                mid = (a + b) / 2
                vm = f(mid)
                if vm == 0:
                    break
                if (f(a) < 0) != (vm < 0):
                    b = mid
                else:
                    a = mid
            count += 1
        prev = val
        x = nxt
    return count


def cap_packing(monkeypatch, max_bytes: int) -> list[int]:
    """Record the size in bytes of every Kronecker packing in ``ratpoly``;
    a packing larger than ``max_bytes`` fails before it is allocated."""
    sizes: list[int] = []
    pack = ratpoly._pack

    def capped(digits: list[int], width: int) -> int:
        sizes.append(len(digits) * width)
        assert sizes[-1] <= max_bytes, f"packing {len(digits)} digits of {width} bytes"
        return pack(digits, width)

    monkeypatch.setattr(ratpoly, "_pack", capped)
    return sizes
