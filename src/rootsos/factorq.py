"""Irreducible factorization of rational polynomials.

Zassenhaus scheme on one monic integer image G of each squarefree part:
reduce G modulo the first odd prime that keeps it squarefree and factor it
there (distinct-degree then equal-degree splitting).  The rational roots
come first (R. Loos, SIAM J. Comput. 12, 1983): each linear modular factor's
root is lifted alone by p-adic Newton steps past twice Fujiwara's root
bound, and a root that divides G exactly is split off.  Only the modular
factors left over are lifted, with the cofactor, past its Landau-Mignotte
coefficient bound by quadratic Hensel steps, then recombined by trial
division over Z.  Only the factors found are mapped back to rational
polynomials.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress

from .ratpoly import Poly, long_division, squarefree_decompose
from .ratpoly import _gf_gcd, _gf_monic, _trim, _zp_divmod, _zp_reduce  # shared with gcd

#: Inputs above this degree are refused instead of silently grinding.
DEGREE_CAP = 64


class ZeroOrConstant(ValueError):
    """Factorization needs a polynomial of degree at least 1."""


class NoUsablePrime(ValueError):
    """No prime in _ODD_PRIMES keeps the integer image squarefree."""


class LiftFailure(ValueError):
    """Modular factors are not pairwise coprime: a broken invariant, since the
    factors of a squarefree image mod p always are; nothing retries it."""


class DegreeTooLarge(ValueError):
    """Input degree exceeds DEGREE_CAP."""


@dataclass(frozen=True)
class IrreducibleFactorization:
    """unit * prod(p**e) equals the input exactly; p monic irreducible."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def reconstruct(self) -> Poly:
        out = Poly.constant(self.unit)
        for p, e in self.factors:
            out = out * p**e
        return out


def _odd_primes_to(limit: int) -> tuple[int, ...]:
    """The odd primes up to ``limit``, by the sieve of Eratosthenes."""
    prime = bytearray([1]) * (limit + 1)
    for n in range(3, math.isqrt(limit) + 1, 2):
        prime[n * n :: 2 * n] = bytes(len(range(n * n, limit + 1, 2 * n)))
    return tuple(compress(range(3, limit + 1, 2), prime[3::2]))


#: The primes the factorizer tries, in order: the first 200 odd primes.
_ODD_PRIMES = _odd_primes_to(1229)


# ---------------------------------------------------------------------------
# integer / modular coefficient-list helpers (ascending order, trimmed)
#
# Inputs may hold any integers; outputs are canonical representatives in
# [0, m).  Products and long division sum their partial products in plain
# integers and reduce each output coefficient once, not after every partial
# product.
# ---------------------------------------------------------------------------


def _deg(c: list[int]) -> int:
    return len(c) - 1


def _zp_add(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    """a + sign*b modulo m (sign is 1 or -1)."""
    out = [0] * max(len(a), len(b))
    out[: len(a)] = a
    for i, x in enumerate(b):
        out[i] = (out[i] + sign * x) % m
    return _trim(out)


def _zp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _zp_reduce(out, m)


def _zp_prod(factors, m: int) -> list[int]:
    out = [1]
    for c in factors:
        out = _zp_mul(out, c, m)
    return out


def _gf_gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g (monic) over GF(p)."""
    r0, r1 = _zp_reduce(a, p), _zp_reduce(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_add(s0, _zp_mul(q, s1, p), p, -1)
        t0, t1 = t1, _zp_add(t0, _zp_mul(q, t1, p), p, -1)
    inv = pow(r0[-1], -1, p)
    scale = lambda c: [(x * inv) % p for x in c]
    return scale(r0), scale(s0), scale(t0)


def _gf_eval(a: list[int], x: int, p: int) -> int:
    """a(x) modulo p, by Horner."""
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _zp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _zp_divmod(_zp_mul(result, base, p), f, p)[1]
        base = _zp_divmod(_zp_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _z_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    rem = list(a)
    quo = long_division(rem, b, lambda c: c)
    return _trim(quo), _trim(rem[: len(b) - 1])


def _symmetric(c: list[int], m: int) -> list[int]:
    half = m // 2
    return _trim([((x % m) - m) if (x % m) > half else (x % m) for x in c])


# ---------------------------------------------------------------------------
# rational <-> monic integer transform
# ---------------------------------------------------------------------------


def _monic_integral(f: Poly) -> tuple[list[int], int]:
    """Map f (up to a unit) to the monic integer polynomial G(x) = L^n m(x/L).

    m is the monic normalization of f and L the lcm of the denominators of
    its coefficients; roots of G are L times the roots of f.
    """
    m = f.monic()
    scale = m.den  # m = nums/L with nums[n] = L, so G_k = nums[k] * L^(n-k-1)
    out, power = [1], 1
    for v in reversed(m.nums[:-1]):
        out.append(v * power)
        power *= scale
    out.reverse()
    return out, scale


def _from_integer_factor(c: list[int], scale: int) -> Poly:
    """Inverse transform: monic integer factor C -> monic rational C(Lx)/L^deg."""
    d = _deg(c)
    return Poly.from_integers([c[k] * scale**k for k in range(d + 1)], scale**d)


def _root_bound(g: list[int]) -> int:
    """Fujiwara's bound 2*max_k ceil(|g[n-k]|**(1/k)) on the roots of the
    monic g, by integer k-th roots."""
    n = _deg(g)
    return 2 * max(_ceil_root(abs(g[n - k]), k) for k in range(1, n + 1))


def _ceil_root(a: int, k: int) -> int:
    """The least r >= 1 with r**k >= a."""
    r = 1 << -(-a.bit_length() // k)  # r**k >= a
    while r > 1 and (s := ((k - 1) * r + a // r ** (k - 1)) // k) < r:
        r = s  # integer Newton from above stops at max(1, floor(a**(1/k)))
    return r if r**k >= a else r + 1


def _mignotte_bound(g: list[int]) -> int:
    """Upper bound on coefficient magnitudes of any monic factor of g over Z."""
    norm = math.isqrt(sum(x * x for x in g)) + 1
    return (1 << _deg(g)) * norm


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def factor_mod_p(gbar: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of ``gbar``, monic and squarefree modulo the
    odd prime p, sorted by (degree, coefficients).

    Distinct-degree splitting, then equal-degree splitting of each part.  The
    linear part is split into x - a by evaluating it at every residue a; the
    parts of higher degree are split by Cantor-Zassenhaus, drawing its random
    polynomials from ``rng``.
    """
    irreducibles: list[list[int]] = []
    for part, d in _gf_distinct_degree(gbar, p):
        irreducibles.extend(_gf_equal_degree(part, d, p, rng))
    irreducibles.sort(key=lambda c: (len(c), c))
    return irreducibles


def _gf_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    out: list[tuple[list[int], int]] = []
    v = list(f)
    h = [0, 1]  # x
    d = 0
    while _deg(v) > 0:
        d += 1
        if 2 * d > _deg(v):
            out.append((v, _deg(v)))
            break
        h = _gf_powmod(h, p, v, p)
        g = _gf_gcd(_zp_add(h, [0, 1], p, -1), v, p)
        if _deg(g) > 0:
            out.append((g, d))
            v = _zp_divmod(v, g, p)[0]
            h = _zp_divmod(h, v, p)[1]
    return out


def _gf_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split a product of degree-d irreducibles (Cantor-Zassenhaus, p odd).

    For d = 1 the monic squarefree f is the product of x - a over its roots
    a in GF(p), which an evaluation at every residue finds with no random
    draw; p is at most 1229, the 200th odd prime.
    """
    n = _deg(f)
    if n == d:
        return [_gf_monic(f, p)]
    if d == 1:
        roots = []
        for a in range(p):
            if not _gf_eval(f, a, p):
                roots.append(a)
                if len(roots) == n:
                    return [[-a % p, 1] for a in roots]
        raise AssertionError(f"{len(roots)} roots modulo {p} for a split part of degree {n}")
    exponent = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if _deg(a) < 1:
            continue
        u = _gf_gcd(a, f, p)
        if not 0 < _deg(u) < n:
            u = _gf_gcd(_zp_add(_gf_powmod(a, exponent, f, p), [1], p, -1), f, p)
            if not 0 < _deg(u) < n:
                continue
        rest = _zp_divmod(f, u, p)[0]
        return _gf_equal_degree(u, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


def _lift_tree(f: list[int], facs: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Quadratic Hensel lifting of the factors of f modulo p to p**target."""
    modulus = p**target
    if len(facs) == 1:
        return [_zp_reduce(f, modulus)]
    mid = len(facs) // 2
    g, h = _lift_pair(f, _zp_prod(facs[:mid], p), _zp_prod(facs[mid:], p), p, target)
    return _lift_tree(g, facs[:mid], p, target) + _lift_tree(h, facs[mid:], p, target)


def _lift_pair(
    f: list[int], g: list[int], h: list[int], p: int, target: int
) -> tuple[list[int], list[int]]:
    """Lift f = g*h from mod p to mod p**target (g, h monic and coprime mod p)."""
    gg, s, t = _gf_gcdex(g, h, p)
    if _deg(gg) != 0:
        raise LiftFailure("modular factors are not coprime")
    level = 1
    while level < target:
        level = min(2 * level, target)
        m = p**level
        e = _zp_add(_zp_reduce(f, m), _zp_mul(g, h, m), m, -1)
        q, r = _zp_divmod(_zp_mul(s, e, m), h, m)
        g = _zp_add(g, _zp_add(_zp_mul(t, e, m), _zp_mul(q, g, m), m), m)
        h = _zp_add(h, r, m)
        if level < target:
            b = _zp_add(_zp_add(_zp_mul(s, g, m), _zp_mul(t, h, m), m), [1], m, -1)
            c, d = _zp_divmod(_zp_mul(s, b, m), h, m)
            s = _zp_add(s, d, m, -1)
            t = _zp_add(t, _zp_add(_zp_mul(t, b, m), _zp_mul(c, g, m), m), m, -1)
    return g, h


def recombine(g: list[int], lifted: list[list[int]], modulus: int, bound: int) -> list[list[int]]:
    """Monic irreducible factors over Z of the monic squarefree g, from its
    modular factors lifted modulo ``modulus`` > 2*``bound``, where ``bound``
    bounds the coefficients of every monic factor of g over Z: subset
    products in the symmetric range are trial-divided into g, after a test
    of the constant term: a true factor's divides rest(0) when that is not 0."""
    remaining = lifted
    found: list[list[int]] = []
    rest = list(g)
    size = 1
    while 2 * size <= len(remaining):
        hit = True
        while hit:
            hit = False
            for combo in combinations(range(len(remaining)), size):
                const = _symmetric([math.prod(remaining[i][0] for i in combo)], modulus)
                if rest[0] and (not const or rest[0] % const[0]):
                    continue
                cand = _symmetric(_zp_prod((remaining[i] for i in combo), modulus), modulus)
                if any(abs(x) > bound for x in cand):
                    continue
                quo, rem = _z_divmod_monic(rest, cand)
                if not rem:
                    found.append(cand)
                    rest = quo
                    remaining = [c for i, c in enumerate(remaining) if i not in combo]
                    hit = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if _deg(rest) > 0:
        found.append(rest)
    return found


def factor_over_Q(f: Poly) -> IrreducibleFactorization:
    """Factor f into monic irreducible rational polynomials with multiplicities."""
    if f.is_zero or f.degree < 1:
        raise ZeroOrConstant("factorization needs degree >= 1")
    if f.degree > DEGREE_CAP:
        raise DegreeTooLarge(f"degree {f.degree} exceeds cap {DEGREE_CAP}")

    sqf = squarefree_decompose(f)
    factors: list[tuple[Poly, int]] = []
    for part, mult in sqf.parts:
        for irr in _factor_squarefree(part):
            factors.append((irr, mult))
    factors.sort(key=lambda pe: (pe[0].degree, pe[0].coeffs))
    return IrreducibleFactorization(sqf.constant, tuple(factors))


def _factor_squarefree(part: Poly) -> list[Poly]:
    if part.degree == 1:
        return [part.monic()]
    g, scale = _monic_integral(part)
    n = _deg(g)
    # g is monic, so its image keeps its degree modulo every prime.  Primes
    # dividing its discriminant leave a square factor; x*(x - P), with P the
    # product of _ODD_PRIMES, has no usable one.
    for prime in _ODD_PRIMES:
        gbar = _zp_reduce(g, prime)
        deriv = [k * gbar[k] for k in range(1, n + 1)]
        if _deg(_gf_gcd(gbar, deriv, prime)) == 0:
            break
    else:
        raise NoUsablePrime(
            f"no usable prime: a squarefree factor of degree {n} is not "
            f"squarefree modulo any of the first {len(_ODD_PRIMES)} odd primes"
        )
    modular = factor_mod_p(gbar, prime, random.Random(f"0:{prime}:{n}"))
    # rational roots first: deflating g keeps it congruent to the product of
    # the modular factors not yet used, each simple modulo the prime
    root_bound = _root_bound(g)
    found, rest = [], []
    for c in modular:
        if len(c) == 2:
            root = _lift_root(g, -c[0] % prime, prime, root_bound)
            quo, rem = _z_divmod_monic(g, [-root, 1])
            if not rem:
                found.append([-root, 1])
                g = quo
                continue
        rest.append(c)
    if len(rest) > 1:
        bound = _mignotte_bound(g)
        target = 1
        while prime**target <= 2 * bound:
            target += 1
        lifted = _lift_tree(g, rest, prime, target)
        found += recombine(g, lifted, prime**target, bound)
    elif rest:
        found.append(g)
    return [_from_integer_factor(c, scale) for c in found]


def _lift_root(g: list[int], r: int, p: int, bound: int) -> int:
    """Lift the simple root r of g modulo p by Newton steps to a root modulo
    the first p**(2**j) above 2*bound, in the symmetric range."""
    deriv = [k * g[k] for k in range(1, len(g))]
    m = p
    while m <= 2 * bound:
        m *= m
        r = (r - _gf_eval(g, r, m) * pow(_gf_eval(deriv, r, m), -1, m)) % m
    return r - m if r > m // 2 else r
