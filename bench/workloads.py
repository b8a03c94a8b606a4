"""Seeded instances for the four benchmark workloads.

Each instance carries the exit code `rootsos certify` must return, and that
code follows from how the instance is built, never from the certifier.
Polynomials are built here with plain `Fraction` lists (ascending powers)
so that the expected coefficients of f and g do not come from the code
under test.  The instance *shape* of every workload is fixed (degrees,
multiplicities, kinds); the seed draws the coefficients, roots and
constants.  Fixing the shape keeps the size of a workload's work, and so
its timing and certificate size, steady across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NEGATIVE = 3

Coeffs = tuple[Fraction, ...]


@dataclass(frozen=True)
class Instance:
    """One certify call: expressions for the CLI and the expected verdict."""

    id: str
    f_expr: str
    g_expr: str
    f: Coeffs
    g: Coeffs
    expect: int


# -- exact polynomial helpers (ascending coefficient lists) ----------------


def _trim(c) -> Coeffs:
    c = [Fraction(x) for x in c]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def mul(a, b) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def power(a, e: int) -> Coeffs:
    out: Coeffs = (Fraction(1),)
    for _ in range(e):
        out = mul(out, a)
    return out


def add(a, b) -> Coeffs:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def product(polys) -> Coeffs:
    out: Coeffs = (Fraction(1),)
    for p in polys:
        out = mul(out, p)
    return out


def evaluate(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def xpow(n: int) -> Coeffs:
    return _trim([0] * n + [1])


# -- rendering in the CLI's expression syntax -------------------------------


def expr(a) -> str:
    """Expanded form, descending powers: 3*x^5 - 1/2*x + 7."""
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        mag = abs(c)
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not terms:
            terms.append(f"-{body}" if c < 0 else body)
        else:
            terms.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(terms) if terms else "0"


def factored(parts) -> str:
    """Product form (p1)^e1*(p2)*... from (coeffs, exponent) pairs."""
    out = []
    for p, e in parts:
        out.append(f"({expr(p)})" + (f"^{e}" if e > 1 else ""))
    return "*".join(out)


def _instance(iid: str, f_parts, g, expect: int, expanded: bool) -> Instance:
    f = product(power(p, e) for p, e in f_parts)
    f_expr = expr(f) if expanded else factored(f_parts)
    return Instance(iid, f_expr, expr(g), f, _trim(g), expect)


# -- building blocks --------------------------------------------------------


def positive(rng: random.Random) -> Coeffs:
    """(x + b)^2 + k with b in {-2, -1, 1, 2} and k in 1..3: at least 1 on
    the real line.  The odd term is always present; an even g halves the
    certificate of an even f, which would make the sizes follow the draw."""
    b = rng.choice([-2, -1, 1, 2])
    return _trim([b * b + rng.randint(1, 3), 2 * b, 1])


def eisenstein(rng: random.Random, n: int) -> Coeffs:
    """Dense degree-n polynomial, irreducible (hence squarefree) by
    Eisenstein's criterion at 2: odd leading coefficient 15-21, even middle
    coefficients in {-2, 0, 2}, constant 2 * odd.  With a small leading
    coefficient the roots' conditioning, and so the certificate size, varies
    twofold from draw to draw; with this one it stays within ten per cent."""
    const = 2 * rng.choice([-3, -1, 1, 3])
    middle = [2 * rng.randint(-1, 1) for _ in range(n - 1)]
    return _trim([const] + middle + [rng.choice([15, 17, 19, 21])])


def binomial(n: int, c: int) -> Coeffs:
    """x^n - c; irreducible for prime c by Eisenstein."""
    return add(xpow(n), (-c,))


def no_real_root_quadratic(rng: random.Random) -> Coeffs:
    while True:
        b, c = rng.randint(-6, 6), rng.randint(1, 12)
        if b * b < 4 * c:
            return _trim([c, b, 1])


def distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    seen: set[Fraction] = set()
    out = []
    while len(out) < count:
        r = Fraction(rng.randint(-24, 24), rng.choice([1, 1, 2, 3]))
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def linear(root: Fraction) -> Coeffs:
    """(den*x - num), the primitive integer linear factor with this root."""
    return _trim([-root.numerator, root.denominator])


PRIMES = (2, 3, 5, 7)


def iroot(n: int, k: int) -> int:
    """Largest integer m >= 0 with m**k <= n."""
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


# -- workloads --------------------------------------------------------------
#
# Each generator returns one fixed-shape instance set; the benchmark cycles
# through it for the length of a run.

DENSE_SHAPE = (("binomial", 12), ("dense", 14), ("binomial", 16), ("dense", 18),
               ("binomial", 20), ("dense", 22), ("binomial", 24))


def dense_sqf(seed: int) -> list[Instance]:
    """Squarefree f of degree 12-24 with g > 0 on R: one big Gram matrix."""
    rng = random.Random(f"dense_sqf/{seed}")
    out = []
    for i, (kind, n) in enumerate(DENSE_SHAPE):
        f = binomial(n, rng.choice(PRIMES)) if kind == "binomial" else eisenstein(rng, n)
        out.append(_instance(f"dense_sqf/{seed}/{i}-{kind}{n}", [(f, 1)],
                             positive(rng), EXIT_OK, expanded=True))
    return out


SPLIT_SHAPE = ((16, 1), (20, 2), (24, 1), (28, 2), (32, 3))


def split_linear(seed: int) -> list[Instance]:
    """16-32 distinct rational linear factors plus a few quadratics without
    real roots, shuffled, in product form; g > 0 on R."""
    rng = random.Random(f"split_linear/{seed}")
    out = []
    for i, (m, quads) in enumerate(SPLIT_SHAPE):
        parts = [(linear(r), 1) for r in distinct_rationals(rng, m)]
        qs: list[Coeffs] = []
        while len(qs) < quads:
            q = no_real_root_quadratic(rng)
            if q not in qs:
                qs.append(q)
        parts += [(q, 1) for q in qs]
        rng.shuffle(parts)
        out.append(_instance(f"split_linear/{seed}/{i}-lin{m}+quad{quads}", parts,
                             positive(rng), EXIT_OK, expanded=False))
    return out


# The deep lifts are fixed polynomials.  Their cost is heavy-tailed in g:
# x^2(x^2-3)^9 took 0.05-3.7 s over ten small g, so a seeded g would make
# the tail percentiles follow the draw rather than the code.
# (name, a, factor, exponent, positive part of g)
HENSEL_FIXED = (
    ("x^2-2", 2, (-2, 0, 1), 8, (1, 1, 1)),   # x^2 (x^2 - 2)^8, g = x^2 (x^2 + x + 1)
    ("x^2-2", 2, (-2, 0, 1), 9, (1, 1, 1)),
    ("x^2-3", 2, (-3, 0, 1), 8, (1, -1, 1)),  # x^2 (x^2 - 3)^8, g = x^2 (x^2 - x + 1)
    ("x^2-3", 2, (-3, 0, 1), 9, (1, -1, 1)),
    ("x^3-2", 1, (-2, 0, 0, 1), 8, (1, 1, 1)),  # x (x^3 - 2)^8, g = x (x^2 + x + 1)
)


def lift_mult(seed: int) -> list[Instance]:
    """f = x^a * prod p_i^e_i, g = x^a * (positive): the gcd part is
    non-trivial, and the Hensel lift, Bezout reduction and CRT do the work.

    Every real root of f/x^a is positive, so g >= 0 at the real roots of f
    for odd a too; each p_i is irreducible with a real root, so none divides
    the positive part of g and the gcd hypothesis holds.  Each fixed
    quadratic appears at e = 8 and e = 9, where the Newton lift jumps from
    p^8 to p^16.  Cubics stay at e <= 8: at e = 9 the cubic costs tens of
    seconds (x(x^3-2)^9), which no timed run can afford.
    """
    rng = random.Random(f"lift_mult/{seed}")
    shapes = [(f"{name}^{e}", a, [(_trim(p), e)], _trim(pos))
              for name, a, p, e, pos in HENSEL_FIXED]
    # the seed draws small roots and constants; exponents and x^a are fixed
    # per slot, because the lift's cost grows steeply with both
    lin_a, lin_b, lin_c = (_trim([-k, 1]) for k in rng.sample(range(1, 6), 3))
    cubic = binomial(3, rng.choice(PRIMES[1:3]))
    u = rng.randint(2, 3)  # x^2 - 2ux + u^2 - 2 has the roots u +- sqrt(2) > 0
    shifted = _trim([u * u - 2, -2 * u, 1])
    seeded = [
        ("lin^7*lin^3", 1, [(lin_a, 7), (lin_b, 3)]),
        ("cubic^3*lin^3", 1, [(cubic, 3), (lin_c, 3)]),
        ("quad^4*lin^9", 2, [(_trim([-rng.choice(PRIMES), 0, 1]), 4), (lin_b, 9)]),
        ("shifted^3", 2, [(shifted, 3)]),
        ("lin^5*lin^4*lin^2", 1, [(lin_a, 5), (lin_b, 4), (lin_c, 2)]),
    ]
    shapes += [(name, a, parts, positive(rng)) for name, a, parts in seeded]
    out = []
    for i, (name, a, parts, positive_part) in enumerate(shapes):
        out.append(_instance(f"lift_mult/{seed}/{i}-x^{a}*{name}", [(xpow(1), a)] + parts,
                             mul(xpow(a), positive_part), EXIT_OK, expanded=False))
    return out


def _near_boundary(rng: random.Random, n: int, digits: int) -> tuple[Coeffs, Coeffs]:
    """f = x^n - c, g = x^2 - r with 0 < c^(2/n) - r <= 2*10^-digits.  For
    prime c and even n >= 4, c^(2/n) is irrational, and r^n < c^2."""
    c = rng.choice(PRIMES[:3])
    scale = 10**digits
    m = iroot(c * c * scale**n, n)  # floor(c^(2/n) * scale)
    r = Fraction(m - rng.randint(0, 1), scale)
    return binomial(n, c), add(xpow(2), (-r,))


# Five slots of 0.1-0.3 s and four of a few milliseconds, so that the
# median falls inside the slower group rather than in the gap between them.
REFUTE_SHAPE = (("near", 8), ("hypothesis", 0), ("neg_binomial", 10),
                ("neg_rational", 0), ("neg_binomial", 12), ("near", 10),
                ("hypothesis", 0), ("neg_binomial", 14), ("neg_rational", 0))


def refute(seed: int) -> list[Instance]:
    """Refusals (exit 2 and 3) and near-boundary positives (exit 0)."""
    rng = random.Random(f"refute/{seed}")
    out = []
    for i, (kind, n) in enumerate(REFUTE_SHAPE):
        if kind == "near":
            # a margin of 1e-20: the first two precisions are not enough,
            # the third is (the fourth and last would be reached near 1e-32)
            f, g = _near_boundary(rng, n, 20)
            inst = _instance("", [(f, 1)], g, EXIT_OK, expanded=True)
        elif kind == "hypothesis":
            # (x-a)^k divides g exactly, (x-a)^e divides f with e > k: the
            # gcd d and f/d share x - a
            root = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
            e = rng.randint(2, 4)
            k = rng.randint(1, e - 1)
            rest = eisenstein(rng, rng.randint(6, 10))
            g = mul(power(linear(root), k), positive(rng))
            inst = _instance("", [(linear(root), e), (rest, 1)], g, EXIT_HYPOTHESIS,
                             expanded=True)
        elif kind == "neg_rational":
            # g(a) = -c < 0 at the rational root a of f
            root = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            s = [rng.randint(-4, 4) for _ in range(3)]
            g = add(mul(s, s), (-(evaluate(s, root) ** 2) - rng.randint(1, 5),))
            rest = binomial(rng.choice([6, 8, 10]), rng.choice(PRIMES))
            inst = _instance("", [(linear(root), 1), (rest, 1)], g, EXIT_NEGATIVE,
                             expanded=True)
        else:
            # x^n - c with n even has the root -c^(1/n) < -1, where g = x - 1 < 0;
            # c = 2 is left out because it runs 20 % faster than 3, 5 and 7,
            # and one of these slots is the workload's median
            inst = _instance("", [(binomial(n, rng.choice(PRIMES[1:])), 1)], (-1, 1),
                             EXIT_NEGATIVE, expanded=True)
        out.append(Instance(f"refute/{seed}/{i}-{kind}{n or ''}", inst.f_expr,
                            inst.g_expr, inst.f, inst.g, inst.expect))
    return out


WORKLOADS = {
    "dense_sqf": dense_sqf,
    "split_linear": split_linear,
    "lift_mult": lift_mult,
    "refute": refute,
}
