import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rootsos import ratpoly
from rootsos.ratpoly import (
    NEG_INF,
    BothZero,
    DivisionByZeroPoly,
    NotSquarefree,
    Poly,
    ZeroPolynomial,
    extended_gcd,
    gcd,
    norm2_squared,
    root_exponent,
    sqrt_upper_bound,
    squarefree_decompose,
    sturm_real_root_count,
    tarski_query,
    weighted_square_sum,
)
from support import cap_packing, grid_real_root_count, random_nonzero_poly, random_poly

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)  # x^3 - 2


def test_zero_degree_sentinel():
    assert Poly().degree == NEG_INF
    assert Poly().degree < -(10**9)
    assert Poly([0, 0]).is_zero
    assert Poly([1]).degree == 0


def test_rem_trivial():
    assert (X**3) % F_CUBE == Poly.constant(2)


def test_mul_trivial():
    assert (X - Poly.one()) * (X + Poly.one()) == X**2 - Poly.one()


def test_divrem_hand_oracle():
    # long division by hand: 0.1x^3 + x = (1/10)(x^3 - 2) + (x + 1/5)
    a = Poly([0, 1, 0, F(1, 10)])
    q, r = divmod(a, F_CUBE)
    assert q == Poly.constant(F(1, 10))
    assert r == Poly([F(1, 5), 1])


def test_divrem_by_zero():
    with pytest.raises(DivisionByZeroPoly):
        divmod(X, Poly.zero())


coeffs_strategy = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=0, max_size=9
)


@settings(max_examples=120, deadline=None)
@given(coeffs_strategy, coeffs_strategy)
def test_divrem_reconstruction(ac, bc):
    a, b = Poly(ac), Poly(bc)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def long_division(a, b):
    """Quotient and remainder coefficient lists of a / b by schoolbook long
    division, one Fraction operation at a time; b[-1] must be non-zero."""
    rem = [F(c) for c in a]
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / F(b[-1])
        quo[k] = c
        for i, v in enumerate(b):
            rem[k + i] -= c * F(v)
    return quo, rem


# small and shared denominators, distinct 64-bit ones, multi-word integers
# and zeros
division_coeffs = st.one_of(
    st.just(0),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.builds(F, st.integers(min_value=-(2**64), max_value=2**64), st.integers(1, 2**64)),
)
nonzero_division_coeffs = division_coeffs.filter(bool)
MERSENNE_PRIMES = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]
# coefficients over four pairwise coprime denominators: a common denominator
# 257 bits past the largest, which every coefficient of the integer loop carries
spread_coeffs = st.lists(st.integers(-99, 99), max_size=14).map(
    lambda ns: [F(n, MERSENNE_PRIMES[i % 4]) for i, n in enumerate(ns)]
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.lists(division_coeffs, max_size=14), spread_coeffs),
    st.lists(division_coeffs, max_size=7),
    st.one_of(st.integers(2, 2**70), st.integers(-(2**70), -1), nonzero_division_coeffs),
)
def test_divmod_matches_long_division(ac, bc, lead):
    # the divisor's own leading coefficient is drawn apart so that it is
    # rarely 1 and its integer numerator rarely divides the dividend's
    a, b = Poly(ac), Poly(bc + [lead])
    q, r = divmod(a, b)
    quo, rem = long_division(a.coeffs, b.coeffs)
    assert q == Poly(quo)
    assert r == Poly(rem)
    assert q * b + r == a


def test_divmod_matches_long_division_on_spread_and_skewed_denominators():
    rng = random.Random(38)
    spread = [F(rng.randrange(-(2**64), 2**64), rng.randrange(1, 2**64)) for _ in range(40)]
    eight = [rng.randrange(2**31, 2**32) for _ in range(8)]

    def over_eight(n):  # n coefficients over 8 different 32-bit denominators, then 1
        return Poly([F(rng.randrange(1, 99), eight[i % 8]) for i in range(n)] + [1])

    cases = [
        (Poly(spread[:39]), Poly(spread[39:] + spread[:37])),  # lcm ~2,500 bits, 2 steps
        (Poly(spread[:39]), Poly([-7, 13])),  # only the dividend's lcm is large
        (over_eight(10), over_eight(10)),  # lcm ~220 bits past the largest, 1 step
        (over_eight(20), over_eight(10)),  # the same, 11 steps
        (Poly([F(k, 2 ** (k % 9)) for k in range(1, 30)]), Poly([F(1, 4), F(3, 16), 1])),
        (Poly([F(1, 2**400), F(3, 2**399), 1]), Poly([F(5, 2**398), 1])),  # lcm is the largest
        (Poly([F(k, 12) for k in range(-9, 30)]), Poly([F(1, 4), 0, 3])),
        (Poly(range(1, 60)), Poly([F(-7, 13), 1])),
        (Poly(range(1, 60)), Poly([5, -3, 2**200 + 1])),
        (Poly([F(7 * k + 1, 7**20) for k in range(29)]), Poly([F(3**30, 7**20), F(2**40 + 1, 7**20), 5])),
    ]
    for a, b in cases:
        quo, rem = long_division(a.coeffs, b.coeffs)
        assert divmod(a, b) == (Poly(quo), Poly(rem))


def test_long_division_skips_zero_steps_and_leaves_the_remainder_in_place():
    rem = [F(1), F(0), F(0), F(0), F(2)]  # 2x^4 + 1 = (2x^2 + 2)(x^2 - 1) + 3
    quo = ratpoly.long_division(rem, (F(-1), F(0), F(1)), lambda c: c)
    assert quo == [2, 0, 2] and type(quo[1]) is int  # the x^3 step is skipped
    assert rem[:2] == [3, 0]


def test_divmod_by_a_longer_divisor_returns_the_dividend():
    a = Poly([F(1, 3), 0, 5])
    assert divmod(a, X**3 + Poly.constant(F(1, 7))) == (Poly.zero(), a)
    assert divmod(Poly.zero(), X) == (Poly.zero(), Poly.zero())


def test_gcd_examples():
    assert gcd(F_CUBE, X) == Poly.one()
    assert gcd(X * F_CUBE**2, X**3) == X
    assert gcd(X**2 - Poly.one(), X - Poly.one()) == X - Poly.one()


GCD_PRIME = 2**61 - 1


def euclid_gcd(a, b):
    """Monic gcd by the Euclidean remainder sequence over Q."""
    while b:
        a, b = b, Poly(long_division(a.coeffs, b.coeffs)[1])
    return a.monic()


def test_gcd_coprime_over_q_but_equal_modulo_the_prime():
    # x and x + p have the same image modulo p, which decides nothing
    assert gcd(X, X + Poly.constant(GCD_PRIME)) == Poly.one()
    assert gcd(X * (X - Poly.one()), X + Poly.constant(GCD_PRIME)) == Poly.one()


def test_gcd_prime_divides_a_leading_coefficient():
    # p*x + 1 is the constant 1 modulo p, so the images x and x + 1 of
    # d*x and d*(x + 1) are coprime modulo p although d divides both
    d = Poly([1, GCD_PRIME])
    assert gcd(d * X, d * (X + Poly.one())) == d.monic()
    assert gcd(d, X) == Poly.one()


def test_gcd_prime_divides_a_denominator():
    d = Poly([F(1, GCD_PRIME), 1])
    assert gcd(d * X, d * (X + Poly.one())) == d
    assert gcd(d, X) == Poly.one()


def test_gcd_of_pairs_with_a_common_factor_matches_euclid():
    rng = random.Random(20261018)
    for _ in range(60):
        common = random_poly(rng, rng.randint(1, 6), 30)
        a = common * random_nonzero_poly(rng, 8, 30)
        b = common * random_nonzero_poly(rng, 8, 30) * Poly.constant(F(rng.randint(1, 9), 7))
        assert gcd(a, b) == euclid_gcd(a, b)
    assert gcd(Poly.zero(), X * 3 + Poly.one()) == X + Poly.constant(F(1, 3))
    assert gcd(Poly.constant(F(2, 3)), X) == Poly.one()


def test_gcd_of_a_coprime_pair_does_no_division(monkeypatch):
    rng = random.Random(30)
    pairs = [(random_poly(rng, 30, 10**6), random_poly(rng, 30, 10**6)) for _ in range(5)]
    pairs.append((Poly([F(k + 1, k + 2) for k in range(31)]), X**25 - Poly.constant(F(1, 3))))
    assert all(euclid_gcd(a, b) == Poly.one() for a, b in pairs)
    divisions = []
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: divisions.append(1))
    for a, b in pairs:
        assert gcd(a, b) == Poly.one()
    assert divisions == []


def test_gcd_runs_without_factorq():
    # the GF(p) gcd lives in ratpoly; a bare package shell keeps rootsos's
    # __init__ (which imports every module) from loading factorq itself
    code = (
        "import sys, types\n"
        f"shell = types.ModuleType('rootsos'); shell.__path__ = [{os.path.dirname(ratpoly.__file__)!r}]\n"
        "sys.modules['rootsos'] = shell\n"
        "from rootsos.ratpoly import Poly, gcd\n"
        "x = Poly.x()\n"
        "assert gcd(x**3 - Poly.constant(2), x**2 + Poly.one()) == Poly.one()\n"
        "assert gcd(x**2 - Poly.one(), x**2 + x) == x + Poly.one()\n"
        "print('rootsos.factorq' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        gcd(Poly.zero(), Poly.zero())
    with pytest.raises(BothZero):
        extended_gcd(Poly.zero(), Poly.zero())


def test_extended_gcd_examples():
    assert extended_gcd(X, X - Poly.one()) == (Poly.one(), Poly.one(), -Poly.one())
    assert extended_gcd(F_CUBE, Poly.one()) == (Poly.one(), Poly.zero(), Poly.one())
    # modular inverse oracle: t*x^2 = 1 mod (x^3-2)^2
    g, s, t = extended_gcd(F_CUBE**2, X**2)
    assert g == Poly.one()
    assert ((t * X**2) % (F_CUBE**2)) == Poly.one()


@pytest.mark.parametrize(
    "p", [3 * X**2 - Poly.constant(2), Poly.constant(F(-2, 7))], ids=["quadratic", "constant"]
)
def test_extended_gcd_with_one_zero_argument(p):
    # the gcd of p and 0 is p made monic, with the cofactor 1/lc(p) on p
    for a, b in ((Poly.zero(), p), (p, Poly.zero())):
        g, s, t = extended_gcd(a, b)
        assert g == p.monic()
        assert s * a + t * b == g


def test_extended_gcd_random_bezout():
    rng = random.Random(20240811)
    for _ in range(250):
        a = random_nonzero_poly(rng, 20, 40)
        b = random_nonzero_poly(rng, 20, 40)
        g, s, t = extended_gcd(a, b)
        assert s * a + t * b == g
        assert g.leading_coefficient == 1
        assert (a % g).is_zero and (b % g).is_zero
        # canonical minimal-degree cofactors (whenever satisfiable)
        if b.degree > g.degree:
            assert s.degree < b.degree - g.degree
        if a.degree > g.degree:
            assert t.degree < a.degree - g.degree


C = Poly.constant


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((X**2 + Poly.one()) * (X - C(3)), X**2 + Poly.one(),
         (X**2 + Poly.one(), Poly.zero(), Poly.one())),
        (X - C(2), (X - C(2)) * (X**2 + X + Poly.one()), (X - C(2), Poly.one(), Poly.zero())),
        (C(F(3, 2)) * (X**2 - C(2)), X**2 - C(2), (X**2 - C(2), Poly.zero(), Poly.one())),
        (C(4), C(6), (Poly.one(), Poly.zero(), C(F(1, 6)))),
        (C(5), X**2 + Poly.one(), (Poly.one(), C(F(1, 5)), Poly.zero())),
        (2 * X**3 - X, C(F(-1, 7)), (Poly.one(), Poly.zero(), C(-7))),
        ((X - Poly.one()) * (X**2 + C(2)), (X - Poly.one()) * (3 * X + Poly.one()),
         (X - Poly.one(), C(F(9, 19)), Poly([F(1, 19), F(-3, 19)]))),
    ],
    ids=["b-divides-a", "a-divides-b", "a-is-c-times-b", "two-constants",
         "constant-and-poly", "poly-and-constant", "common-factor"],
)
def test_extended_gcd_divisibility_edges(a, b, expected):
    # the unique cofactors within the degree bounds, pinned
    g, s, t = extended_gcd(a, b)
    assert (g, s, t) == expected
    assert s * a + t * b == g
    if b.degree > g.degree:
        assert s.degree < b.degree - g.degree
    if a.degree > g.degree:
        assert t.degree < a.degree - g.degree


def test_squarefree_examples():
    dec = squarefree_decompose(X * F_CUBE**2)
    assert dec.parts == ((X, 1), (F_CUBE, 2))
    assert squarefree_decompose(F_CUBE).parts == ((F_CUBE, 1),)
    expanded = (X - Poly.one()) ** 2 * (X + Poly.one()) ** 3
    assert squarefree_decompose(expanded).parts == (
        (X - Poly.one(), 2),
        (X + Poly.one(), 3),
    )


def test_squarefree_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        squarefree_decompose(Poly.zero())


def test_squarefree_reconstruction_random():
    rng = random.Random(7)
    for _ in range(120):
        f = random_nonzero_poly(rng, 4, 8)
        if f.is_zero:
            continue
        g = random_nonzero_poly(rng, 3, 8)
        h = (f * f * g) if not g.is_zero else f
        dec = squarefree_decompose(h)
        assert dec.reconstruct() == h
        factors = [p for p, _ in dec.parts]
        for p in factors:
            assert p.leading_coefficient == 1
            assert gcd(p, p.derivative()).degree == 0
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert gcd(factors[i], factors[j]).degree == 0


def test_sturm_examples():
    assert sturm_real_root_count(F_CUBE) == 1
    assert sturm_real_root_count(X**2 + Poly.one()) == 0
    three = (X - Poly.constant(1)) * (X - Poly.constant(2)) * (X - Poly.constant(3))
    assert sturm_real_root_count(three) == 3


def test_sturm_requires_squarefree():
    with pytest.raises(NotSquarefree):
        sturm_real_root_count((X - Poly.one()) ** 2)


def test_tarski_query_vs_exact_signs():
    # f splits over Q, optionally times an irreducible quadratic with no real
    # root, so sum sign q(r) over the rational roots r is the exact answer
    rng = random.Random(7)
    half_grid = [F(n, 2) for n in range(-12, 13)]
    checked = 0
    while checked < 80:
        roots = rng.sample(half_grid, rng.randint(1, 5))
        f = Poly.one()
        for r in roots:
            f = f * (X - Poly.constant(r))
        if rng.random() < 0.5:
            f = f * Poly([rng.randint(5, 9), rng.randint(-4, 4), 1])  # disc < 0
        q = random_nonzero_poly(rng, 6, 9)
        if gcd(f, q).degree > 0:
            continue
        signs = [(q(r) > 0) - (q(r) < 0) for r in roots]
        assert tarski_query(f, q) == sum(signs)
        assert tarski_query(f, -q) == -sum(signs)
        assert tarski_query(f, q * q) == tarski_query(f) == len(roots)
        checked += 1


def test_tarski_query_rejects_a_shared_factor():
    f = (X - Poly.one()) * (X - Poly.constant(2)) * (X**2 + Poly.one())
    for q in [(X - Poly.constant(2)) * (X + Poly.constant(5)), X**2 + Poly.one(), f]:
        with pytest.raises(NotSquarefree):
            tarski_query(f, q)
    with pytest.raises(NotSquarefree):
        tarski_query((X - Poly.one()) ** 2 * X, X + Poly.one())


def test_sturm_vs_grid_scan():
    rng = random.Random(99)
    half_grid = [F(n, 2) for n in range(-20, 21)]
    for _ in range(60):
        k = rng.randint(0, 4)
        roots = rng.sample(half_grid, k)
        f = Poly.one()
        for r in roots:
            f = f * (X - Poly.constant(r))
        if rng.random() < 0.5:
            b = rng.randint(-3, 3)
            c = rng.randint(b * b // 4 + 1, b * b // 4 + 9)  # disc < 0
            f = f * Poly([c, b, 1])
        assert sturm_real_root_count(f) == k
        # independent oracle: exact sign-change scan with bisection refinement
        scanned = grid_real_root_count(f, F(-43, 4) - F(1, 8), F(43, 4), F(1, 4))
        assert scanned == k


def test_norm2_squared_examples():
    assert norm2_squared(F_CUBE) == 5
    assert norm2_squared(Poly.zero()) == 0
    assert norm2_squared(Poly([F(3, 10), F(-2, 5)])) == F(1, 4)


def test_product_norm_bound():
    # ||p*f||^2 <= ((deg p + 1) ||p|| ||f||)^2, checked exactly
    rng = random.Random(5)
    for _ in range(200):
        p = random_nonzero_poly(rng, 6, 30)
        f = random_nonzero_poly(rng, 6, 30)
        if p.is_zero or f.is_zero:
            continue
        d = int(p.degree)
        assert norm2_squared(p * f) <= (d + 1) ** 2 * norm2_squared(p) * norm2_squared(f)


def test_sqrt_upper_bound():
    for r in (F(0), F(2), F(5), F(1, 3), F(10**12, 7)):
        ub = sqrt_upper_bound(r)
        assert ub * ub >= r
        if r > 0:
            assert (ub * ub - r) / r < F(1, 10**18)
    with pytest.raises(ValueError):
        sqrt_upper_bound(F(-1))


def _rounded_root_exponent(f, bits):
    """The root exponent from mpmath's frexp of the monic coefficients of f,
    each rounded to ``bits``."""
    with mp.workprec(bits):
        cs = [mp.mpf(c.numerator) / c.denominator for c in f.coeffs]
        return max(((mp.frexp(c / cs[-1])[1] - 1) // (len(cs) - 1 - j)
                    for j, c in enumerate(cs[:-1]) if c), default=0)


def _random_scaled_poly(rng):
    """Sparse rational coefficients at one random scale 2^s, |s| <= 300."""
    scale = F(2) ** rng.randint(-300, 300)
    coeffs = [F(rng.choice([0, rng.randint(-(10**20), 10**20)]), rng.randint(1, 10**6)) * scale
              for _ in range(rng.randint(1, 12))]
    return Poly(coeffs + [F(rng.randint(1, 10**6), rng.randint(1, 10**6))])


def test_root_exponent_matches_the_rounded_rule():
    rng = random.Random(33)
    for _ in range(2000):
        f = _random_scaled_poly(rng)
        assert root_exponent(f.nums) == _rounded_root_exponent(f, 106)
    assert root_exponent([5]) == 0 and root_exponent([0, 0, 3]) == 0  # no lower coefficient


def test_root_exponent_is_exact_below_a_power_of_two():
    f = X - Poly.constant(2**107 - 1)
    assert root_exponent(f.nums) == 106
    assert _rounded_root_exponent(f, 106) == 107  # 2^107 - 1 rounds up to 2^107
    assert root_exponent((X - Poly.constant(F(2**107 - 1, 2**300))).nums) == 106 - 300
    # a ratio 1 - 2^-108 of two numerators of equal length: floor is -1
    g = (2**108 - 1) * X - Poly.constant(2**108 - 2)
    assert root_exponent(g.nums) == -1 and _rounded_root_exponent(g, 106) == 0


def test_root_exponent_bounds_every_root():
    # roots known exactly: rational ones and pairs a +- bi, at scales 2^s
    rng = random.Random(2026)
    for _ in range(300):
        scale = F(2) ** rng.choice([-300, -40, 0, 40, 300])
        f, moduli = Poly.constant(F(rng.randint(1, 99), rng.randint(1, 99))), []
        for _ in range(rng.randint(1, 6)):
            a = F(rng.randint(-999, 999), rng.randint(1, 99)) * scale
            if rng.random() < 0.5:
                f, moduli = f * (X - Poly.constant(a)), moduli + [a * a]
            else:
                b = F(rng.randint(1, 999), rng.randint(1, 99)) * scale
                f = f * Poly([a * a + b * b, -2 * a, 1])
                moduli.append(a * a + b * b)
        k, n = root_exponent(f.nums), int(f.degree)
        assert max(moduli) <= F(4) ** (k + 2)  # |root|^2 <= (2^(k+2))^2
        # and not loose: every |a_j/a_n| <= C(n, n-j)*R^(n-j) <= (n*R)^(n-j)
        assert F(4) ** k <= n * n * max(moduli)


def test_poly_pow_and_eval():
    p = (X + Poly.one()) ** 3
    assert p == Poly([1, 3, 3, 1])
    assert p(F(1, 2)) == F(27, 8)
    assert Poly([F(1, 3), 1])(F(-1, 3)) == 0
    # the integer evaluation at rational points against Fraction Horner
    rng = random.Random(31)
    for _ in range(200):
        p = Poly(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rng.randint(0, 12)))
        point = F(rng.randint(-30, 30), rng.randint(1, 9)) if rng.random() < 0.8 else rng.randint(-5, 5)
        assert p(point) == ratpoly.horner(p.coeffs, F(point))


def convolve(a, b):
    """Schoolbook product of two coefficient lists in Fraction arithmetic."""
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += F(x) * F(y)
    return out


# zeros anywhere, mixed denominators, negatives, multi-word integers, and the
# largest digits of 1- to 4-byte signed widths with their neighbours
packing_edges = [
    sign * (2 ** (8 * w - 1) + off) for w in (1, 2, 3, 4) for off in (-1, 0) for sign in (1, -1)
]
product_coeffs = st.lists(
    st.one_of(
        st.just(0),
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.sampled_from(packing_edges),
    ),
    min_size=0,
    max_size=9,
)


@settings(max_examples=300, deadline=None)
@given(product_coeffs, product_coeffs)
def test_mul_matches_schoolbook(ac, bc):
    assert Poly(ac) * Poly(bc) == Poly(convolve(ac, bc))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=7), product_coeffs),
        max_size=4,
    )
)
def test_weighted_square_sum_matches_schoolbook(terms):
    expected = Poly()
    for w, hc in terms:
        expected = expected + Poly(convolve(hc, hc)) * w
    assert weighted_square_sum([w for w, _ in terms], [Poly(hc) for _, hc in terms]) == expected


@pytest.mark.parametrize("sign", [1, -1])
def test_product_digit_at_packing_boundary(sign, monkeypatch):
    packings = cap_packing(monkeypatch, 2**10)
    # max|a| * max|b| * min(len a, len b) is 2^15 - 1 (2^63 - 1), the largest
    # digit a 2-byte (8-byte) signed width holds, and the middle coefficient
    # of the product reaches it
    for bits, a_val, b_val in ((15, 31, 151), (63, 73 * 127 * 337, 7 * 92737 * 649657)):
        a, b = Poly([a_val] * 7), Poly([sign * b_val] * 7)
        assert a * b == Poly(convolve(a.coeffs, b.coeffs))
        assert (a * b).coefficient(6) == sign * (2**bits - 1)
    assert len(packings) == 8  # each of the four products packed both operands
    # a square's digits are non-negative: 181^2 = 2^15 - 7 is the largest
    # square of one integer that a 2-byte signed width holds
    assert weighted_square_sum([sign], [Poly([181])]) == Poly([sign * (2**15 - 7)])
    assert len(packings) == 9
    hs = [Poly([181, 0, -181]), Poly([F(181, 3)])]
    expected = Poly(convolve(hs[0].coeffs, hs[0].coeffs)) * sign + hs[1] * hs[1] * 5
    assert weighted_square_sum([sign, 5], hs) == expected


def test_mul_degree_10000_monomials():
    x10k = Poly.monomial(10000)
    assert x10k * x10k == Poly.monomial(20000)
    assert (x10k + Poly.one()) * (x10k - Poly.one()) == Poly.monomial(20000) - Poly.one()


def test_sparse_products_are_not_packed(monkeypatch):
    # one 13,288-bit coefficient against x^10000: packing would give each of
    # the 10,001 digits that width, about 16.6 MB, for a product of one term
    packings = cap_packing(monkeypatch, 2**20)
    big = 10**4000
    assert Poly([big]) * Poly.monomial(10000) == Poly.monomial(10000, big)
    h = Poly.monomial(9999) + Poly.constant(big)
    square = Poly.monomial(19998) + Poly.monomial(9999, 2 * big) + Poly.constant(big**2)
    assert h * h == square
    assert weighted_square_sum([F(1, 3)], [h]) == square * F(1, 3)
    assert packings == []
    # dense operands of one size still go through the packing
    dense = Poly([big - k for k in range(50)])
    assert dense * dense == Poly(convolve(dense.coeffs, dense.coeffs))
    assert len(packings) == 2


def test_weighted_square_sum_sparse_terms_with_different_denominators():
    # the common denominator of the 40 terms has 79,465 bits, which the sum
    # carries as its one denominator
    hs = [Poly.monomial(i + 1) + Poly.constant(F(1, 10**300 + i)) for i in range(40)]
    weights = [F(i + 1, 7) for i in range(40)]
    expected = Poly()
    for w, h in zip(weights, hs):
        expected = expected + Poly(convolve(h.coeffs, h.coeffs)) * w
    assert weighted_square_sum(weights, hs) == expected


# -- the integer form: numerators over one denominator ----------------------

reference_coeffs = st.lists(
    st.one_of(
        st.just(F(0)),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
    ),
    max_size=8,
)


def trimmed(cs):
    """A Fraction coefficient list without trailing zeros."""
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def assert_canonical(p):
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    assert len(p.coeffs) == len(p.nums)
    for i, v in enumerate(p.nums):
        assert p.coeffs[i] == F(v, p.den)


@settings(max_examples=200, deadline=None)
@given(
    reference_coeffs,
    reference_coeffs,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
def test_integer_form_matches_a_fraction_list_reference(ac, bc, c, point):
    a, b = Poly(ac), Poly(bc)
    ra, rb = trimmed(ac), trimmed(bc)
    size = max(len(ra), len(rb))
    pa, pb = ra + [F(0)] * (size - len(ra)), rb + [F(0)] * (size - len(rb))
    w = abs(c) + 1
    cases = [
        (a, ra),
        (a + b, [x + y for x, y in zip(pa, pb)]),
        (a - b, [x - y for x, y in zip(pa, pb)]),
        (-a, [-x for x in ra]),
        (a * c, [x * c for x in ra]),
        (c * a, [x * c for x in ra]),
        (a * b, convolve(ra, rb)),
        (a.derivative(), [i * x for i, x in enumerate(ra)][1:]),
        (weighted_square_sum([w, 3], [a, b]),
         [w * x + 3 * y for x, y in zip(convolve(pa, pa), convolve(pb, pb))]),
    ]
    if ra:
        cases.append((a.monic(), [x / ra[-1] for x in ra]))
    if rb:
        quo, rem = long_division(ra, rb)
        q, r = divmod(a, b)
        cases += [(q, quo), (r, rem[: len(rb) - 1])]
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == tuple(trimmed(want))
    assert a(point) == sum((x * point**k for k, x in enumerate(ra)), F(0))
    # equal values from other routes are equal and hash equal
    scaled = Poly.from_integers([7 * v for v in a.nums], 7 * a.den)
    for same in ((a + b) - b, a * 3 * F(1, 3), scaled):
        assert_canonical(same)
        assert same == a and hash(same) == hash(a)


def test_from_integers_and_from_pairs_bring_any_form_to_the_canonical_one():
    half = Poly([F(1, 2), 0, F(-3, 4)])
    assert (half.nums, half.den) == ((2, 0, -3), 4)
    assert Poly.from_integers([-4, 0, 6, 0], -8) == half
    assert Poly.from_pairs([(2, 4), (0, 7), (-6, 8), (0, 3)]) == half
    assert Poly.from_integers([0, 0], 5) == Poly.zero()
    assert (Poly.zero().nums, Poly.zero().den) == ((), 1)
    assert half.pairs() == [(1, 2), (0, 1), (-3, 4)]
    assert (half.max_bits(), Poly([F(5, 2)]).max_bits(), Poly.zero().max_bits()) == (3, 3, 0)
    with pytest.raises(ZeroDivisionError):
        Poly.from_integers([1], 0)
