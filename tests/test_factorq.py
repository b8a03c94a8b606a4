import math
import random
from fractions import Fraction as F

import pytest

from rootsos import factorq
from rootsos.factorq import (
    DEGREE_CAP,
    DegreeTooLarge,
    NoUsablePrime,
    ZeroOrConstant,
    _factor_squarefree,
    _lift_tree,
    _zp_divmod,
    _zp_mul,
    factor_mod_p,
    factor_over_Q,
    recombine,
)
from rootsos.ratpoly import Poly, gcd
from support import is_irreducible_by_brute_force, odd_primes_product, random_irreducible

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)


def _product_mod(factors, m):
    out = Poly.one()
    for c in factors:
        out = out * Poly(c)
    return Poly(int(v) % m for v in out.coeffs)


def test_factor_over_q_irreducible_cubic():
    fact = factor_over_Q(F_CUBE)
    assert fact.unit == 1
    assert fact.factors == ((F_CUBE, 1),)


def test_factor_over_q_quartic():
    fact = factor_over_Q(X**4 - Poly.one())
    assert fact.factors == (
        (X - Poly.one(), 1),
        (X + Poly.one(), 1),
        (X**2 + Poly.one(), 1),
    )


def test_factor_over_q_with_multiplicities():
    fact = factor_over_Q(X * F_CUBE**2)
    assert fact.unit == 1
    assert fact.factors == ((X, 1), (F_CUBE, 2))
    assert fact.reconstruct() == X * F_CUBE**2


def _image_mod(f, m):
    return [int(c) % m for c in f.coeffs]


def test_factor_mod_p_cubic():
    factors = factor_mod_p(_image_mod(F_CUBE, 5), 5, random.Random(0))
    # brute-force oracle over GF(5): the only linear factor is x + 2,
    # and the cofactor x^2 + 3x + 4 has no root among 0..4
    assert factors == [[2, 1], [4, 3, 1]]
    quad = Poly([4, 3, 1])
    assert all(int(quad(F(a))) % 5 != 0 for a in range(5))
    assert _product_mod(factors, 5) == Poly(_image_mod(F_CUBE, 5))


def test_factor_mod_p_irreducible_quadratic():
    assert factor_mod_p([1, 0, 1], 3, random.Random(0)) == [[1, 0, 1]]


def test_factor_mod_p_split_quadratic():
    factors = factor_mod_p(_image_mod(X**2 - Poly.one(), 7), 7, random.Random(0))
    assert factors == [[1, 1], [6, 1]]  # x+1 and x-1 = x+6


def _split_image(rng, p, n_linear, n_quadratic):
    """A monic squarefree image mod p: n_linear distinct x - a times
    n_quadratic distinct irreducible quadratics (non-residue discriminant)."""
    image = [1]
    for a in rng.sample(range(p), n_linear):
        image = _zp_mul(image, [-a % p, 1], p)
    quadratics = set()
    while len(quadratics) < n_quadratic:
        c, b = rng.randrange(p), rng.randrange(p)
        if pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1:
            quadratics.add((c, b, 1))
    for q in quadratics:
        image = _zp_mul(image, list(q), p)
    return image


@pytest.mark.parametrize("p", [41, 101, 127, 1229])
def test_factor_mod_p_matches_sympy_on_split_images(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(f"split:{p}")
    for _ in range(4):
        image = _split_image(rng, p, rng.randint(10, min(40, p)), rng.randint(0, 3))
        _, expected = sympy.Poly(image[::-1], x, modulus=p).factor_list()
        assert all(mult == 1 for _, mult in expected)
        expected = sorted(([int(c) % p for c in q.all_coeffs()[::-1]] for q, _ in expected),
                          key=lambda c: (len(c), c))
        assert factor_mod_p(image, p, random.Random(0)) == expected


class _NoDraws(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("random draw")


def test_linear_factors_mod_p_take_no_random_draw():
    p = 1229
    rng = random.Random(5)
    roots = rng.sample(range(p), 40)
    image = _split_image(random.Random(5), p, 40, 0)  # x - a for the same 40 roots
    assert factor_mod_p(image, p, _NoDraws()) == sorted([-a % p, 1] for a in roots)
    # two quadratics still split by Cantor-Zassenhaus, which draws
    with pytest.raises(AssertionError, match="random draw"):
        factor_mod_p(_split_image(rng, p, 0, 2), p, _NoDraws())


def test_residue_sweep_stops_at_the_last_root(monkeypatch):
    evaluated = []
    real = factorq._gf_eval

    def spy(a, x, p):
        evaluated.append(x)
        return real(a, x, p)

    monkeypatch.setattr(factorq, "_gf_eval", spy)
    # x(x - 1)(x - 5) modulo 1229: residues 0..5 and no further
    image = _zp_mul(_zp_mul([0, 1], [-1, 1], 1229), [-5, 1], 1229)
    assert factor_mod_p(image, 1229, _NoDraws()) == [[0, 1], [1224, 1], [1228, 1]]
    assert evaluated == list(range(6))
    # x^2 + 1 has no root modulo 7, so it is no product of linear factors
    with pytest.raises(AssertionError, match="0 roots modulo 7"):
        factorq._gf_equal_degree([1, 0, 1], 1, 7, _NoDraws())


def test_prime_search_skips_bad_primes(monkeypatch):
    primes = []
    real = factorq.factor_mod_p

    def spy(gbar, p, rng):
        primes.append(p)
        return real(gbar, p, rng)

    monkeypatch.setattr(factorq, "factor_mod_p", spy)
    # (x-1)(x-4) = (x-1)^2 mod 3, and x^2 - 1 = (x-1)(x+1) mod 5
    f = (X - Poly.one()) * (X - Poly.constant(4))
    assert factor_over_Q(f).factors == ((X - Poly.constant(4), 1), (X - Poly.one(), 1))
    assert primes == [5]
    # x^2 - 2x + 1 stays a square modulo every prime
    with pytest.raises(NoUsablePrime):
        _factor_squarefree(Poly([1, -2, 1]))
    # the discriminant P^2 of x(x - P) is divisible by every prime tried
    with pytest.raises(NoUsablePrime, match="first 200 odd primes"):
        factor_over_Q(X * (X - Poly.constant(odd_primes_product(200))))
    assert primes == [5]


def test_monic_image_is_built_once_per_squarefree_part(monkeypatch):
    calls = []
    real = factorq._monic_integral

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(factorq, "_monic_integral", spy)
    # squarefree parts (x^2 - 2)(x - 3), x^2 + 1 and x - 5; the linear one
    # needs no image
    sq = X**2 + Poly.one()
    f = (X**2 - Poly.constant(2)) * (X - Poly.constant(3)) * sq**2 * (X - Poly.constant(5)) ** 3
    fact = factor_over_Q(f)
    assert fact.reconstruct() == f
    assert len(calls) == 2


def test_factorization_does_not_depend_on_the_splitting_stream(monkeypatch):
    rng = random.Random(8)
    polys = []
    while len(polys) < 12:
        f = Poly.one()
        for _ in range(rng.randint(2, 4)):
            f = f * random_irreducible(rng) ** rng.randint(1, 2)
        if 2 <= f.degree <= 16:
            polys.append(f)
    expected = [factor_over_Q(f) for f in polys]
    real = factorq.factor_mod_p
    for stream in (1, 99, 12345):
        monkeypatch.setattr(
            factorq,
            "factor_mod_p",
            lambda gbar, p, _rng, s=stream: real(gbar, p, random.Random(f"{s}:{p}")),
        )
        assert [factor_over_Q(f) for f in polys] == expected


def test_hensel_lift_level2():
    g = [int(c) for c in F_CUBE.coeffs]
    factors = factor_mod_p(_image_mod(F_CUBE, 5), 5, random.Random(0))
    lifted = _lift_tree(g, factors, 5, 2)
    assert _product_mod(lifted, 25) == Poly(_image_mod(F_CUBE, 25))


def test_hensel_lift_single_factor():
    g = [int(c) for c in F_CUBE.coeffs]
    assert _lift_tree(g, [_image_mod(F_CUBE, 7)], 7, 3) == [_image_mod(F_CUBE, 7**3)]


def test_hensel_lift_exact_integer_factors():
    factors = factor_mod_p(_image_mod(X**2 - Poly.one(), 7), 7, random.Random(0))
    lifted = _lift_tree([-1, 0, 1], factors, 7, 2)
    # the true factors x-1, x+1 are exact over Z, so lifting fixes them
    assert lifted == [[1, 1], [48, 1]]


def _recombined(f, prime):
    g = [int(c) for c in f.coeffs]
    factors = factor_mod_p(_image_mod(f, prime), prime, random.Random(0))
    target = 1
    bound = 2 ** int(f.degree) * (int(sum(c * c for c in f.coeffs)) + 1)
    while prime**target <= 2 * bound:
        target += 1
    lifted = _lift_tree(g, factors, prime, target)
    return sorted(recombine(g, lifted, prime**target, bound), key=lambda c: (len(c), c))


def test_recombine_irreducible():
    assert _recombined(F_CUBE, 5) == [[-2, 0, 0, 1]]


def test_recombine_quartic():
    assert _recombined(X**4 - Poly.one(), 3) == [[-1, 1], [1, 1], [1, 0, 1]]


def test_recombine_trial_division_rejects_false_lifts():
    # (x-3)(x+3) mod 7, neither lifts over Z
    assert _recombined(X**2 - Poly.constant(2), 7) == [[-2, 0, 1]]


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        factor_over_Q(X ** (DEGREE_CAP + 1) + X)
    with pytest.raises(ZeroOrConstant):
        factor_over_Q(Poly.constant(5))


def test_determinism():
    f = (X**2 + Poly.one()) * (X**2 - Poly.constant(2)) * (X - Poly.constant(3))
    a = factor_over_Q(f)
    b = factor_over_Q(f)
    assert a == b
    assert a.factors == tuple(sorted(a.factors, key=lambda pe: (pe[0].degree, pe[0].coeffs)))


def test_random_products_reconstruct():
    rng = random.Random(424242)
    for _ in range(60):
        n_factors = rng.randint(1, 4)
        f = Poly.constant(F(rng.randint(1, 5), rng.randint(1, 3)))
        for _ in range(n_factors):
            f = f * random_irreducible(rng) ** rng.randint(1, 3)
        if f.degree < 1 or f.degree > 20:
            continue
        fact = factor_over_Q(f)
        assert fact.reconstruct() == f
        seen = set()
        for p, _e in fact.factors:
            assert p.leading_coefficient == 1
            assert p.coeffs not in seen
            seen.add(p.coeffs)
            assert is_irreducible_by_brute_force(p)
        for i in range(len(fact.factors)):
            for j in range(i + 1, len(fact.factors)):
                assert gcd(fact.factors[i][0], fact.factors[j][0]).degree == 0


def test_factor_non_monic_and_rational():
    f = Poly.constant(F(3, 7)) * (X**2 - Poly.constant(2)) * (X + Poly.constant(F(1, 2)))
    fact = factor_over_Q(f)
    assert fact.reconstruct() == f
    degrees = sorted(int(p.degree) for p, _ in fact.factors)
    assert degrees == [1, 2]


def zp_mul_stepwise(a, b, m):
    """Product over Z/mZ, reducing after every partial product."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_divmod_stepwise(a, b, m):
    """Long division over Z/mZ, reducing after every partial product."""
    inv = pow(b[-1], -1, m)
    rem = [x % m for x in a]
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % m
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % m
    for c in (quo, rem):
        while c and c[-1] == 0:
            c.pop()
    return quo, rem


@pytest.mark.parametrize("m", [3, 7**9, 101**3, 2**61 - 1])
def test_modular_kernels_match_stepwise_reduction(m):
    # negative and unreduced inputs, zeros, and high entries that vanish mod m
    rng = random.Random(m)

    def draw(n):
        return [rng.choice([0, m, -m, rng.randint(-3 * m, 3 * m)]) for _ in range(n)]

    for _ in range(150):
        a, b = draw(rng.randint(0, 14)), draw(rng.randint(0, 8))
        assert _zp_mul(a, b, m) == zp_mul_stepwise(a, b, m)
        lead = rng.randint(-3 * m, 3 * m)
        if math.gcd(lead, m) == 1:
            assert _zp_divmod(a, b + [lead], m) == zp_divmod_stepwise(a, b + [lead], m)


# -- rational roots split off before the tree lift ---------------------------


def _integer_image(roots, tail=(1,)):
    """Ascending coefficients of tail * prod(x - r)."""
    out = list(tail)
    for r in roots:
        out = [b - r * a for a, b in zip(out + [0], [0] + out)]  # times x - r
    return out


def test_ceil_root_is_the_least_upper_integer_root():
    for k in range(1, 7):
        for a in range(300):
            r = factorq._ceil_root(a, k)
            assert r >= 1 and r**k >= a and (r == 1 or (r - 1) ** k < a)
    for a in (2**200 - 1, 2**200, 2**200 + 1, 3**150):
        for k in (1, 2, 3, 7, 64):
            r = factorq._ceil_root(a, k)
            assert r**k >= a > (r - 1) ** k


@pytest.mark.parametrize(
    "g, roots",
    [
        (_integer_image([1, -2, 3, 40, -500]), [1, -2, 3, 40, -500]),
        (_integer_image([2**200 + 1, 5]), [2**200 + 1, 5]),
        (_integer_image([-(2**200) + 3, 2**199, 7], [1, 0, 1]), [-(2**200) + 3, 2**199, 7]),
        (_integer_image([2**200 - 1], [1, 1, 1]), [2**200 - 1]),
        ([-(3**7)] + [0] * 6 + [1], [3]),  # x^7 - 3^7
        ([2**70] + [0] * 6 + [1], [-(2**10)]),  # x^7 + 2^70
        ([-(5**24)] + [0] * 23 + [1], [5, -5]),  # x^24 - 5^24
        ([-(2**201), 0, 1], []),  # x^2 - 2^201, no integer root
    ],
    ids=["small", "near-2^200", "near-2^200-with-quadratic", "one-big-root", "x^7-3^7",
         "x^7+2^70", "x^24-5^24", "x^2-2^201"],
)
def test_fujiwara_bound_covers_every_integer_root(g, roots):
    bound = factorq._root_bound(g)
    for r in roots:
        assert sum(c * r**k for k, c in enumerate(g)) == 0
        assert abs(r) <= bound


def _splitting_prime(monkeypatch):
    """Record the prime each _factor_squarefree call factors modulo."""
    primes = []
    real = factorq.factor_mod_p

    def spy(gbar, p, rng):
        primes.append(p)
        return real(gbar, p, rng)

    monkeypatch.setattr(factorq, "factor_mod_p", spy)
    return primes


def _spy_lift_tree(monkeypatch):
    """Record (degree, number of modular factors) of every _lift_tree call."""
    calls = []
    real = factorq._lift_tree

    def spy(f, facs, p, target):
        calls.append((len(f) - 1, len(facs)))
        return real(f, facs, p, target)

    monkeypatch.setattr(factorq, "_lift_tree", spy)
    return calls


def _by_degree(polys):
    return sorted(polys, key=lambda p: (p.degree, p.coeffs))


def _whole_image_factors(part, prime):
    """The factors of the squarefree part by lifting every modular factor of
    its image to the image's own Mignotte bound, with no root split."""
    g, scale = factorq._monic_integral(part)
    modular = factor_mod_p([c % prime for c in g], prime, random.Random(0))
    bound = factorq._mignotte_bound(g)
    target = 1
    while prime**target <= 2 * bound:
        target += 1
    lifted = _lift_tree(g, modular, prime, target)
    found = recombine(g, lifted, prime**target, bound)
    return _by_degree(factorq._from_integer_factor(c, scale) for c in found)


def test_root_split_matches_the_whole_image_lift(monkeypatch):
    rng = random.Random(2026)
    primes = _splitting_prime(monkeypatch)
    checked = 0
    while checked < 100:
        factors = {}
        for _ in range(rng.randint(0, 14)):
            root = F(rng.randint(-(10**6), 10**6), rng.randint(1, 12))
            factors[(-root, F(1))] = X - Poly.constant(root)
        for _ in range(rng.randint(0, 6)):
            p = random_irreducible(rng)
            factors[p.coeffs] = p
        part = Poly.constant(F(rng.randint(1, 9), rng.randint(1, 9)))
        for p in factors.values():
            part = part * p
        if not 2 <= part.degree <= 24:
            continue
        primes.clear()
        got = _by_degree(_factor_squarefree(part))
        assert got == _by_degree(factors.values())
        assert got == _whole_image_factors(part, primes[0])
        checked += 1


def test_prime_table_is_the_first_200_odd_primes():
    reference, n = [], 3  # trial division
    while len(reference) < 200:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            reference.append(n)
        n += 2
    assert factorq._ODD_PRIMES == tuple(reference)


def test_false_root_lifts_stay_in_the_cofactor(monkeypatch):
    # x^2 - 2 has the roots 6 and 11 modulo 17; their lifts are 17-adic
    # square roots of 2, which fail the exact check
    lifted = []
    real_lift = factorq._lift_root

    def spy(g, r, p, bound):
        lifted.append(real_lift(g, r, p, bound))
        return lifted[-1]

    monkeypatch.setattr(factorq, "_lift_root", spy)
    monkeypatch.setattr(factorq, "_ODD_PRIMES", (17,))
    calls = _spy_lift_tree(monkeypatch)
    quad, lin = X**2 - Poly.constant(2), X - Poly.constant(3)
    assert _by_degree(_factor_squarefree(quad * lin)) == [lin, quad]
    assert 3 in lifted and len(lifted) == 3
    assert all(r * r != 2 for r in lifted if r != 3)
    assert calls[0] == (2, 2)  # only the cofactor x^2 - 2 is Hensel-lifted


def test_non_monic_rational_roots_are_split_off(monkeypatch):
    calls = _spy_lift_tree(monkeypatch)
    f = (3 * X - Poly.one()) * (2 * X + Poly.constant(5)) * (X**2 + X + Poly.one())
    fact = factor_over_Q(f)
    assert fact.unit == 6
    assert [p for p, _ in fact.factors] == [
        X - Poly.constant(F(1, 3)), X + Poly.constant(F(5, 2)), X**2 + X + Poly.one()]
    assert all(degree <= 2 for degree, _ in calls)


def test_tree_lift_runs_only_on_the_cofactor(monkeypatch):
    calls = _spy_lift_tree(monkeypatch)
    linear = Poly.one()
    for k in range(1, 17):
        linear = linear * (X - Poly.constant(k))
    assert len(factor_over_Q(linear).factors) == 16
    assert calls == []
    # x^2 + 1 has the roots 23 and 30 modulo 53, apart from 1..16
    monkeypatch.setattr(factorq, "_ODD_PRIMES", (53,))
    fact = factor_over_Q(linear * (X**2 + Poly.one()))
    assert fact.factors[-1] == (X**2 + Poly.one(), 1) and len(fact.factors) == 17
    assert calls == [(2, 2), (1, 1), (1, 1)]
