import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rootsos import numeric
from rootsos.exactify import delta_bound, rounding_digits
from rootsos.lifting import certify_nonnegative
from rootsos.numeric import (
    IllConditioned,
    build_interior_gram,
    exact_fraction,
    find_roots,
    lagrange_basis,
)
from rootsos.ratpoly import NotSquarefree, Poly, norm2_squared
from support import random_squarefree_poly, random_strictly_positive_poly

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)


def test_exact_fraction_roundtrip():
    assert exact_fraction(0.5) == F(1, 2)
    assert exact_fraction(F(2, 3)) == F(2, 3)
    with mp.workprec(106):
        x = mp.mpf(1) / 3
        fr = exact_fraction(x)
        assert mp.mpf(fr.numerator) / fr.denominator == x


def test_find_roots_cubic():
    prof = find_roots(F_CUBE)
    assert len(prof.real_roots) == 1
    assert len(prof.complex_pairs) == 1
    with mp.workprec(130):
        assert abs(prof.real_roots[0] - mp.cbrt(2)) < 1e-25
    rep = prof.complex_pairs[0]
    assert abs(mp.re(rep) - (-0.6299605249)) < 1e-9
    assert abs(abs(mp.im(rep)) - 1.0911236359) < 1e-9


def test_find_roots_no_reals():
    prof = find_roots(X**2 + Poly.one())
    assert prof.real_roots == ()
    assert len(prof.complex_pairs) == 1
    assert abs(prof.complex_pairs[0] - mp.mpc(0, 1)) < 1e-25


def test_find_roots_two_reals():
    prof = find_roots((X - Poly.one()) * (X - Poly.constant(2)))
    assert len(prof.real_roots) == 2
    assert abs(prof.real_roots[0] - 1) < 1e-25
    assert abs(prof.real_roots[1] - 2) < 1e-25


def test_find_roots_rejects_repeated():
    with pytest.raises(NotSquarefree):
        find_roots((X - Poly.one()) ** 2)


def test_find_roots_keeps_a_root_below_the_working_epsilon():
    # 1e-40 is far below 2^-106; the real/complex call is _classify's alone
    tiny = F(1, 10**40)
    prof = find_roots(X**2 + X - Poly.constant(tiny), 106)
    assert prof.precision_bits == 106
    assert len(prof.real_roots) == 2
    with mp.workprec(106):
        want = mp.mpf(tiny.numerator) / tiny.denominator
        assert abs(prof.real_roots[1] - want) < mp.ldexp(want, -50)


def test_find_roots_without_convergence_makes_one_attempt(monkeypatch):
    tried = []

    def no_convergence(*_args, **kwargs):
        tried.append((mp.prec, kwargs["extraprec"]))
        raise mp.NoConvergence("Didn't converge in maxsteps=500 steps.")

    monkeypatch.setattr(numeric, "_newton", lambda *_args: None)  # every root stalls
    monkeypatch.setattr(numeric.mp, "polyroots", no_convergence)
    with pytest.raises(IllConditioned):
        find_roots(F_CUBE)
    # one call, with as many extra bits as the working precision; the
    # doubling belongs to the caller
    assert tried == [(106, 106)]


def test_fallback_seeds_from_a_previous_pair_are_exact_conjugates(monkeypatch):
    # the previous rung's pair seeds polyroots as (conjugate, representative),
    # exact conjugates even where the previous precision is the higher one
    f = X**2 + X + Poly.one()
    prof = find_roots(f, 212)
    seeded = []

    def fallback(_k, _scaled, seeds):
        seeded.append(seeds)
        raise IllConditioned("seeds taken")

    monkeypatch.setattr(numeric, "_newton", lambda *_args: None)  # every root stalls
    monkeypatch.setattr(numeric, "_polyroots", fallback)
    with pytest.raises(IllConditioned, match="seeds taken"):
        find_roots(f, 106, previous=prof)
    conj, rep = seeded[0]
    assert rep.imag > 0
    assert conj.real == rep.real and exact_fraction(conj.imag) == -exact_fraction(rep.imag)


def test_fallback_makes_one_polyroots_call_at_the_working_precision(monkeypatch):
    # the roots of prod(x - k) + 1/7 are too ill-conditioned for the Newton
    # refinement's 10 guard bits: one polyroots call with 106 extra bits
    # resolves them
    tried = []
    polyroots = numeric.mp.polyroots

    def spy(coeffs, **kwargs):
        tried.append((kwargs["extraprec"], kwargs["maxsteps"]))
        return polyroots(coeffs, **kwargs)

    monkeypatch.setattr(numeric.mp, "polyroots", spy)
    f = Poly.one()
    for k in range(1, 11):
        f = f * (X - Poly.constant(k))
    prof = find_roots(f + Poly.constant(F(1, 7)), 106)
    assert len(prof.real_roots) + 2 * len(prof.complex_pairs) == 10
    assert tried == [(106, 500)]


def test_find_roots_starts_from_the_previous_roots(monkeypatch):
    calls = _spy_refinement(monkeypatch)
    polyroots = _spy_polyroots(monkeypatch)
    f = X**3 - Poly.constant(F(1, 10**9))
    low = find_roots(f, 106)
    high = find_roots(f, 212, previous=low)
    # the real root and the pair's representative, credited with 106 bits
    assert calls[1] == (212, [*low.real_roots, *low.complex_pairs], 106)
    assert polyroots == []
    with mp.workprec(212):
        for a, b in zip(low.real_roots + low.complex_pairs, high.real_roots + high.complex_pairs):
            assert abs(a - b) < mp.ldexp(1, -90)
    assert find_roots(f, 212) == high


def test_find_roots_refines_no_previous_of_another_degree(monkeypatch):
    # the roots of a quadratic are no start for a cubic: the attempt
    # refines the cubic's own float seeds, as if there were no previous
    other = find_roots(X**2 - Poly.constant(2), 106)
    calls = _spy_refinement(monkeypatch)
    prof = find_roots(F_CUBE, 212, previous=other)
    assert prof == find_roots(F_CUBE, 212)
    assert calls[0] == calls[1]
    assert calls[0][0::2] == (212, numeric._FLOAT_SEED_BITS)


def test_refinement_stalls_or_confuses_roots_and_returns_none():
    cs = [mp.mpf(c) for c in (-6, 11, -6, 1)]  # (x - 1)(x - 2)(x - 3)
    with mp.workprec(106):
        seeds = [mp.mpf("1.001"), mp.mpf("2.001"), mp.mpf("2.999")]
        roots = numeric._refined_roots(cs, seeds, 8)  # 8 correct bits: 5 steps
        assert roots == [1, 2, 3]
        # two seeds that both converge to 1: no root is left for 2
        assert numeric._refined_roots(cs, [seeds[0], mp.mpf("0.999"), seeds[2]], 8) is None
        # credited with more bits than they have, the seeds run out of steps
        assert numeric._refined_roots(cs, seeds, 53) is None
        # f'(z) = 0 at the seed
        assert numeric._refined_roots([mp.mpf(c) for c in (-2, 0, 1)], [mp.mpf(0)], 53) is None


def test_find_roots_misclassification_is_ill_conditioned():
    # at 106 bits the pair +-1e-20 i reads as two real roots; Sturm counts none
    f = X**2 + Poly.constant(F(1, 10**40))
    with pytest.raises(IllConditioned, match="Sturm counts 0"):
        find_roots(f, 106)
    assert find_roots(f, 212).complex_pairs


def test_find_roots_takes_the_callers_real_count(monkeypatch):
    counted = []
    real_count = numeric.sturm_real_root_count
    monkeypatch.setattr(numeric, "sturm_real_root_count",
                        lambda f: counted.append(f) or real_count(f))
    assert find_roots(F_CUBE) == find_roots(F_CUBE, real=1)
    assert counted == [F_CUBE]
    # the given count is the one the roots are checked against
    with pytest.raises(IllConditioned, match="Sturm counts 3"):
        find_roots(F_CUBE, real=3)
    assert counted == [F_CUBE]


def _spy_polyroots(monkeypatch):
    calls = []
    polyroots = numeric.mp.polyroots

    def spy(coeffs, **kwargs):
        calls.append(kwargs)
        return polyroots(coeffs, **kwargs)

    monkeypatch.setattr(numeric.mp, "polyroots", spy)
    return calls


def _spy_refinement(monkeypatch):
    calls = []
    refine = numeric._refined_roots

    def spy(cs, seeds, seed_bits):
        calls.append((mp.prec, list(seeds), seed_bits))
        return refine(cs, seeds, seed_bits)

    monkeypatch.setattr(numeric, "_refined_roots", spy)
    return calls


def test_refinement_starts_from_finite_float_seeds(monkeypatch):
    calls = _spy_refinement(monkeypatch)
    polyroots = _spy_polyroots(monkeypatch)
    f = X**10 - Poly.constant(3)
    prof = find_roots(f)
    assert prof.precision_bits == 106 and len(prof.real_roots) == 2
    assert polyroots == []  # the refined roots passed every check
    [(bits, seeds, seed_bits)] = calls
    assert (bits, seed_bits) == (106, numeric._FLOAT_SEED_BITS)
    # split by the Sturm count: two real seeds, then one seed per pair
    assert [type(z) for z in seeds] == [mp.mpf] * 2 + [mp.mpc] * 4
    assert all(mp.isfinite(z) and complex(z) == z for z in seeds)  # doubles


def test_non_finite_seeds_fall_back_to_the_default_start(monkeypatch):
    calls = _spy_polyroots(monkeypatch)
    horner = numeric.horner

    def nan_in_floats(coeffs, point):
        return complex("nan+nanj") if type(point) is complex else horner(coeffs, point)

    monkeypatch.setattr(numeric, "horner", nan_in_floats)
    prof = find_roots(F_CUBE)
    assert len(prof.real_roots) == 1 and len(prof.complex_pairs) == 1
    assert [c["roots_init"] for c in calls] == [None]


def test_seeds_do_not_change_the_roots(monkeypatch):
    rng = random.Random(4242)
    polys = [random_squarefree_poly(rng, rng.randint(2, 12), 50) for _ in range(40)]
    seeded = [find_roots(f) for f in polys]
    monkeypatch.setattr(numeric, "_float_seeds", lambda _monic: None)
    for f, a in zip(polys, seeded):
        b = find_roots(f)
        assert (a.precision_bits, len(a.real_roots), len(a.complex_pairs)) == (
            b.precision_bits, len(b.real_roots), len(b.complex_pairs))
        with mp.workprec(a.precision_bits):
            tol = mp.ldexp(1, -(a.precision_bits // 2))
            for x, y in zip(a.real_roots + a.complex_pairs, b.real_roots + b.complex_pairs):
                assert abs(x - y) <= tol


def test_root_residuals_random():
    rng = random.Random(31337)
    for _ in range(40):
        f = random_squarefree_poly(rng, rng.randint(1, 8), 50)
        prof = find_roots(f)
        bits = prof.precision_bits
        n = int(f.degree)
        norm_f = float(norm2_squared(f)) ** 0.5
        with mp.workprec(bits):
            bound = mp.ldexp(1, -(bits // 4)) * norm_f
            # |f| is the same at a conjugate
            for xi in prof.real_roots + prof.complex_pairs:
                assert abs(f(xi)) <= bound * max(1, abs(xi)) ** n


def test_lagrange_basis_quadratic():
    f = X**2 - Poly.one()
    prof = find_roots(f)
    us = lagrange_basis(f, prof)
    # roots ascend: xi_1 = -1 with u = (1-x)/2, xi_2 = +1 with u = (1+x)/2
    assert abs(us[0][0] - 0.5) < 1e-25 and abs(us[0][1] + 0.5) < 1e-25
    assert abs(us[1][0] - 0.5) < 1e-25 and abs(us[1][1] - 0.5) < 1e-25


def test_lagrange_basis_delta_and_unity():
    for f in (F_CUBE, (X - Poly.one()) * (X + Poly.constant(3)) * (X**2 + Poly.one())):
        prof = find_roots(f)
        us = lagrange_basis(f, prof)
        xs = prof.real_roots + prof.complex_pairs
        assert len(us) == len(xs)
        with mp.workprec(prof.precision_bits):
            every_root = [*xs, *(mp.conj(rep) for rep in prof.complex_pairs)]
            tol = mp.ldexp(1, -(prof.precision_bits // 4))
            for u, xi in zip(us, xs):
                for xj in every_root:
                    want = 1 if xj == xi else 0
                    val = sum(c * xj**k for k, c in enumerate(u))
                    assert abs(val - want) <= tol
            # interpolation of the constant 1: the basis at a conjugate is the
            # conjugate of its representative's, so the whole basis sums to 1
            real = len(prof.real_roots)
            total = [sum(u[k] for u in us[:real]) + 2 * sum(mp.re(u[k]) for u in us[real:])
                     for k in range(int(f.degree))]
            assert abs(total[0] - 1) < 1e-20
            for c in total[1:]:
                assert abs(c) < 1e-20


def _toy_gram():
    prof = find_roots(F_CUBE)
    return build_interior_gram(F_CUBE, X, prof)


def test_interior_gram_matches_closed_form():
    gram = _toy_gram()
    with mp.workprec(106):
        r = mp.cbrt(2)
        expected = (
            (4 * r / 9, mp.mpf(1) / 9, -mp.cbrt(4) / 9),
            (mp.mpf(1) / 9, 2 * mp.cbrt(4) / 9, -r / 9),
            (-mp.cbrt(4) / 9, -r / 9, mp.mpf(7) / 18),
        )
        for i in range(3):
            for j in range(3):
                assert abs(gram.Qstar[i][j] - expected[i][j]) < 1e-25
        assert abs(gram.qstar[0] - 2 * r / 9) < 1e-25
        assert abs(gram.qstar[1] + mp.mpf(7) / 18) < 1e-25
    with mp.workprec(106):
        assert abs(min(mp.eigsy(mp.matrix(gram.Qstar), eigvals_only=True)) - 0.2239) < 2e-3
    assert gram.rho < 1e-20


def _digits(f, sigma, rho):
    """The rounding digits t = ceil(log10(1/delta)) that a margin sigma
    picks; None when there is no rounding margin."""
    delta = delta_bound(f, sigma, rho)
    if delta <= 0:
        return None
    t = 1
    while F(1, 10**t) > delta:
        t += 1
    return t


def _rule(f, gram, bits):
    """(smallest pivot, digits) of ``rounding_digits``, under a cap that no
    margin here reaches; (None, None) when it finds no margin."""
    return rounding_digits(f, gram, bits, 1000)


def _has_margin(f, gram, bits=106):
    return _rule(f, gram, bits)[0] is not None


def _near8():
    # the refute workload's near-boundary shape: f = x^8 - 2, g = x^2 - r
    # with 0 < 2^(1/4) - r < 1e-20, so both real roots weigh about 1e-20
    with mp.workprec(200):
        r = F(int(mp.floor(mp.root(2, 4) * 10**20)), 10**20)
    return X**8 - Poly.constant(2), X**2 - Poly.constant(r)


@pytest.mark.parametrize("case", ["near8", "x^32-2", "parrilo"])
def test_sigma_picks_the_digits_of_an_eigsy_oracle(case, monkeypatch):
    # the Cholesky decade rule picks the digits that the margin sigma =
    # (1 - 2^-32)*lambda_min gives, lambda_min from mp.eigsy
    if case == "near8":
        (f, g), rungs = _near8(), (424, 848)
    elif case == "x^32-2":
        f, g, rungs = X**32 - Poly.constant(2), X + Poly.constant(3), (106,)
    else:  # the rank-deficient boundary matrix of LAMBDA_FACTOR = 1
        monkeypatch.setattr(numeric, "LAMBDA_FACTOR", 1)
        f, g, rungs = F_CUBE, X, (106, 212, 424, 848)
    for bits in rungs:
        gram = build_interior_gram(f, g, find_roots(f, bits))
        with mp.workprec(bits):
            eigenvalues = sorted(mp.eigsy(mp.matrix(gram.Qstar), eigvals_only=True))
            oracle = eigenvalues[0] * (1 - mp.ldexp(1, -32))
        pivot, digits = _rule(f, gram, bits)
        assert digits == _digits(f, oracle, gram.rho)
        if case == "near8":  # two clustered smallest eigenvalues, the pivot above both
            assert eigenvalues[1] < 2 * eigenvalues[0]
            with mp.workprec(bits):
                assert pivot + gram.rho / (1 - mp.ldexp(1, -32)) >= eigenvalues[0]
        if case == "parrilo":
            assert pivot is None


def _reflected(h, d):
    """H diag(d) H for the Householder reflection H = I - 2 h h^T/(h^T h):
    an exact rational matrix with eigenvalues d and eigenvectors H e_k."""
    n, hh = len(h), sum(x * x for x in h)
    reflect = [[int(i == j) - F(2 * h[i] * h[j], hh) for j in range(n)] for i in range(n)]
    return [[sum(reflect[i][k] * d[k] * reflect[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("exact", [
    # eigenvalues 1 and 3, the lowest eigenvector (2, -1)
    [[F(7, 5), F(4, 5)], [F(4, 5), F(13, 5)]],
    # eigenvalues 1, 3 and about 10^6: every pivot lies far above 1, so the
    # lowest decade the pivots allow fails and the rule bisects
    _reflected([1, -12, 1, 2, 5, 6, 7, 8], [1, 3] + [10**6 + k for k in range(6)]),
], ids=["n=2", "n=8"])
def test_rule_picks_the_exact_digits_of_a_reflected_matrix(exact, monkeypatch):
    # lambda_min = 1 exactly: the rule picks the digits of the exact margin
    # sigma = 1 - 2^-32 against rho = 1 - 10^-8
    n = len(exact)
    f = X**n - Poly.constant(2)
    with mp.workprec(106):
        q = tuple(tuple(mp.mpf(x.numerator) / x.denominator for x in row) for row in exact)
        rho = 1 - mp.mpf(10) ** -8
    shifts = []
    smallest_pivot = numeric.smallest_pivot

    def spy(rows, shift, prec):
        shifts.append(shift)
        return smallest_pivot(rows, shift, prec)

    monkeypatch.setattr(numeric, "smallest_pivot", spy)
    gram = numeric.InteriorGram(Qstar=q, qstar=(), rho=rho)
    _pivot, digits = _rule(f, gram, 106)
    assert digits == _digits(f, F(2**32 - 1, 2**32), rho)
    assert (len(shifts) > 2) == (n == 8)  # the first two tests settle n = 2


def test_sigma_is_zero_without_a_cholesky_factor():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1: no margin at any rho >= 0
    with mp.workprec(106):
        q = ((mp.mpf(1), mp.mpf(2)), (mp.mpf(2), mp.mpf(1)))
    assert numeric.smallest_pivot(q, F(0), 106) is None
    gram = numeric.InteriorGram(Qstar=q, qstar=(), rho=mp.mpf(0))
    assert _rule(X**2 - Poly.constant(2), gram, 106) == (None, None)


def test_certify_never_calls_eigsy(monkeypatch):
    def no_eigsy(*_args, **_kwargs):
        raise AssertionError("mp.eigsy called")

    monkeypatch.setattr(numeric.mp, "eigsy", no_eigsy)
    for f, g in ((F_CUBE, X), _near8(), (X * (X**3 - Poly.constant(2)) ** 2, X**2 + Poly.one())):
        assert certify_nonnegative(f, g).weights


def test_interior_gram_symmetric_exactly():
    gram = _toy_gram()
    for i in range(3):
        for j in range(3):
            assert gram.Qstar[i][j] == gram.Qstar[j][i]


def test_parrilo_boundary_flagged(monkeypatch):
    # LAMBDA_FACTOR = 1 reproduces the rank-deficient boundary matrix: the
    # Cholesky factorization of Q* - rho*I fails, so it is flagged not-definite
    monkeypatch.setattr(numeric, "LAMBDA_FACTOR", 1)
    prof = find_roots(F_CUBE)
    gram = build_interior_gram(F_CUBE, X, prof)
    assert not _has_margin(F_CUBE, gram)


def test_identity_residual_small():
    f = X**2 - Poly.one()
    gram = build_interior_gram(f, Poly.one(), find_roots(f))
    assert gram.rho < 1e-25
    # weights are g(xi) = 1 at both roots: Q* = H H^T
    assert abs(gram.Qstar[0][0] - 0.5) < 1e-25


def test_refusal_comes_before_the_lagrange_basis(monkeypatch):
    # the numeric stage never decides a sign: a clearly negative value only
    # ends the attempt, before the basis is built
    def no_basis(*_args):
        raise AssertionError("lagrange_basis called")

    monkeypatch.setattr(numeric, "lagrange_basis", no_basis)
    f = X**10 - Poly.constant(3)
    with pytest.raises(IllConditioned, match="too close to zero"):
        build_interior_gram(f, X - Poly.one(), find_roots(f))


def test_not_strictly_positive():
    # g = -x < 0 at both roots: not a refusal here (exactify refuses
    # exactly, before any numeric work), only an attempt that fails
    f = (X - Poly.one()) * (X - Poly.constant(2))
    with pytest.raises(IllConditioned, match="too close to zero"):
        build_interior_gram(f, -X, find_roots(f))


@pytest.mark.parametrize("sign", [1, -1], ids=["above-zero", "below-zero"])
def test_value_too_close_to_zero_is_ill_conditioned(sign, monkeypatch):
    # |g(1)| = 1e-40 is below 2^16 times its error bound at 106 bits on
    # either side of zero: not a refusal, a retry at higher precision
    def no_basis(*_args):
        raise AssertionError("lagrange_basis called")

    monkeypatch.setattr(numeric, "lagrange_basis", no_basis)
    f = (X - Poly.one()) * (X - Poly.constant(2))
    g = X - Poly.one() + Poly.constant(F(sign, 10**40))
    with pytest.raises(IllConditioned, match="too close to zero"):
        build_interior_gram(f, g, find_roots(f, 106))


# r = floor(2^(1/3)*10^70)/10^70: g = x - r is about 7.65e-71 at 2^(1/3)
CUBE_ROOT_R = F(12599210498948731647672106072782283505702514647015079800819751121552996,
                10**70)


def test_failed_value_carries_a_bound_on_its_error():
    f, g = F_CUBE, X - Poly.constant(CUBE_ROOT_R)
    with mp.workprec(1000):
        true = mp.cbrt(2) - mp.mpf(CUBE_ROOT_R.numerator) / CUBE_ROOT_R.denominator
    for bits in (106, 212):
        with pytest.raises(IllConditioned, match="too close to zero") as info:
            build_interior_gram(f, g, find_roots(f, bits))
        value, error = info.value.value, info.value.error
        with mp.workprec(1000):
            assert abs(value - true) <= error
        # rounding noise below 424 bits: the value is not called
        assert not value > numeric.TRUST_FACTOR * error
        assert f"error bound {mp.nstr(error, 6)})" in str(info.value)
    # a measurement from 424 bits on: far above its error bound, so called
    assert _has_margin(f, build_interior_gram(f, g, find_roots(f, 424)), 424)


def test_failed_value_error_bound_covers_an_inexact_root():
    # a real root 2^-60 off moves g = x - r by 2^-60, far above the rounding
    # of g at 106 bits: the bound must cover it, so v is not trusted
    prof = find_roots(F_CUBE, 106)
    with mp.workprec(106):
        off = numeric.RootProfile((mp.cbrt(2) + mp.ldexp(1, -60),), prof.complex_pairs, 106)
    with pytest.raises(IllConditioned, match="too close to zero") as info:
        build_interior_gram(F_CUBE, X - Poly.constant(CUBE_ROOT_R), off)
    with mp.workprec(1000):
        true = mp.cbrt(2) - mp.mpf(CUBE_ROOT_R.numerator) / CUBE_ROOT_R.denominator
        assert abs(info.value.value - true) <= info.value.error
    assert info.value.value < 2 * info.value.error


def test_degenerate_pair_weight_carries_a_bound_on_its_error():
    # g = x^2 + r*x + r^2 nearly divides by the quadratic factor of x^3 - 2,
    # x^2 + c*x + c^2 with c = 2^(1/3): at its roots z, g(z) = (r - c)(z + r
    # + c), so the pair weight 2|g| + Re g is about 2e-70, lost in rounding
    # at 212 bits and called at 424
    g = X**2 + Poly.constant(CUBE_ROOT_R) * X + Poly.constant(CUBE_ROOT_R**2)
    with mp.workprec(1000):
        r = mp.mpf(CUBE_ROOT_R.numerator) / CUBE_ROOT_R.denominator
        z = mp.cbrt(2) * mp.expjpi(mp.mpf(2) / 3)
        gamma = z**2 + r * z + r**2
        true = 2 * abs(gamma) + mp.re(gamma)
    with pytest.raises(IllConditioned, match="degenerate pair weight") as info:
        build_interior_gram(F_CUBE, g, find_roots(F_CUBE, 212))
    value, error = info.value.value, info.value.error
    with mp.workprec(1000):
        assert abs(value - true) <= error
    assert error < mp.ldexp(1, -200)
    assert not value > numeric.TRUST_FACTOR * error
    assert _has_margin(F_CUBE, build_interior_gram(F_CUBE, g, find_roots(F_CUBE, 424)), 424)


@pytest.mark.parametrize(
    "f, reason",
    [(F_CUBE, "too close to zero"), (X**2 + Poly.one(), "degenerate pair weight")],
    ids=["real-root", "pair-weight"],
)
def test_zero_g_is_not_called(f, reason):
    # g = 0 has no coefficients: its value at a root and the bound on that
    # value's error are both 0, and so is a pair weight (lambda = 2|g| = 0)
    with pytest.raises(IllConditioned, match=reason) as info:
        build_interior_gram(f, Poly.zero(), find_roots(f))
    assert info.value.value == 0 and info.value.error == 0


def test_unreduced_g_rejected():
    with pytest.raises(ValueError):
        build_interior_gram(F_CUBE, X**3, find_roots(F_CUBE))


def test_rho_decreases_with_precision():
    rng = random.Random(2024)
    for _ in range(5):
        f = random_squarefree_poly(rng, rng.randint(2, 6), 20)
        g = random_strictly_positive_poly(rng, 2, 5) % f
        if g.degree >= f.degree or g.is_zero:
            continue
        rhos = []
        for bits in (106, 212, 424):
            prof = find_roots(f, bits)
            rhos.append(build_interior_gram(f, g, prof).rho)
        assert rhos[1] <= rhos[0]
        assert rhos[2] <= rhos[1]


def test_sigma_positive_on_strict_instances():
    rng = random.Random(555)
    done = 0
    while done < 25:
        f = random_squarefree_poly(rng, rng.randint(1, 10), 30)
        g = random_strictly_positive_poly(rng, 3, 8) % f
        if g.is_zero:
            continue
        assert _has_margin(f, build_interior_gram(f, g, find_roots(f)))
        done += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 10))
def test_refined_roots_match_polyroots(seed, degree):
    # the Newton refinement alone, from the float seeds and from the last
    # rung's roots, against polyroots run to convergence at as many extra
    # bits as the working precision
    f = random_squarefree_poly(random.Random(seed), degree, 100)
    real = numeric.sturm_real_root_count(f)
    with mock.patch.object(numeric, "_polyroots", side_effect=AssertionError("fell back")):
        low = find_roots(f, 106, real=real)
        profiles = [low, find_roots(f, 212, real=real), find_roots(f, 212, real=real, previous=low)]
    for prof in profiles:
        bits = prof.precision_bits
        with mp.workprec(bits):
            cs = numeric._mp_coeffs(f)
            want = numeric._classify(mp.polyroots(cs[::-1], maxsteps=500, extraprec=bits),
                                     real, bits)
            assert (len(prof.real_roots), len(prof.complex_pairs)) == tuple(map(len, want))
            for z, w in zip(prof.real_roots + prof.complex_pairs, want[0] + want[1]):
                assert abs(z - w) <= mp.ldexp(1, -(bits // 2)) * (1 + abs(w))
