import dataclasses
import math
import random
import sys
from fractions import Fraction as F

import pytest

from rootsos import certificate, exactify, lifting
from rootsos.certificate import verify
from rootsos.exactify import SOSDecomposition
from rootsos.lifting import (
    HypothesisViolated,
    NoInvertibleSquare,
    NotCoprime,
    NotIrreducible,
    NotNonnegative,
    certify_nonnegative,
    crt_combine_sos,
    hensel_lift_sos,
    newton_sqrt_iterates,
    reduce_nonneg_to_strict,
)
from rootsos.numeric import find_roots
from rootsos.ratpoly import Poly, extended_gcd, gcd
from support import random_irreducible, random_nonzero_poly

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)

TOY_SOS = SOSDecomposition(
    (F(3, 5), F(23, 60), F(137, 460)),
    (Poly([1, F(1, 6), F(-1, 3)]), Poly([0, 1, F(-7, 23)]), Poly([0, 0, 1])),
    F_CUBE,
)
LIFTED_H3 = Poly([0, F(-69, 137), F(229, 137), 0, F(69, 274), F(-46, 137)])


def _square_sum(sos):
    acc = Poly.zero()
    for w, h in zip(sos.weights, sos.polys):
        acc = acc + h * h * w
    return acc


def test_hensel_lift_toy_example():
    lifted = hensel_lift_sos(TOY_SOS, 2, X)
    assert lifted.weights == TOY_SOS.weights
    assert lifted.polys[0] == TOY_SOS.polys[0]
    assert lifted.polys[1] == TOY_SOS.polys[1]
    assert lifted.polys[2] == LIFTED_H3
    assert lifted.modulus == F_CUBE**2
    assert ((_square_sum(lifted) - X) % F_CUBE**2).is_zero


def test_hensel_lift_e1_unchanged():
    assert hensel_lift_sos(TOY_SOS, 1, X) is TOY_SOS


def test_hensel_lift_constant_square_unchanged():
    p = X - Poly.one()
    sos = SOSDecomposition((F(1),), (Poly.constant(2),), p)
    lifted = hensel_lift_sos(sos, 4, Poly.constant(4))
    assert lifted.polys == (Poly.constant(2),)  # 2^2 = 4 exactly at every level
    assert lifted.modulus == p**4


def test_hensel_lift_rejects_p_dividing_g():
    sos = SOSDecomposition((F(1),), (Poly.one(),), F_CUBE)
    with pytest.raises(NoInvertibleSquare):
        hensel_lift_sos(sos, 2, F_CUBE * X)


def test_hensel_lift_refuses_when_every_square_is_divisible_by_p():
    # p = x^2 - 1 does not divide g = (x - 1)^2, but its one square x - 1
    # shares the factor x - 1 with p
    sos = SOSDecomposition((F(1),), (X - Poly.one(),), X**2 - Poly.one())
    with pytest.raises(NoInvertibleSquare, match="every square is divisible by p"):
        hensel_lift_sos(sos, 2, (X - Poly.one()) ** 2)


def test_hensel_lift_refuses_a_decomposition_of_another_polynomial():
    # TOY_SOS sums to x modulo x^3 - 2, not to x + 1
    with pytest.raises(NoInvertibleSquare, match="not an SOS decomposition of g modulo p"):
        hensel_lift_sos(TOY_SOS, 2, X + Poly.one())


def test_hensel_lift_degree_bounds():
    lifted = hensel_lift_sos(TOY_SOS, 3, X)
    modulus = F_CUBE**3
    assert all(h.degree < modulus.degree for h in lifted.polys)
    assert ((_square_sum(lifted) - X) % modulus).is_zero


def test_newton_iterates_invariant_random():
    rng = random.Random(616)
    done = 0
    while done < 60:
        p = random_irreducible(rng)
        n_terms = rng.randint(1, 3)
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n_terms))
        polys = []
        for _ in range(n_terms):
            h = random_nonzero_poly(rng, int(p.degree) - 1, 9) % p
            polys.append(h)
        if polys[-1].is_zero or gcd(polys[-1], p).degree != 0:
            continue
        g = _square_sum(SOSDecomposition(weights, tuple(polys), p)) % p
        if (g % p).is_zero:
            continue
        e = rng.randint(2, 9)
        j = len(polys) - 1
        rest = Poly.zero()
        for i in range(len(polys) - 1):
            rest = rest + polys[i] * polys[i] * weights[i]
        gbar = (g - rest) * (1 / weights[j])
        iterates = newton_sqrt_iterates(gbar, polys[j], p, e)
        for k, h in enumerate(iterates):
            # together these three pin each iterate uniquely
            assert ((h * h - gbar) % p ** (2**k)).is_zero
            assert ((h - polys[j]) % p).is_zero
            assert h.degree < 2**k * p.degree
        sos = SOSDecomposition(weights, tuple(polys), p)
        lifted = hensel_lift_sos(sos, e, g)
        assert ((_square_sum(lifted) - g) % p**e).is_zero
        assert all(h.degree < e * p.degree for h in lifted.polys)
        done += 1


def test_newton_checks_the_square_invariant():
    # h0^2 = 1 is not 3 modulo x^2 - 2, so step 0 finds a non-zero remainder
    with pytest.raises(AssertionError, match="Newton square invariant broken"):
        newton_sqrt_iterates(Poly.constant(3), Poly.one(), X**2 - Poly.constant(2), 2)


def test_newton_at_e_1_returns_h0_with_no_inverse():
    # x - 1 has no inverse modulo x^2 - 1, and e = 1 asks for none
    p, h0 = X**2 - Poly.one(), X - Poly.one()
    assert newton_sqrt_iterates(h0 * h0 % p, h0, p, 1) == [h0]


def test_newton_refuses_a_root_sharing_a_factor_with_p():
    p, h0 = X**2 - Poly.one(), X - Poly.one()
    with pytest.raises(NotIrreducible, match="is not invertible modulo"):
        newton_sqrt_iterates(h0 * h0 % p, h0, p, 2)


def test_crt_single_part_reduces_only():
    sos = SOSDecomposition((F(2),), (Poly.one(),), X - Poly.one())
    combined = crt_combine_sos([sos])
    assert combined.weights == (F(2),)
    assert combined.polys == (Poly.one(),)
    assert combined.modulus == X - Poly.one()


def test_crt_two_linear_parts():
    one = Poly.one()
    part_a = SOSDecomposition((F(1),), (one,), X)
    part_b = SOSDecomposition((F(1),), (one,), X - one)
    combined = crt_combine_sos([part_a, part_b])
    total = X * (X - one)
    assert ((_square_sum(combined) - one) % total).is_zero
    assert all(h.degree < total.degree for h in combined.polys)


def test_crt_evaluation_oracle():
    one = Poly.one()
    part_a = SOSDecomposition((F(1),), (one,), X - one)  # 1 = 1^2 matches g(1) = 1
    part_b = SOSDecomposition((F(1),), (Poly.constant(2),), X - Poly.constant(4))  # 4 = 2^2
    combined = crt_combine_sos([part_a, part_b])
    s = _square_sum(combined)
    assert s(F(1)) == 1
    assert s(F(4)) == 4
    assert ((s - X) % ((X - one) * (X - Poly.constant(4)))).is_zero


def test_crt_rejects_common_factor():
    part = SOSDecomposition((F(1),), (Poly.one(),), X)
    with pytest.raises(NotCoprime):
        crt_combine_sos([part, part])
    # 2x - 1 and x - 1/2 are one linear modulus up to a unit
    halves = (2 * X - Poly.one(), X - Poly.constant(F(1, 2)))
    with pytest.raises(NotCoprime):
        crt_combine_sos([SOSDecomposition((F(1),), (Poly.one(),), m) for m in halves])
    # the first two moduli are coprime; the third shares x with the first
    moduli = (X, X + Poly.one(), X * (X + Poly.constant(2)))
    parts = [SOSDecomposition((F(1),), (Poly.one(),), m) for m in moduli]
    with pytest.raises(NotCoprime):
        crt_combine_sos(parts)


def test_crt_refuses_a_quadratic_modulus_that_shares_a_factor():
    # x(x + 2) comes first, so its own inverse check finds the shared x
    # before the linear modulus x is reached
    moduli = (X * (X + Poly.constant(2)), X + Poly.one(), X)
    parts = [SOSDecomposition((F(1),), (Poly.one(),), m) for m in moduli]
    with pytest.raises(NotCoprime, match=r"^x\^2 \+ 2\*x shares a factor"):
        crt_combine_sos(parts)


def test_crt_linear_moduli_match_the_extended_gcd_formula(monkeypatch):
    calls = []
    real = lifting.extended_gcd
    monkeypatch.setattr(lifting, "extended_gcd", lambda a, b: calls.append(a) or real(a, b))
    rng = random.Random(2017)
    for _ in range(20):
        roots, size = {F(1, 2)}, rng.randint(2, 12)  # with the non-monic modulus 2x - 1
        while len(roots) < size:
            roots.add(F(rng.randint(-40, 40), rng.randint(1, 6)))
        parts = []
        for r in sorted(roots):
            lead = 2 if r == F(1, 2) else F(rng.choice((1, -1, 3, 7)), rng.randint(1, 4))
            modulus = Poly([-lead * r, lead])
            n_terms = rng.randint(1, 2)
            ws = tuple(F(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(n_terms))
            hs = tuple(Poly.constant(F(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(n_terms))
            parts.append(SOSDecomposition(ws, hs, modulus))
        total = Poly.one()
        for sos in parts:
            total = total * sos.modulus
        expected = []
        for sos in parts:
            modulus = sos.modulus
            complement = total // modulus
            _, s, _ = extended_gcd(complement % modulus, modulus)
            expected += [complement * ((s * h) % modulus) for h in sos.polys]
        combined = crt_combine_sos(parts)
        assert combined.polys == tuple(expected)
        assert combined.weights == tuple(w for sos in parts for w in sos.weights)
        assert combined.modulus == total
    assert calls == []


def test_crt_random_congruences():
    rng = random.Random(9000)
    done = 0
    while done < 40:
        p1 = random_irreducible(rng)
        p2 = random_irreducible(rng)
        if gcd(p1, p2).degree != 0:
            continue
        parts = []
        g_parts = []
        for p in (p1, p2):
            n_terms = rng.randint(1, 2)
            ws = tuple(F(rng.randint(1, 6)) for _ in range(n_terms))
            hs = tuple(random_nonzero_poly(rng, int(p.degree) - 1, 9) % p for _ in range(n_terms))
            sos = SOSDecomposition(ws, hs, p)
            parts.append(sos)
            g_parts.append(_square_sum(sos) % p)
        # independent solution of the congruence system (classic CRT formula)
        total = p1 * p2
        _, s1, _ = extended_gcd(total // p1, p1)
        _, s2, _ = extended_gcd(total // p2, p2)
        g = (s1 * (total // p1) * g_parts[0] + s2 * (total // p2) * g_parts[1]) % total
        combined = crt_combine_sos(parts)
        idempotents = (s1 * (total // p1), s2 * (total // p2))
        assert combined.polys == tuple(
            (e * h) % total for e, sos in zip(idempotents, parts) for h in sos.polys
        )
        assert ((_square_sum(combined) - g) % p1).is_zero
        assert ((_square_sum(combined) - g) % p2).is_zero
        assert ((_square_sum(combined) - g) % total).is_zero
        done += 1


def test_reduce_example_with_gcd():
    f = X * F_CUBE**2
    red = reduce_nonneg_to_strict(f, X**3)
    assert red.d == X
    assert red.cofactor == F_CUBE**2
    assert red.factors == ((F_CUBE, 2),)
    assert red.b == X
    assert ((red.b * red.d * red.d - X**3) % f).is_zero


def test_identity_check_catches_a_wrong_last_newton_iterate(monkeypatch):
    # no check after the Newton loop: the final identity check catches it
    real = lifting.newton_sqrt_iterates

    def corrupt(gbar, h0, p, e):
        iterates = real(gbar, h0, p, e)
        return iterates[:-1] + [iterates[-1] + Poly.one()]

    assert verify(certify_nonnegative(X * F_CUBE**2, X**3))
    monkeypatch.setattr(lifting, "newton_sqrt_iterates", corrupt)
    with pytest.raises(AssertionError, match="certificate identity"):
        certify_nonnegative(X * F_CUBE**2, X**3)


def test_identity_check_catches_a_wrong_b(monkeypatch):
    # no b*d^2 = g mod f check in the reduction: the final identity check
    # catches a b that breaks it, here one still positive at the real root
    real = lifting.reduce_nonneg_to_strict

    def corrupt(f, g):
        red = real(f, g)
        return dataclasses.replace(red, b=red.b + Poly.one())

    f, g = X**2 * F_CUBE, X**2 * (X + Poly.constant(3))
    assert verify(certify_nonnegative(f, g))
    monkeypatch.setattr(lifting, "reduce_nonneg_to_strict", corrupt)
    with pytest.raises(AssertionError, match="certificate identity"):
        certify_nonnegative(f, g)


def test_reduce_counterexample():
    with pytest.raises(HypothesisViolated):
        reduce_nonneg_to_strict(X**2, X)


def test_reduce_coprime_case():
    red = reduce_nonneg_to_strict(F_CUBE, X**4)
    assert red.d == Poly.one()
    assert red.cofactor == F_CUBE
    assert red.b == (X**4) % F_CUBE


def test_reduce_zero_g():
    # gcd(f, 0) is monic f, so the cofactor is constant and has no factors
    red = reduce_nonneg_to_strict(F_CUBE, Poly.zero())
    assert red.d == F_CUBE
    assert red.cofactor.degree == 0
    assert red.factors == ()
    assert red.b == Poly.zero()


def test_reduce_repeated_root_shared():
    # f = (x-1)^2, g = x-1: d = x-1 equals f/d, so the hypothesis fails
    f = (X - Poly.one()) ** 2
    with pytest.raises(HypothesisViolated):
        reduce_nonneg_to_strict(f, X - Poly.one())


def test_reduce_g_multiple_of_f():
    # f = (x-1)^2 and g = (x-1)^2: gcd is all of f, f/d is constant, and the
    # certificate is the bare quotient g = 0 + 1*f
    f = (X - Poly.one()) ** 2
    red = reduce_nonneg_to_strict(f, f)
    assert red.d == f
    assert red.cofactor.degree == 0
    cert = certify_nonnegative(f, f)
    assert cert.weights == ()
    assert cert.q == Poly.one()
    assert verify(cert)


def test_certify_nonnegative_worked_example():
    f = X * F_CUBE**2
    g = X**3
    cert = certify_nonnegative(f, g)
    assert verify(cert)
    assert len(cert.weights) == 3
    assert all(h.degree < 7 for h in cert.polys)
    # every square carries the gcd factor d = x
    assert all(h.coefficient(0) == 0 for h in cert.polys)


def test_certify_nonnegative_zero_g():
    cert = certify_nonnegative(F_CUBE, Poly.zero())
    assert cert.weights == ()
    assert cert.q == Poly.zero()
    assert verify(cert)


# squarefree with four factors, two of them linear: d = 1, and no Hensel lift
F_SPLIT = (X - Poly.one()) * (X + Poly.constant(2)) * (X**2 - Poly.constant(2)) * (
    X**2 + X + Poly.one()
)
G_SPLIT = X**2 + Poly.constant(3)


def test_certify_nonnegative_refuses_a_wrong_square_sum(monkeypatch):
    # the true decomposition with its first weight doubled: S + q*f != g for
    # q = (g - S) // f, since f is squarefree and deg h < deg f
    combine = lifting.crt_combine_sos

    def doubled(parts):
        sos = combine(parts)
        weights = (2 * sos.weights[0],) + sos.weights[1:]
        return SOSDecomposition(weights, sos.polys, sos.modulus)

    monkeypatch.setattr(lifting, "crt_combine_sos", doubled)
    cert = None
    with pytest.raises(AssertionError, match="identity"):
        cert = certify_nonnegative(F_SPLIT, G_SPLIT)
    assert cert is None


def test_certify_nonnegative_sums_the_emitted_squares_once(monkeypatch):
    summed = []

    def spy(module):
        original = module.weighted_square_sum

        def wrapper(weights, polys):
            polys = tuple(polys)
            summed.append(polys)
            return original(weights, polys)

        monkeypatch.setattr(module, "weighted_square_sum", wrapper)

    for module in (lifting, exactify, certificate):
        spy(module)
    verified = []
    monkeypatch.setattr(certificate, "verify", verified.append)
    cert = certify_nonnegative(F_SPLIT, G_SPLIT)
    assert len(cert.weights) > 1
    assert summed.count(cert.polys) == 1
    assert verified == []
    assert verify(cert)


def test_certify_nonnegative_multiplies_by_d_only_when_d_is_not_one(monkeypatch):
    combined = []
    combine = lifting.crt_combine_sos

    def spy(parts):
        combined.append(combine(parts))
        return combined[-1]

    monkeypatch.setattr(lifting, "crt_combine_sos", spy)
    cert = certify_nonnegative(F_SPLIT, G_SPLIT)  # d = 1
    assert cert.polys is combined[-1].polys
    d = X - Poly.constant(3)
    cert = certify_nonnegative(F_SPLIT * d, G_SPLIT * d * d)
    assert cert.polys == tuple(d * h for h in combined[-1].polys)
    assert verify(cert)


def test_certify_nonnegative_ill_conditioned_irreducible():
    # f is irreducible with ill-conditioned roots: at any working precision,
    # polyroots converges only with far more than its default 10 extra bits
    f = Poly.one()
    for k in range(1, 11):
        f = f * (X - Poly.constant(k))
    f = f + Poly.constant(F(1, 7))
    cert = certify_nonnegative(f, X**2 + Poly.one())
    assert verify(cert)


def test_certify_nonnegative_counterexample():
    with pytest.raises(HypothesisViolated):
        certify_nonnegative(X**2, X)


def test_certify_squarefree_coprime_matches_per_factor():
    # f splits into two irreducibles; the per-factor strict certificates glue
    # into a decomposition congruent to g modulo each factor
    f = (X**2 - Poly.constant(2)) * (X**2 + Poly.one())
    g = X**2 + Poly.constant(3)  # positive at the real roots +-sqrt(2)
    cert = certify_nonnegative(f, g)
    assert verify(cert)
    s = _square_sum(SOSDecomposition(cert.weights, cert.polys, f))
    for factor in (X**2 - Poly.constant(2), X**2 + Poly.one()):
        assert ((s - g) % factor).is_zero


def test_certify_nonnegative_detects_negative():
    f = (X - Poly.one()) * (X - Poly.constant(3)) * (X**2 + Poly.one())
    g = X - Poly.constant(2)  # negative at the root 1
    with pytest.raises(NotNonnegative) as info:
        certify_nonnegative(f, g)
    assert (info.value.factor, info.value.negative, info.value.real) == (X - Poly.one(), 1, 1)
    # with d = x^2, the count for b = g/d^2 modulo x^2 - 2 holds for g
    sqrt2 = X**2 - Poly.constant(2)
    f = X**2 * sqrt2 * (X - Poly.constant(3))
    with pytest.raises(NotNonnegative) as info:
        certify_nonnegative(f, X**2 * (X - Poly.constant(2)))
    assert (info.value.factor, info.value.negative, info.value.real) == (sqrt2, 2, 2)


def test_certify_negative_leading_coefficient():
    f = -(X**2 + Poly.one())
    cert = certify_nonnegative(f, Poly.one())
    assert verify(cert)


def test_certify_nonnegative_certifies_a_linear_factor_by_its_residue(monkeypatch):
    # x - 1 and x - 2 are certified by b(1) and b(2); only x^2 + 1 needs a Gram matrix
    calls = []
    strict = lifting.certify_strict_squarefree

    def spy(f, g):
        calls.append(f)
        return strict(f, g)

    monkeypatch.setattr(lifting, "certify_strict_squarefree", spy)
    f = (X - Poly.one()) * (X - Poly.constant(2)) * (X**2 + Poly.one())
    cert = certify_nonnegative(f, X**2 + Poly.constant(3))
    assert verify(cert)
    assert calls == [X**2 + Poly.one()]


def test_certify_linear_modulus():
    cert = certify_nonnegative(X - Poly.constant(2), X)
    assert verify(cert)
    assert cert.weights == (F(2),)
    assert cert.polys == (Poly.one(),)
    assert cert.q == Poly.one()


def test_certify_rational_coefficients():
    f = Poly([F(-1, 3), 0, 1]) * Poly([F(1, 2), 1]) ** 2
    g = Poly([F(1, 4), 0, 1])
    cert = certify_nonnegative(f, g)
    assert verify(cert)


def test_certify_high_degree_g():
    cert = certify_nonnegative(X**2 - Poly.constant(2), X**6 + Poly.one())
    assert verify(cert)


def test_certify_shared_square_factor():
    u = X - Poly.constant(3)
    v = X - Poly.one()
    cert = certify_nonnegative(u * v**2, v**2 * (X**2 + Poly.one()))
    assert verify(cert)


def test_certify_odd_contact_rejected():
    u = X - Poly.constant(3)
    v = X - Poly.one()
    with pytest.raises(HypothesisViolated):
        certify_nonnegative(v**2 * u, v * (X**2 + Poly.one()))


def test_b_positivity_transfer_random():
    rng = random.Random(140)
    done = 0
    while done < 25:
        d = random_irreducible(rng)
        cof1 = random_irreducible(rng)
        cof2 = random_irreducible(rng)
        if gcd(d, cof1).degree != 0 or gcd(d, cof2).degree != 0 or gcd(cof1, cof2).degree != 0:
            continue
        cof = cof1 * cof2
        w = random_nonzero_poly(rng, 2, 6)
        g = d * d * (w * w + Poly.one())  # non-negative wherever d*d is
        f = d * cof
        if gcd(g, cof).degree != 0:
            continue
        red = reduce_nonneg_to_strict(f, g)
        assert ((red.b * red.d * red.d - g) % f).is_zero
        sf = red.cofactor
        if sf.degree >= 1:
            prof = find_roots(sf.monic())
            for xi in prof.real_roots:
                bd2 = red.b(xi) * red.d(xi) ** 2
                assert abs(bd2 - g(xi)) < 1e-12 * (1 + abs(g(xi)))
                assert red.b(xi) > 0
        done += 1


@pytest.mark.parametrize(
    "f, g",
    [
        # the shape of split_linear's lin16+quad1: 16 rational roots and a
        # quadratic without real roots
        (math.prod((X - Poly.constant(F(k, 1 + k % 3)) for k in range(1, 17)),
                   start=X * X + Poly.one()),
         X * X + X + Poly.constant(3)),
        (X**2 * (X**2 - Poly.constant(2)) ** 8, X**2 * (X**2 + X + Poly.one())),
    ],
    ids=["lin16+quad1", "x^2(x^2-2)^8"],
)
def test_the_exact_kernel_never_builds_the_fraction_view(f, g, monkeypatch):
    # the exact stages work on numerators over one denominator; only the
    # factor sort key (it fixes the term order) and numeric's mp conversion
    # read Poly.coeffs
    readers = []
    view = Poly.coeffs

    def spy(self):
        code = sys._getframe(1).f_code
        readers.append((code.co_filename.rsplit("/", 1)[-1], code.co_name))
        return view.fget(self)

    monkeypatch.setattr(Poly, "coeffs", property(spy))
    cert = certify_nonnegative(f, g)
    assert set(readers) <= {("factorq.py", "<lambda>"), ("numeric.py", "_mp_coeffs")}
    assert ("factorq.py", "<lambda>") in readers  # the spy sees the reads it allows
    readers.clear()
    assert verify(certificate.deserialize(certificate.serialize(cert)))
    assert readers == []
