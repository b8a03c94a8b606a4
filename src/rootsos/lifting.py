"""Lifting machinery for the non-squarefree / non-negative case.

Extends an SOS decomposition modulo an irreducible p to modulo p**e by a
Newton square-root iteration applied to a single well-chosen square,
recombines decompositions across pairwise-coprime moduli through Chinese
remainder idempotents, and reduces the non-negative problem to the strictly
positive one via the Bezout identity 1 = s*(f/d) + t*d^2 with d = gcd(f, g).
Modulo a linear factor x - r of f/d, b is the constant b(r), its own
certificate; only a higher degree needs ``certify_strict_squarefree``.  At a
real root xi of a factor of f/d, g(xi) = b(xi)*d(xi)^2 with d(xi) != 0, so
the exact NotNonnegative count for b holds for g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certificate import Certificate
from .exactify import NotNonnegative, SOSDecomposition, certify_strict_squarefree
from .factorq import factor_over_Q
from .ratpoly import Poly, extended_gcd, gcd, weighted_square_sum


class NoInvertibleSquare(ValueError):
    """No square in the decomposition is invertible modulo p."""


class NotIrreducible(ValueError):
    """A gcd became non-trivial where irreducibility was assumed."""


class NotCoprime(ValueError):
    """Moduli for recombination must be pairwise coprime."""


class HypothesisViolated(ValueError):
    """gcd(f, g) and f/gcd(f, g) share a factor; no certificate can exist."""

    def __init__(self, d: Poly, cofactor: Poly, common: Poly):
        super().__init__(
            f"gcd(f,g) = {d} and f/gcd(f,g) = {cofactor} share the factor {common}"
        )
        self.d = d
        self.cofactor = cofactor


@dataclass(frozen=True)
class StrictReduction:
    """d = gcd(f, g), cofactor = f/d with its monic irreducible factors
    (p, e), and b with b*d^2 = g mod f.

    b is reduced modulo the cofactor; it is coprime to the cofactor and
    strictly positive at its real roots whenever g is non-negative at the
    real roots of f.
    """

    d: Poly
    cofactor: Poly
    factors: tuple[tuple[Poly, int], ...]
    b: Poly


def newton_sqrt_iterates(gbar: Poly, h0: Poly, p: Poly, e: int) -> list[Poly]:
    """Newton iterates h^(k+1) = h^(k) - (h^(k)^2 - gbar)*s/2 mod p^(2^(k+1)).

    Starting from h0 with h0^2 = gbar mod p and deg h0 < deg p, iterate
    k = ceil(log2(e)) times.  The inverse is Newton-lifted alongside the
    root: h0 is inverted once modulo p by extended_gcd, and
    s <- s*(2 - h^(k)*s) carries s to an inverse of h^(k) modulo M = p^(2^k).
    Step k divides h^(k)^2 - gbar by M: a remainder breaks the invariant
    h^(k)^2 = gbar mod M (AssertionError), and the quotient E gives
    h^(k+1) = h^(k) - M*((E*s/2) mod M), the reduction modulo M^2.  Each
    iterate is the unique square root of gbar modulo p^(2^k) that is
    congruent to h0 modulo p and has degree below 2^k*deg p.  The last
    iterate is not squared again: a wrong one breaks the identity that
    ``certify_nonnegative`` checks.  The returned list contains h0 and every
    iterate.
    """
    if e < 1:
        raise ValueError("target exponent must be >= 1")
    steps = (e - 1).bit_length()  # ceil(log2(e))
    iterates = [h0]
    if steps == 0:
        return iterates
    unit, s, _ = extended_gcd(h0, p)
    if unit != Poly.one():
        raise NotIrreducible(f"{h0} is not invertible modulo {p}")
    two = Poly.constant(2)
    h = h0
    modulus = p
    for k in range(steps):
        if k:
            s = (s * (two - h * s)) % modulus  # inverse of h modulo p^(2^k)
        error, rem = divmod(h * h - gbar, modulus)
        if not rem.is_zero:
            raise AssertionError("Newton square invariant broken")
        h = h - modulus * ((error * s * Fraction(1, 2)) % modulus)
        modulus = modulus * modulus
        iterates.append(h)
    return iterates


def hensel_lift_sos(sos: SOSDecomposition, e: int, g: Poly) -> SOSDecomposition:
    """Lift an SOS decomposition of g modulo its irreducible modulus p to
    modulo p**e.

    Only one square is replaced (the last one coprime to p); weights are
    unchanged.  Requires p not to divide g, which guarantees an invertible
    square exists.
    """
    if e < 1:
        raise ValueError("target exponent must be >= 1")
    if e == 1:
        return sos
    p = sos.modulus
    if (g % p).is_zero:
        raise NoInvertibleSquare("p divides g; the lifting lemma does not apply")

    j = next((j for j in reversed(range(len(sos.polys)))
              if sos.polys[j] and gcd(sos.polys[j], p).degree == 0), None)
    if j is None:
        raise NoInvertibleSquare("every square is divisible by p")

    rest = weighted_square_sum(
        (w for i, w in enumerate(sos.weights) if i != j),
        (h for i, h in enumerate(sos.polys) if i != j),
    )
    gbar = (g - rest) * (1 / sos.weights[j])
    if not ((sos.polys[j] * sos.polys[j] - gbar) % p).is_zero:
        raise NoInvertibleSquare("input is not an SOS decomposition of g modulo p")

    target = p**e
    polys = list(sos.polys)
    polys[j] = newton_sqrt_iterates(gbar, sos.polys[j], p, e)[-1] % target
    return SOSDecomposition(sos.weights, tuple(polys), target)


def crt_combine_sos(parts: Sequence[SOSDecomposition]) -> SOSDecomposition:
    """Combine SOS decompositions of one polynomial modulo their pairwise-coprime
    moduli f_i.

    Each square h is mapped to (s_i * C_i * h) mod F, where F is the product
    of the moduli, C_i = F/f_i, and s_i the inverse of C_i modulo f_i; the
    factor s_i * C_i is an idempotent modulo F, so squaring it does not
    disturb the congruence.  The mapped square is computed as
    C_i * ((s_i * h) mod f_i): it has degree below deg F and is congruent to
    s_i * C_i * h modulo F, so it is that same reduction, found modulo the
    small f_i.  C_i is invertible modulo f_i exactly when f_i is coprime to
    every other modulus, which is how coprimality is checked.  A linear f_i
    with root r reduces everything to its value at r: s_i * h mod f_i is the
    constant h(r) / C_i(r), and C_i(r) = 0 means a shared factor.  No parts
    give the empty sum modulo 1.
    """
    total = Poly.one()
    for sos in parts:
        total = total * sos.modulus

    weights: list[Fraction] = []
    polys: list[Poly] = []
    for sos in parts:
        fi = sos.modulus
        complement = total // fi
        weights.extend(sos.weights)
        if fi.degree == 1:
            root = Fraction(-fi.nums[0], fi.nums[1])
            value = complement(root)
            if not value:
                raise NotCoprime(f"{fi} shares a factor with another modulus")
            polys.extend(complement * (h(root) / value) for h in sos.polys)
        else:
            unit, s, _ = extended_gcd(complement % fi, fi)
            if unit != Poly.one():
                raise NotCoprime(f"{fi} shares a factor with another modulus")
            polys.extend(complement * ((s * h) % fi) for h in sos.polys)
    return SOSDecomposition(tuple(weights), tuple(polys), total)


def reduce_nonneg_to_strict(f: Poly, g: Poly) -> StrictReduction:
    """Reduce 'g non-negative at real roots of f' to a strict instance.

    With d = gcd(f, g) and the hypothesis gcd(d, f/d) = 1, the Bezout
    identity 1 = s*(f/d) + t*d^2 yields b = t*g (reduced modulo f/d) with
    b*d^2 = g mod f; b is then strictly positive at the real roots of f/d,
    and coprime to f/d, as a common factor would divide g and so d.
    b*d^2 = g mod f is left to the identity that ``certify_nonnegative``
    checks.  g = 0 and a non-zero constant f, which has no roots, give
    d = monic f and no factors; only f = 0 is refused.  f/d is factored over
    Q before the Bezout step, whose cost grows with deg(f/d), so a degree
    over the factorization cap is refused first.
    """
    if f.is_zero:
        raise ValueError("f must be non-zero")

    d = gcd(f, g)
    cofactor = f // d
    if d.degree > 0:
        common = gcd(d, cofactor)
        if common.degree != 0:
            raise HypothesisViolated(d, cofactor, common)

    if cofactor.degree == 0:
        return StrictReduction(d, cofactor, (), Poly.zero())

    factors = factor_over_Q(cofactor).factors
    t = extended_gcd(cofactor, d * d)[2]  # coprime by the hypothesis
    return StrictReduction(d, cofactor, factors, (t * g) % cofactor)


def certify_nonnegative(f: Poly, g: Poly) -> Certificate:
    """Certificate that g is non-negative at all real roots of f.

    Reduces to the strictly positive case, certifies each irreducible factor
    of f/d separately (a linear x - r by the constant b(r), any other p by
    ``certify_strict_squarefree`` on b mod p), Hensel-lifts to the factor
    multiplicities, recombines by CRT and restores the gcd part.  The
    emitted squares are summed once, S = sum w_i h_i^2, and one division of
    g - S by f gives q and proves the identity S + q*f = g: its remainder
    must be zero.  Positive weights and deg h_i < deg f hold by
    construction.  g = 0 and a constant f/d take the same path with no
    factors, so S = 0 and q = g/f.  Raises HypothesisViolated when gcd(f, g)
    and f/gcd(f, g) share a factor, and NotNonnegative for the first
    irreducible factor of f/d with a real root where g < 0.
    """
    reduction = reduce_nonneg_to_strict(f, g)
    parts: list[SOSDecomposition] = []
    for p, e in reduction.factors:
        if p.degree == 1:  # modulo x - r, b is the constant b(r), never zero
            value = reduction.b(Fraction(-p.nums[0], p.nums[1]))
            if value < 0:
                raise NotNonnegative(p, 1, 1)
            sos = SOSDecomposition((value,), (Poly.one(),), p)
        else:
            _lift, sos = certify_strict_squarefree(p, reduction.b % p)
        parts.append(hensel_lift_sos(sos, e, reduction.b))
    combined = crt_combine_sos(parts)

    polys = combined.polys
    if reduction.d != Poly.one():
        polys = tuple(reduction.d * h for h in polys)
    square_sum = weighted_square_sum(combined.weights, polys)
    quotient, rest = divmod(g - square_sum, f)
    if rest:
        raise AssertionError("certificate identity g = sum w_i h_i^2 + q*f fails")
    return Certificate(f, g, combined.weights, polys, quotient)
