"""Exact rationalization of the floating-point Gram pair.

Rounds (Q*, q*) at the fewest decimal digits for which a Cholesky test of
Q* finds a margin (``rounding_digits``), projects the rounded matrix back
onto the affine space of Gram matrices of g - q*f (Frobenius-orthogonal),
certifies positive definiteness by an exact LDL^T decomposition over Q, and
extracts the weighted sum-of-squares decomposition.  Every certificate
identity is re-verified exactly before it is returned, so floating-point
behaviour can never produce a wrong result.  ``certify_strict_squarefree``
decides the sign of g at the real roots of f exactly, by a Tarski query,
before any numeric work, so a refusal never rests on a float; it then owns
the one precision loop: each numeric call makes one attempt, at each rung
of PRECISION_LADDER in turn, and a rung starts its root finding from the
last rung's roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from . import numeric
from .numeric import DEFAULT_PRECISION_BITS, IllConditioned, antidiagonal_sums, exact_fraction
from .ratpoly import Poly, gcd, norm2_squared, sqrt_upper_bound, sturm_real_root_count
from .ratpoly import tarski_query, weighted_square_sum

Matrix = tuple[tuple[Fraction, ...], ...]

#: Most decimal digits a rounding may use, whatever the margin delta asks for,
#: when ||g mod f||_inf >= 1; each power of ten below 1 adds one digit.
DIGITS_CAP = 64
#: Working precisions of the numeric stage, one attempt each: every reason to
#: retry doubles the mantissa, from DEFAULT_PRECISION_BITS up to 848 bits.
PRECISION_LADDER = tuple(DEFAULT_PRECISION_BITS << k for k in range(4))
#: The rounding margin is sigma = (1 - 2^-32)*lambda_min(Q*).
_SHRINK = Fraction(2**32 - 1, 2**32)


class DegreeTooHigh(ValueError):
    """Polynomial degree exceeds 2n-2 for the requested matrix size."""


class NotPD(ArithmeticError):
    """Exact LDL^T check found a non-positive pivot."""


class SharedFactor(ValueError):
    """f and g share the non-constant factor ``common``: g vanishes at a root
    of f, real or complex, so the strictly positive method does not apply."""

    def __init__(self, common: Poly):
        super().__init__(f"f and g share the factor {common}")
        self.common = common


class NotNonnegative(ArithmeticError):
    """g < 0 at ``negative`` of the ``real`` distinct real roots of ``factor``,
    counted exactly."""

    def __init__(self, factor: Poly, negative: int, real: int):
        super().__init__(f"g < 0 at {negative} of the {real} real roots of {factor}")
        self.factor = factor
        self.negative = negative
        self.real = real


class PrecisionExhausted(ArithmeticError):
    """Every rung of the precision ladder failed.  ``attempts`` lists each
    rung as (bits, reason); a rung that reached the Gram stage states in its
    reason what the margin test found: rho, and the smallest Cholesky pivot
    of Q* - rho*I when there is one (see ``rounding_digits``)."""

    def __init__(self, attempts):
        self.attempts = tuple(attempts)
        self.precision_bits = self.attempts[-1][0]
        tried = "; ".join(f"{bits} bits: {reason}" for bits, reason in self.attempts)
        super().__init__(
            f"no positive-definite rounding found up to {self.precision_bits} bits; {tried}"
        )


@dataclass(frozen=True)
class GramLift:
    """Exact Gram certificate data: g = x^T Q x + q*f with Q symmetric."""

    Q: Matrix
    q: Poly
    f: Poly
    g: Poly

    def __post_init__(self):
        _check_symmetric(self.Q)
        if gram_poly(self.Q) + self.q * self.f != self.g:
            raise ValueError("GramLift identity g = x^T Q x + q*f does not hold")


@dataclass(frozen=True)
class SOSDecomposition:
    """Positive weighted squares: sum w_i h_i^2, taken modulo ``modulus``."""

    weights: tuple[Fraction, ...]
    polys: tuple[Poly, ...]
    modulus: Poly

    def __post_init__(self):
        if len(self.weights) != len(self.polys):
            raise ValueError("weights and polynomials must pair up")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if any(not h.degree < self.modulus.degree for h in self.polys):
            raise ValueError("square degrees must stay below the modulus degree")

    def square_sum(self) -> Poly:
        return weighted_square_sum(self.weights, self.polys)


def _check_symmetric(rows) -> None:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) if isinstance(x, int) else x for x in row) for row in rows)


def gram_poly(rows) -> Poly:
    """The quadratic form x^T Q x as a polynomial in x = [1, x, ..., x^{n-1}]."""
    return Poly(antidiagonal_sums(rows))


def gram_of_poly(p: Poly, n: int) -> Matrix:
    """Canonical antidiagonal-averaged Gram matrix of p (degree <= 2n-2).

    Entry (i, j) is p_{i+j}/s_{i+j} where s_k counts the entries on the
    k-th antidiagonal, so the quadratic form reproduces p exactly and the
    Frobenius norm is bounded by the coefficient norm of p.
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if p.degree > 2 * n - 2:
        raise DegreeTooHigh(f"degree {p.degree} exceeds 2n-2 = {2 * n - 2}")
    entries = [p.coefficient(k) / (min(k, 2 * n - 2 - k) + 1) for k in range(2 * n - 1)]
    return tuple(tuple(entries[i + j] for j in range(n)) for i in range(n))


def project(qbar, target: Poly) -> Matrix:
    """Frobenius-orthogonal projection onto {Q : x^T Q x = target}.

    Implemented as Q - Q_e with e the quadratic-form error, which subtracts
    a combination of the antidiagonal (Hankel) basis matrices.
    """
    qbar = _as_matrix(qbar)
    _check_symmetric(qbar)
    n = len(qbar)
    if target.degree > 2 * n - 2:
        raise DegreeTooHigh(f"degree {target.degree} exceeds 2n-2 = {2 * n - 2}")
    err = gram_poly(qbar) - target
    correction = gram_of_poly(err, n)
    return tuple(
        tuple(qbar[i][j] - correction[i][j] for j in range(n)) for i in range(n)
    )


def _denominator(f: Poly) -> Fraction:
    """D = n + (n-1)*sqrt(n)*||f||, its square roots rounded up."""
    n = int(f.degree)
    if n < 1:
        raise ValueError("f must have degree >= 1")
    return n + (n - 1) * sqrt_upper_bound(Fraction(n)) * sqrt_upper_bound(norm2_squared(f))


def delta_bound(f: Poly, sigma, rho) -> Fraction:
    """Safe rounding precision 0.99*(sigma - rho)/(n + (n-1)*sqrt(n)*||f||).

    Computed from exact rationals (the square roots rounded up); a
    non-positive result means that a margin sigma leaves no rounding room.
    """
    return Fraction(99, 100) * (exact_fraction(sigma) - exact_fraction(rho)) / _denominator(f)


def rounding_digits(f: Poly, gram: numeric.InteriorGram, bits: int, cap: int):
    """(pivot, digits): the fewest decimal digits d that the margin of the
    interior pair allows, or cap + 1 when no d <= cap does; (None, None)
    when there is no margin at all.

    d digits suffice when the rounding precision 10^-d is at most
    ``delta_bound`` of the margin sigma = (1 - 2^-32)*lambda_min(Q*), that
    is when sigma >= s_d = rho + 10^-d*D/0.99.  Each such condition is
    tested by the Cholesky factorization of Q* - (s_d/(1 - 2^-32))*I at
    ``bits`` (``numeric.smallest_pivot``); sigma itself is never computed.
    s_0 = rho is tested first: when it fails, there is no margin.  Its
    smallest pivot p bounds lambda_min - s_0/(1 - 2^-32) from above, so no
    d with 10^-d*D/0.99 > (1 - 2^-32)*p can pass.  The lowest d left is
    tested next, then the rest up to ``cap`` by bisection: 2 +
    ceil(log2(cap)) tests at most.  p is returned with the digits.
    """
    rho, scale = exact_fraction(gram.rho), _denominator(f) / Fraction(99, 100)

    def pivot_at(s):  # the smallest pivot of Q* - (s/(1 - 2^-32))*I, or None
        return numeric.smallest_pivot(gram.Qstar, s / _SHRINK, bits)

    pivot = pivot_at(rho)
    if pivot is None:
        return None, None
    ratio = scale / (_SHRINK * exact_fraction(pivot))  # no 10^d below it can pass
    low, power = 1, 10  # the lowest decade that can pass (or cap + 1), and 10^low
    while low <= cap and power < ratio:
        low, power = low + 1, power * 10
    failed, passed, digits = low - 1, cap + 1, low  # failed < answer <= passed
    while passed - failed > 1:
        if pivot_at(rho + scale / 10**digits) is None:
            failed = digits
        else:
            passed = digits
        digits = (failed + passed) // 2
    return pivot, passed


def _round_scalar(value, digits: int) -> Fraction:
    scaled = exact_fraction(value) * 10**digits
    num, den = scaled.numerator, scaled.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return Fraction(q if num >= 0 else -q, 10**digits)


def round_to_digits(value: Sequence, digits: int):
    """Round floats to the nearest fractions with denominator 10**digits.

    Accepts a square matrix (rounded on the lower triangle and mirrored, so
    symmetry is exact by construction) or a flat coefficient sequence,
    returned as a Poly.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if value and isinstance(value[0], Sequence):
        n = len(value)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = _round_scalar(value[i][j], digits)
        return tuple(tuple(row) for row in rows)
    return Poly(_round_scalar(c, digits) for c in value)


def check_positive_definite(rows) -> Optional[tuple[tuple[Fraction, ...], tuple[Poly, ...]]]:
    """Exact square-root-free Cholesky (LDL^T) over Q, fraction-free.

    Symmetric Bareiss elimination (Math. Comp. 22, 1968) on the integer
    matrix A = den*Q, den the common denominator: its k-th pivot is the
    leading principal minor Delta_k of A, and each step divides exactly by
    the pivot before it.  Column k is final before step k updates the rows
    below it, and over Delta_k it is column k of the unit lower-triangular L,
    read in the basis 1, x, ..., x^{n-1} as the k-th square; its weight is
    D_k = Delta_k/(Delta_{k-1}*den).  Returns (weights, squares), with
    sum w_k h_k^2 = x^T Q x, when every pivot is strictly positive, which
    proves positive definiteness; returns None as soon as a pivot fails.
    """
    q = _as_matrix(rows)
    _check_symmetric(q)
    den = math.lcm(*(x.denominator for row in q for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row[: i + 1]] for i, row in enumerate(q)]
    n = len(a)
    weights: list[Fraction] = []
    squares: list[Poly] = []
    previous = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return None
        weights.append(Fraction(pivot, previous * den))
        squares.append(Poly.from_integers([0] * k + [a[i][k] for i in range(k, n)], pivot))
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(k + 1, i + 1):
                row[j] = (pivot * row[j] - aik * a[j][k]) // previous
        previous = pivot
    return tuple(weights), tuple(squares)


def gram_to_sos(lift: GramLift) -> SOSDecomposition:
    """Weighted SOS of the Gram certificate, read off the exact LDL^T
    (``check_positive_definite``); NotPD when a pivot is not positive."""
    ldl = check_positive_definite(lift.Q)
    if ldl is None:
        raise NotPD("Gram matrix is not positive definite")
    return SOSDecomposition(*ldl, lift.f)


def certify_strict_squarefree(f: Poly, g: Poly) -> tuple[GramLift, SOSDecomposition]:
    """Exact rational Gram certificate for g strictly positive at the real
    roots of a squarefree f.

    First, with no numeric work: SharedFactor when gcd(f, g) is not
    constant, and NotNonnegative when g < 0 at some real root of f: with
    g_red = g mod f coprime to f, the number of real roots where g < 0 is
    (real - TaQ(g_red, f))/2, real being the Sturm count.  A linear f takes
    the same path: any 1x1 rounding projects to (g_red).

    Then, pipeline per attempt: approximate roots, build the interior pair
    (Q*, q*), pick the fewest rounding digits its margin allows
    (``rounding_digits``, at most the cap: 64 plus one per power of ten by
    which ||g_red||_inf falls below 1), round once at them, project, and
    check positive definiteness exactly.  Whatever fails (IllConditioned
    from the numeric stage, no margin, or the exact check), the next rung of
    PRECISION_LADDER is tried; after the last one, PrecisionExhausted names
    every rung's reason, with rho and the smallest pivot for a rung that
    reached the Gram stage, and the cap when that rung rounded at it.  Each
    rung's root finding starts from the roots of the last rung that found
    them.  The Gram stage calls a value of g at a real root, or a pair
    weight, by its own error bound alone (see ``numeric.build_interior_gram``),
    so a rung fails on a value only when that rung cannot resolve it, and
    the first rung that does may certify.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("f must have degree >= 1")
    common = gcd(f, g)
    if common.degree > 0:
        raise SharedFactor(common)
    q_reduction, g_red = divmod(g, f)
    real = sturm_real_root_count(f)
    negative = (real - tarski_query(f, g_red)) // 2
    if negative:
        raise NotNonnegative(f, negative, real)

    # a g_red scaled below 1 needs floor(log10(1/||g_red||_inf)) more digits
    height, cap = Fraction(max(map(abs, g_red.nums)), g_red.den), DIGITS_CAP
    while height * 10 <= 1:
        height, cap = height * 10, cap + 1
    attempts = []
    roots = None  # the last rung's roots
    for bits in PRECISION_LADDER:
        previous, roots = roots, None  # a rung whose roots fail leaves no seeds
        try:
            roots = numeric.find_roots(f, bits, real=real, previous=previous)
            gram = numeric.build_interior_gram(f, g_red, roots)
        except IllConditioned as exc:
            attempts.append((bits, str(exc)))
            continue
        pivot, digits = rounding_digits(f, gram, bits, cap)
        if pivot is None:
            failure = "no rounding margin (Q* - rho*I has no Cholesky factor; "
        else:
            clamped, digits = digits > cap, min(digits, cap)
            qbar = round_to_digits(gram.Qstar, digits)
            q_round = round_to_digits(gram.qstar, digits)
            target = g_red - q_round * f
            q_exact = project(qbar, target)
            ldl = check_positive_definite(q_exact)
            if ldl is not None:
                lift = GramLift(q_exact, q_round + q_reduction, f, g)
                sos = SOSDecomposition(*ldl, f)
                if sos.square_sum() != target:  # GramLift proved target = gram_poly(q_exact)
                    raise AssertionError("LDL reconstruction mismatch")
                return lift, sos
            cap_note = ", the cap; the margin asks for more" if clamped else ""
            failure = (f"no positive exact LDL^T at {digits} digits{cap_note} "
                       f"(smallest pivot={mpmath.nstr(pivot, 6)}, ")
        attempts.append((bits, f"{failure}rho={mpmath.nstr(gram.rho, 6)})"))

    raise PrecisionExhausted(attempts)
