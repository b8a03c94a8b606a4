"""Floating-point stage of the certification pipeline.

Root approximation by Newton refinement, a real/pair split cross-checked
against the exact Sturm count, the Lagrange basis at the real roots and pair
representatives, and assembly of the interior Gram pair (Q*, q*) whose exact
rounding is performed downstream.  ``find_roots`` refines the previous
rung's roots, or else the seeds of a Durand-Kerner pass in builtin complex
floats, by Newton's method on raw ``libmp`` values: a real root in real
arithmetic, a conjugate pair through its representative alone, whose exact
conjugate is the other root.  The step count follows from the precision.
When a root stalls or the refined roots fail a check, mpmath's ``polyroots``
runs once from the same seeds, with as many extra bits as the working
precision.  The split checks only the real count and that the other roots
pair up in number: the exact checks downstream prove whatever roots are
proposed, so a poor root is only a reason to retry.  Q* is summed on
mpmath's raw ``libmp`` values.  The one matrix kernel, ``smallest_pivot``,
is a Cholesky factorization of Q* - s*I at the working precision:
``exactify`` runs it to choose the rounding digits, and the exact LDL^T
downstream proves positive definiteness.  Deflation by a root and q* are
ratpoly's ``long_division`` in mp arithmetic.  Every function
here makes one attempt at the precision it is given (mpmath software floats
with a mantissa of that many bits) and raises IllConditioned when that
precision does not suffice; the caller (``exactify``) retries at the next
rung of its fixed precision ladder.  A rung continues from the one before
it: ``find_roots`` starts from the previous rung's roots when it is given
them.  ``build_interior_gram`` calls a value of g at a real root, or a pair
weight, when it exceeds TRUST_FACTOR times the bound on its evaluation
error, so a near-boundary value passes at the first rung that resolves it.
The sign of g at the real roots is decided exactly upstream, so this stage
never refuses an input: a linear f gives a 1x1 Gram pair, and a value of g
that cannot be called at a real root is only a reason to retry.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import mpmath
from mpmath import mp
from mpmath.libmp import fone, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_div
from mpmath.libmp import mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sqrt, round_nearest

from .ratpoly import Poly, horner, long_division, norm2_squared, sqrt_upper_bound
from .ratpoly import sturm_real_root_count

DEFAULT_PRECISION_BITS = 106
#: lambda = LAMBDA_FACTOR*|g| at each conjugate pair: any value above 1 keeps
#: Q* interior (positive definite), and 1 is the rank-deficient boundary.
LAMBDA_FACTOR = 2
#: A value of g at a real root, or a pair weight, is called when it exceeds
#: the bound on its evaluation error this many times.
TRUST_FACTOR = 2**16

_POLYROOTS_MAX_STEPS = 500
_SEED_MAX_STEPS = 200
_SEED_TOL = 1e-13
#: Correct bits credited to a float seed: a double's mantissa.
_FLOAT_SEED_BITS = sys.float_info.mant_dig
#: Extra bits of the Newton refinement, mpmath's default extraprec.
_GUARD_BITS = 10


class IllConditioned(ArithmeticError):
    """Root cluster or degenerate data at the working precision; retry higher.

    ``value``, when set, is the quantity build_interior_gram could not call
    (g at a real root, or a pair weight) and ``error`` the first-order bound
    on its evaluation error at that precision by which it was judged."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class RootProfile:
    """Approximate roots of a squarefree polynomial.

    ``real_roots`` is ascending; ``complex_pairs`` holds one representative
    per conjugate pair (positive imaginary part), sorted by real then
    imaginary part.  A pair's other root is the conjugate of its
    representative, which nothing downstream needs to hold.
    """

    real_roots: tuple
    complex_pairs: tuple
    precision_bits: int

    @property
    def degree(self) -> int:
        return len(self.real_roots) + 2 * len(self.complex_pairs)


@dataclass(frozen=True)
class InteriorGram:
    """Interior Gram pair: g = x^T Qstar x + qstar*f up to the residual rho.

    rho is an upper bound on the coefficient 2-norm of the identity
    residual.  How far Qstar is from singular, against rho, is tested
    downstream (``exactify.rounding_digits``) by ``smallest_pivot``.
    """

    Qstar: tuple
    qstar: tuple
    rho: object


def exact_fraction(x) -> Fraction:
    """Exact rational value of a binary float (mpf or Python float)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    if hasattr(x, "_mpf_"):
        num, den = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(num), int(den))
    raise TypeError(f"cannot convert {type(x).__name__} exactly to Fraction")


def antidiagonal_sums(rows, zero=Fraction(0)) -> list:
    """Coefficients of the quadratic form x^T Q x in x = [1, x, ..., x^{n-1}]:
    entry k sums Q[i][j] over i + j = k (the Hankel projection).  Summed row by
    row from ``zero``, so mpf sums always round in the same order."""
    sums = [zero] * (2 * len(rows) - 1)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            sums[i + j] += v
    return sums


def _mp_coeffs(p: Poly) -> list:
    return [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]


def _float_seeds(monic):
    """Durand-Kerner in builtin complex on ascending monic coefficients, from
    mpmath's own start (0.4+0.9j)^k; None unless every seed is finite."""
    cs = [complex(c) for c in monic]
    zs = [(0.4 + 0.9j) ** k for k in range(len(cs) - 1)]
    try:
        for _ in range(_SEED_MAX_STEPS):
            largest = 0.0
            for i, z in enumerate(zs):
                dz = horner(cs, z) / prod(z - w for j, w in enumerate(zs) if j != i)
                zs[i] = z - dz
                largest = max(largest, abs(dz))
            if largest < _SEED_TOL:
                break
    except (ZeroDivisionError, OverflowError):  # coincident or runaway seeds
        return None
    return zs if all(cmath.isfinite(z) for z in zs) else None


def _scaled_monic(coeffs):
    """(k, monic coefficients scaled by 2^-k), k = max_i floor(e_i / i) =
    floor(max_i log2|a_{n-i}|^(1/i)) with e_i = floor(log2|a_{n-i}|): by
    Fujiwara's bound every root y of the scaled polynomial has |y| <= 4."""
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    k = max(((mp.frexp(c)[1] - 1) // (n - j) for j, c in enumerate(monic[:-1]) if c), default=0)
    return k, [mp.ldexp(c, k * (j - n)) for j, c in enumerate(monic)]


def _polyroots(k, scaled, seeds):
    """Roots by mpmath's Durand-Kerner ``polyroots`` on the scaled monic
    polynomial (its stopping test is absolute), started from ``seeds`` in
    the scaled coordinates, or from mpmath's own start when they are None;
    IllConditioned if it does not converge.  One call, with as many extra
    bits as the working precision: a root whose refinement stalled has a
    condition number beyond _GUARD_BITS, which mpmath's default extraprec
    (the same 10 bits) cannot resolve either."""
    try:
        ys = mp.polyroots(scaled[::-1], maxsteps=_POLYROOTS_MAX_STEPS, cleanup=False,
                          extraprec=mp.prec, roots_init=seeds)
    except mp.NoConvergence:
        raise IllConditioned(f"polyroots did not converge at {mp.prec} bits") from None
    return [y * mp.ldexp(1, k) for y in ys]  # exact: a power-of-two scale


def _value_and_slope(cs, z):
    """f(z) and f'(z), for the ascending coefficients cs of f as raw mpf
    values, with every sum of products rounded once to the working
    precision.

    A real z takes Horner's scheme.  A complex z = a + bi takes Goertzel's
    in real arithmetic (Knuth, TAOCP 4.6.4): dividing f by (x - z)(x -
    conj z) = x^2 - r*x + s, r = 2a and s = |z|^2, runs beta_k = c_k +
    r*beta_(k+1) - s*beta_(k+2) down to k = 0, and f(z) = beta_0 - beta_1 *
    conj(z).  The quotient u has the coefficients beta_2 .. beta_n, so the
    same scheme gives u(z), and f'(z) = 2bi*u(z) + beta_1."""
    prec = mp.prec
    if not isinstance(z, mpmath.mpc):
        x, value, slope = z._mpf_, fzero, fzero
        for c in reversed(cs):
            slope = mpf_add(mpf_mul(slope, x), value, prec, round_nearest)
            value = mpf_add(mpf_mul(value, x), c, prec, round_nearest)
        return mp.make_mpf(value), mp.make_mpf(slope)
    a, b = z._mpc_
    coef = mpf_neg(mpf_shift(a, 1)), mpf_add(mpf_mul(a, a), mpf_mul(b, b), prec, round_nearest)
    beta = beta_up = gamma = gamma_up = fzero  # beta_k and beta_(k+1); gamma likewise
    for k in range(len(cs) - 1, -1, -1):
        beta, beta_up = _residual(cs[k], coef, (beta, beta_up), prec), beta
        if k >= 2:
            gamma, gamma_up = _residual(beta, coef, (gamma, gamma_up), prec), gamma
    a, b = z.real, z.imag
    beta, beta_up, gamma, gamma_up = map(mp.make_mpf, (beta, beta_up, gamma, gamma_up))
    return (mp.mpc(beta - a * beta_up, b * beta_up),
            mp.mpc(beta_up - 2 * b * b * gamma_up, 2 * b * (gamma - a * gamma_up)))


def _newton(cs, z, steps, tol):
    """Root of f (raw ascending coefficients cs) near z by Newton's method
    at the working precision, or None when it stalls: f'(z) = 0, a step no
    shorter than the one before, or no step below tol*|z| within
    ``steps``."""
    last = mp.inf
    for _ in range(steps):
        value, slope = _value_and_slope(cs, z)
        if not slope:
            return None
        step = value / slope
        size = abs(step)
        if not size < last:
            return None
        z, last = z - step, size
        if size <= tol * abs(z):
            return z
    return None


def _distinct(roots) -> bool:
    """Whether no two roots coincide as doubles: the images of each two are
    apart by more than 4 units in the last place of a double, relative to
    |a| + |b|, which covers the rounding of both images and of their
    difference.  Two seeds that converged to one root fail, and so does a
    root beyond the float range."""
    cs = [complex(z) for z in roots]
    ulps = 4 * sys.float_info.epsilon
    return all(abs(a - b) > (abs(a) + abs(b)) * ulps for i, a in enumerate(cs) for b in cs[:i])


def _split_seeds(seeds, real: int, scale):
    """The float seeds, times ``scale``, as ``real`` real seeds (those
    nearest the real axis, as _classify measures it) and one seed above the
    axis per conjugate pair; None when the rest do not split evenly."""
    ranked = sorted(seeds, key=lambda y: abs(y.imag) / (1 + abs(y.real)))
    reps = [y for y in ranked[real:] if y.imag > 0]
    if 2 * len(reps) != len(seeds) - real:
        return None
    return [mp.mpf(y.real) * scale for y in ranked[:real]] + [mp.mpc(y) * scale for y in reps]


def _refined_roots(cs, seeds, seed_bits):
    """All roots of f (cs ascending) refined by Newton's method from
    ``seeds`` with ``seed_bits`` correct bits, at the working precision p,
    or None when a root stalls or two roots are not told apart.

    A real seed (mpf) takes real steps.  A complex seed (mpc) stands for a
    conjugate pair and takes complex steps; the exact conjugate of its
    refined value is the pair's other root.  The steps run with
    _GUARD_BITS more, and each root converges once a step is below
    2^-p*|z|, polyroots' own test made relative: a root whose condition
    number is beyond about 2^_GUARD_BITS stalls, and only the fallback
    resolves it.  Newton's method doubles the correct bits per step, so
    ceil(log2((p + _GUARD_BITS) / seed_bits)) steps reach the guarded
    precision, and one more step confirms."""
    tol = mp.ldexp(1, -mp.prec)
    steps = (-(-(mp.prec + _GUARD_BITS) // seed_bits) - 1).bit_length() + 1
    raw, roots = [c._mpf_ for c in cs], []
    with mp.extraprec(_GUARD_BITS):
        for z in seeds:
            z = _newton(raw, z, steps, tol)
            if z is None:
                return None
            roots.append(z)
    roots = [+z for z in roots]  # rounded to the working precision
    roots += [mpmath.conj(z) for z in roots if isinstance(z, mpmath.mpc)]
    return roots if _distinct(roots) else None


def _classify(z, expected_real: int, bits: int):
    """Split approximations into ascending real roots and the pair
    representatives, the roots above the axis, sorted by real then imaginary
    part.  A root is real when |Im z| < 2^-(bits/2)*(1 + |Re z|).  Raises
    IllConditioned when that count is not Sturm's, or when the other roots
    do not split evenly about the real axis; nothing else is checked."""
    thr = mp.ldexp(1, -(bits // 2))
    reals, reps = [], []
    for zi in z:
        if abs(mp.im(zi)) < thr * (1 + abs(mp.re(zi))):
            reals.append(mp.re(zi))
        elif mp.im(zi) > 0:
            reps.append(zi)
    if len(reals) != expected_real:
        raise IllConditioned(f"{len(reals)} real roots where Sturm counts {expected_real}")
    if 2 * len(reps) != len(z) - expected_real:
        raise IllConditioned("complex roots do not pair up")
    reals.sort()
    reps.sort(key=lambda c: (mp.re(c), mp.im(c)))
    return tuple(reals), tuple(reps)


def find_roots(
    f: Poly,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    *,
    real: int | None = None,
    previous: RootProfile | None = None,
) -> RootProfile:
    """All complex roots of a squarefree polynomial, classified real/pair, in
    one attempt at ``precision_bits``.

    The roots are refined by Newton's method from ``previous``, the profile
    of an attempt at a lower precision of the same degree, or else from the
    float seeds, split by the real count.  If a root stalls, or the refined
    roots fail a check, ``polyroots`` runs once from the same seeds.  The
    real count is validated against the exact Sturm count ``real``, computed
    here when the caller has not.  A mismatch, non-real roots that do not
    split evenly about the axis, or no convergence of ``polyroots`` raises
    IllConditioned: retry at a higher precision.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("find_roots needs degree >= 1")
    if precision_bits < 1:
        raise ValueError(f"precision_bits must be >= 1, got {precision_bits}")
    if real is None:
        real = sturm_real_root_count(f)  # raises NotSquarefree when repeated
    with mp.workprec(precision_bits):
        fc = _mp_coeffs(f)
        k, scaled = _scaled_monic(fc)
        if previous is not None and previous.degree == f.degree:
            start, seed_bits = previous.real_roots + previous.complex_pairs, previous.precision_bits
            # polyroots' seeds, each pair as (conjugate, representative): the
            # order of the seeds fixes the bits of the roots it returns
            ordered = [*previous.real_roots,
                       *(z for rep in previous.complex_pairs for z in (mp.conj(rep), rep))]
            seeds = [mp.mpc(x) * mp.ldexp(1, -k) for x in ordered]
        else:
            seeds = _float_seeds(scaled)
            start = seeds and _split_seeds(seeds, real, mp.ldexp(1, k))
            seed_bits = _FLOAT_SEED_BITS
        roots = start and _refined_roots(fc, start, seed_bits)
        if roots:
            try:
                return RootProfile(*_classify(roots, real, precision_bits), precision_bits)
            except IllConditioned:
                pass  # polyroots from the same seeds decides
        reals, reps = _classify(_polyroots(k, scaled, seeds), real, precision_bits)
    return RootProfile(reals, reps, precision_bits)


def lagrange_basis(f: Poly, roots: RootProfile) -> list:
    """Lagrange basis u_i = f/(f'(xi_i)(x - xi_i)) at the real roots and
    the pair representatives, in that order.

    Each u_i is a coefficient tuple of degree n-1 with u_i(xi_j) ~ delta_ij
    over all n roots; a poor basis shows in the exact residual bound rho and
    the exact LDL^T.  A real root's basis is built in real arithmetic.  A
    conjugate's basis, the exact conjugate of its representative's, is not
    built: a pair's Gram columns come from the representative's alone.
    """
    xs = roots.real_roots + roots.complex_pairs
    with mp.workprec(roots.precision_bits):
        # reals, representatives and conjugates differ in the sign of Im
        if len(set(xs)) < len(xs):
            raise IllConditioned("coincident roots at working precision")
        monic = _mp_coeffs(f.monic())
        basis = []
        for xi in xs:
            quo = long_division(list(monic), (-xi, 1), lambda c: c)  # f/(lc*(x - xi))
            dval = horner(quo, xi)  # f'(xi)/lc = prod_{j != i} (xi - xj)
            if dval == 0:
                raise IllConditioned("vanishing derivative at a root")
            basis.append(tuple(c / dval for c in quo))
        return basis


def _raw(cs):
    """The raw ``libmp`` values of mpf coefficients, and their magnitudes."""
    raw = [c._mpf_ for c in cs]
    return raw, [mpf_abs(c) for c in raw]


def _value_error(f_raw, g_raw, x):
    """First-order bound on the error of g(x) by Horner's scheme at an
    approximate root x of f: |g'(x)| times the Newton step |f(x)/f'(x)|,
    with f(x) widened by Horner's rounding error, plus the rounding error of
    g(x) itself.  f_raw and g_raw are ``_raw`` pairs of f and g.  f(x),
    f'(x) and g'(x) come from the Newton kernel.  Infinite when f'(x)
    evaluates to 0."""
    (fs, f_abs), (gs, g_abs) = f_raw, g_raw
    prec, size = mp.prec, abs(x)._mpf_
    unit = 4 * len(fs) * mp.eps  # Horner's rounding, per unit of sum |c_i||x|^i

    def rounding(magnitudes):  # Horner's scheme at |x|, rounding as mpf arithmetic does
        total = fzero
        for c in reversed(magnitudes):
            total = mpf_add(mpf_mul(total, size, prec, round_nearest), c, prec, round_nearest)
        return unit * mp.make_mpf(total)

    value, slope = _value_and_slope(fs, x)
    if not slope:
        return mp.inf
    step = (abs(value) + rounding(f_abs)) / abs(slope)
    return abs(_value_and_slope(gs, x)[1]) * step + rounding(g_abs)


def _call(value, error, what):
    """Pass a value above TRUST_FACTOR times the bound ``error`` on its
    evaluation error; else raise IllConditioned, naming that bound."""
    if not value > TRUST_FACTOR * error:
        raise IllConditioned(f"{what} (error bound {mpmath.nstr(error, 6)})", value, error)


def _residual(start, xs, ys, prec):
    """start - sum x*y over raw mpf values, exact until one rounding to prec."""
    sign, total, low, _ = start
    if sign:
        total = -total
    for (s, m, e, _), (t, n, f, _) in zip(xs, ys):
        if m and n:
            term, e = (m * n if s ^ t else -m * n), e + f
            if not total:
                total, low = term, e
            elif e >= low:
                total += term << (e - low)
            else:
                total, low = (total << (low - e)) + term, e
    return from_man_exp(total, low, prec, round_nearest)


def smallest_pivot(rows, shift: Fraction, prec: int):
    """Smallest pivot, as an mpf, of the Cholesky factorization of Q -
    shift*I at ``prec`` bits, for a symmetric matrix Q of mpf values and a
    rational shift; None unless every pivot is positive.  It runs on the raw
    ``libmp`` values, each entry of the factor and each pivot an exact dot
    product rounded once (``_residual``).  Every pivot is at least the
    smallest eigenvalue of Q - shift*I, so the smallest one bounds
    lambda_min(Q) - shift from above."""
    shift = from_rational(shift.numerator, shift.denominator, prec, round_nearest)
    lower, smallest = [], None
    for j, row in enumerate(rows):
        row = [x._mpf_ for x in row[: j + 1]]
        lj = []
        for i, li in enumerate(lower):
            lj.append(mpf_div(_residual(row[i], lj, li, prec), li[i], prec, round_nearest))
        pivot = _residual(row[j], [*lj, shift], [*lj, fone], prec)
        if pivot[0] or not pivot[1]:  # negative or zero
            return None
        if smallest is None or mpf_lt(pivot, smallest):
            smallest = pivot
        lj.append(mpf_sqrt(pivot, prec, round_nearest))
        lower.append(lj)
    return mp.make_mpf(smallest)


def build_interior_gram(f: Poly, g: Poly, roots: RootProfile) -> InteriorGram:
    """Interior Gram pair (Q*, q*) for g modulo squarefree f.

    Columns of the square-sum matrix come from the Lagrange basis: one column
    per real root weighted by g there, two real columns per conjugate pair
    with weight 2(lambda + Re g(xi)) and lambda = LAMBDA_FACTOR*|g(xi)|,
    which keeps the matrix positive definite.  g must be positive at every
    real root (decided exactly upstream).  A value there is called when it
    exceeds TRUST_FACTOR times the bound ``_value_error`` puts on its
    evaluation error; else IllConditioned is raised before the basis is
    built.  Each pair weight is called the same way, and a pair weight of 0
    (g evaluates to 0 at the pair) never is.  The bound is homogeneous in g,
    so a g scaled by a positive constant meets a test scaled with it.  Either
    IllConditioned carries the value and its bound.
    """
    n = int(f.degree)
    if not g.degree < n:
        raise ValueError("g must be reduced modulo f first")
    if roots.degree != n:
        raise ValueError("root profile does not match f")

    bits = roots.precision_bits
    with mp.workprec(bits):
        gc = _mp_coeffs(g)
        fc = _mp_coeffs(f)
        f_raw, g_raw = _raw(fc), _raw(gc)
        weights = [horner(gc, xi) for xi in roots.real_roots]
        for xi, val in zip(roots.real_roots, weights):
            _call(val, _value_error(f_raw, g_raw, xi),
                  f"g({mpmath.nstr(xi, 12)}) = {mpmath.nstr(val, 6)} is too close to zero to call")

        basis = lagrange_basis(f, roots)
        columns = basis[: len(weights)]
        # u: the basis polynomial at the pair's representative
        for rep, u in zip(roots.complex_pairs, basis[len(weights):]):
            gamma = horner(gc, rep)
            mag = abs(gamma)
            lam = LAMBDA_FACTOR * mag
            den = lam + mp.re(gamma)
            # den moves at most LAMBDA_FACTOR + 1 times as far as gamma
            _call(den, (LAMBDA_FACTOR + 1) * _value_error(f_raw, g_raw, rep),
                  f"degenerate pair weight {mpmath.nstr(den, 6)}")
            disc = max(lam**2 - mag**2, mp.mpf(0))
            ratio = mp.im(gamma) / den
            root_disc = mp.sqrt(disc) / den
            columns.append([mp.re(c) - ratio * mp.im(c) for c in u])
            weights.append(2 * den)
            columns.append([root_disc * mp.im(c) for c in u])
            weights.append(2 * den)

        # acc += w*col[r]*col[c] on the raw values, in the same order and
        # rounding as mpf arithmetic, with w*col[r] taken once per row
        raw = [[x._mpf_ for x in col] for col in columns]
        entries = [[fzero] * n for _ in range(n)]
        for r in range(n):
            scaled = [(mpf_mul(w._mpf_, col[r], bits, round_nearest), col)
                      for w, col in zip(weights, raw)]
            for c in range(r, n):
                acc = fzero
                for wr, col in scaled:
                    acc = mpf_add(acc, mpf_mul(wr, col[c], bits, round_nearest), bits,
                                  round_nearest)
                entries[r][c] = entries[c][r] = acc
        rows = [[mp.make_mpf(x) for x in row] for row in entries]

        # q* by long division of (g - x^T Q* x) by f
        quad = antidiagonal_sums(rows, mp.mpf(0))
        num = [(gc[i] if i < len(gc) else mp.mpf(0)) - quad[i] for i in range(2 * n - 1)]
        qstar = long_division(num, fc, lambda c: c / fc[-1])

        # exact residual norm: binary floats are rationals, so the identity
        # error of (Q*, q*) can be bounded without any floating-point slack;
        # every mantissa is shifted to the least exponent (at most 0)
        qraw = [x._mpf_ if x else fzero for x in qstar]  # a skipped slot holds int 0
        low = min([0] + [e for row in entries for _s, m, e, _b in row if m]
                  + [e for _s, m, e, _b in qraw if m])

        def num(x):
            sign, man, exp, _ = x
            return (-man if sign else man) << (exp - low)

        quad = antidiagonal_sums([[num(x) for x in row] for row in entries], 0)
        den = 1 << -low
        resid = Poly.from_integers(quad, den) + Poly.from_integers(map(num, qraw), den) * f - g
        rho_frac = sqrt_upper_bound(norm2_squared(resid)) * (1 + Fraction(1, 2**32))
        rho = mp.mpf(rho_frac.numerator) / rho_frac.denominator

        return InteriorGram(
            Qstar=tuple(tuple(x for x in row) for row in rows),
            qstar=tuple(qstar),
            rho=rho,
        )
