"""Exact arithmetic over Q and Q[x].

A polynomial is a dense vector of integer numerators over one common
denominator (the layout of FLINT's ``fmpq_poly``): ``nums[i] / den`` is the
coefficient of x**i.  The form is canonical, den > 0, gcd(den, *nums) = 1
and no trailing zero, so equality and hashing compare (nums, den).  The zero
polynomial is the empty vector over 1 and its degree is the sentinel
``NEG_INF``, which compares below every integer.  ``Poly.coeffs``, the
coefficients as ``fractions.Fraction``, is a view built on first read.  All
values are immutable and all operations are pure functions; each works on
the numerators and brings its result to canonical form by one gcd.

Products run through the integers by Kronecker substitution: the numerators
are packed as the digits of one big integer at a byte width wide enough for
every digit of the product, one big-integer multiplication does the
convolution, and the product digits are unpacked over the product of the two
denominators.  ``weighted_square_sum`` squares each h_i the same way and sums
the integer squares over one common denominator.

Packing gives every coefficient the width of the largest one.  That pays
for itself on dense operands of similar sizes, but would inflate sparse or
size-skewed ones far beyond their own size.  So a product is packed only
when the packed size is at most the total size of its schoolbook partial
products; otherwise it runs term by term over the non-zero coefficients.

Division runs in the integers too: each elimination step multiplies the
divisor's window by lead / gcd(top, lead) instead of dividing by the leading
coefficient, and each quotient coefficient is brought to the final scale at
the end.  Every division in Q[x] runs this loop; ``long_division``, the
package's one other division loop, divides in mp floats, Z/mZ and Z.

``gcd`` first maps both operands to one fixed prime, 2**61 - 1.  If the
prime divides neither leading numerator nor the denominator and the images
are coprime there (the GF(p) gcd ``_gf_gcd``, which ``factorq`` shares), the
operands are coprime over Q and the answer is 1; this is exact and needs no
retries.  Every other pair runs the Euclidean algorithm over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction
CoeffLike = Union[int, str, Fraction]

#: Degree of the zero polynomial; below all integers.
NEG_INF = float("-inf")
#: Decimal digits of sqrt_upper_bound: its relative error is about 10**-24.
SQRT_DIGITS = 24


class DivisionByZeroPoly(ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class BothZero(ValueError):
    """gcd/extended_gcd of two zero polynomials is undefined."""


class ZeroPolynomial(ValueError):
    """Operation is undefined for the zero polynomial."""


class NotSquarefree(ValueError):
    """Input has a repeated factor where a squarefree polynomial is required."""


class Poly:
    """Immutable dense univariate polynomial over Q, stored as integer
    numerators over one common denominator.

    ``nums[i] / den`` is the coefficient of x**i.  The form is canonical:
    den > 0, gcd(den, *nums) = 1 and nums has no trailing zero, so equal
    polynomials have equal (nums, den).
    """

    __slots__ = ("nums", "den", "_coeffs", "_bits")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[CoeffLike] = ()) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        # the lcm of reduced denominators is coprime to the numerators it gives
        den = math.lcm(*{c.denominator for c in cs})  # most coefficients share one
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_integers(cls, nums: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients nums[i] / den, in canonical form."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        nums = list(nums)
        if den < 0:
            nums, den = [-v for v in nums], -den
        return _canonical(nums, den)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Poly":
        """The polynomial with coefficients n_i / d_i (d_i > 0, not
        necessarily in lowest terms), over the lcm of the d_i."""
        pairs = list(pairs)
        den = math.lcm(*{d for _, d in pairs})
        return _canonical([n * (den // d) for n, d in pairs], den)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return _canonical([1], 1)

    @classmethod
    def x(cls) -> "Poly":
        return _canonical([0, 1], 1)

    @classmethod
    def constant(cls, c: CoeffLike) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, c: CoeffLike = 1) -> "Poly":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls([0] * power + [c])

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first use."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple(Fraction(v, den) for v in self.nums)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    def pairs(self) -> list[tuple[int, int]]:
        """(numerator, denominator) of each coefficient in lowest terms.  The
        largest bit length among them is kept for ``max_bits``."""
        den = self.den
        if den == 1:
            pairs = [(v, 1) for v in self.nums]
        else:
            gcds = [math.gcd(v, den) for v in self.nums]
            pairs = [(v // g, den // g) for v, g in zip(self.nums, gcds)]
        bits = max((max(abs(n).bit_length(), d.bit_length()) for n, d in pairs), default=0)
        object.__setattr__(self, "_bits", bits)
        return pairs

    def max_bits(self) -> int:
        """The largest bit length of a numerator or denominator in
        ``pairs``, kept from the last reduction, so that a serialized
        polynomial is not reduced again."""
        try:
            return self._bits
        except AttributeError:
            self.pairs()
            return self._bits

    @property
    def degree(self) -> Union[int, float]:
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (zero when k exceeds the degree)."""
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- ring operations ---------------------------------------------------
    #
    # Each operation works on the numerators and brings its result to the
    # canonical form by one gcd over the denominator and the numerators.

    def __neg__(self) -> "Poly":
        return _canonical([-v for v in self.nums], self.den)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _canonical([v * n for v in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        return _canonical(_convolve(self.nums, other.nums), self.den * other.den)

    def __rmul__(self, other: Union[int, Fraction]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise DivisionByZeroPoly("division by the zero polynomial")
        div, up = other.nums, other.den
        db = len(div) - 1
        if len(self.nums) <= db:
            return Poly(), self
        if div[-1] < 0:  # dividing by -b keeps every m, and so the scale, positive
            div, up = [-v for v in div], -up
        # Where the window top-db..top has reached, the remainder's
        # coefficient is rem[i] / (scale * self.den); below it rem[i] is
        # still over self.den alone and is brought to the running scale when
        # the window reaches it.  Eliminating rem[top] multiplies the window
        # by m = lead / gcd(rem[top], lead) instead of dividing by lead, and
        # the quotient coefficient is k * up / (scale * self.den).  It is
        # kept as k, with m, and brought to the final scale at the end.
        rem = list(self.nums)
        lead = div[-1]
        scale = 1
        quo = [0] * (len(rem) - db)
        steps = [1] * len(quo)
        for top in range(len(rem) - 1, db - 1, -1):
            low = top - db
            if scale != 1:
                rem[low] *= scale
            c = rem[top]
            if not c:
                continue
            g = math.gcd(c, lead)
            m, k = lead // g, c // g
            scale *= m
            for i in range(low, top):
                rem[i] = m * rem[i] - k * div[i - low]
            quo[low], steps[low] = k, m
        # quo[low] is over the scale after its own step; the final scale is
        # that times the m of every later step, i.e. of every lower index
        for low, m in enumerate(steps):
            quo[low] *= up
            up *= m
        den = scale * self.den
        return _canonical(quo, den), _canonical(rem[:db], den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- calculus / normal forms -------------------------------------------

    def derivative(self) -> "Poly":
        return _canonical([i * v for i, v in enumerate(self.nums) if i], self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return Poly.from_integers(self.nums, self.nums[-1])

    def __call__(self, point):
        """Horner evaluation; exact for Fraction/int points, generic otherwise.

        At a rational point n/d the sum of c_k n^k d^(deg-k) runs in the
        integers, over the common denominator, and becomes a Fraction once.
        """
        if not isinstance(point, (int, Fraction)) or not self.nums:
            return horner(self.coeffs, point)
        n, d = point.numerator, point.denominator
        value, scale = 0, 1
        for c in reversed(self.nums):
            value = value * n + c * scale
            scale *= d
        return Fraction(value, self.den * (scale // d))

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        """Descending powers; never fails, see ``format_rational``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{format_rational(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def format_rational(x: Fraction) -> str:
    """``str(x)``, except that an integer past the interpreter's int<->str
    digit limit is shown by its sign and bit length, so messages that render
    a value never fail on it."""

    def digits(n: int) -> str:
        try:
            return str(n)
        except ValueError:
            return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer, too large to print>"

    if x.denominator == 1:
        return digits(x.numerator)
    return f"{digits(x.numerator)}/{digits(x.denominator)}"


def horner(coeffs, point):
    """Value at ``point`` of the ascending coefficients ``coeffs``, in the
    arithmetic of ``point`` (Fraction, int, mpf or mpc)."""
    acc = point * 0  # zero of the point's type
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


# -- integer kernel: Kronecker substitution --------------------------------
#
# A vector of integers d_i with |d_i| < 2**(8*w - 1) is the integer
# sum d_i * 2**(8*w*i) ("packed at width w bytes").  Multiplying two packed
# vectors convolves them, provided every digit of the result also stays
# below 2**(8*w - 1) in magnitude.  Adding 2**(8*w - 1) to every digit makes
# all digits non-negative and below 2**(8*w), so packing and unpacking each go
# through one little-endian bytes string: linear in the packed size, where a
# shift per digit would be quadratic.


def _canonical(nums: list[int], den: int) -> Poly:
    """The Poly nums / den for den > 0: trailing zeros dropped and one gcd
    divided out.  ``nums`` is consumed."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    poly = object.__new__(Poly)
    object.__setattr__(poly, "nums", tuple(nums))
    object.__setattr__(poly, "den", den)
    return poly


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b over the least common denominator."""
    den = math.lcm(a.den, b.den)
    ma, mb = den // a.den, sign * (den // b.den)
    out = [v * ma for v in a.nums] if ma != 1 else list(a.nums)
    if len(out) < len(b.nums):
        out.extend([0] * (len(b.nums) - len(out)))
    for i, v in enumerate(b.nums):
        out[i] += v * mb
    return _canonical(out, den)


def long_division(rem: list, div, lead) -> list:
    """Quotient of ``rem`` by ``div`` (ascending, any arithmetic), leaving the
    remainder in ``rem[:len(div) - 1]``.  ``lead(c)`` is the quotient
    coefficient that cancels a top coefficient c; zero ones stay int 0."""
    db = len(div) - 1
    quo = [0] * max(len(rem) - db, 0)
    for top in range(len(rem) - 1, db - 1, -1):
        c = lead(rem[top])
        if not c:
            continue
        quo[top - db] = c
        for i in range(db):  # rem[top] itself cancels
            rem[top - db + i] -= c * div[i]
    return quo


# -- coefficient lists over Z/mZ, shared with factorq -----------------------
# Ascending and trimmed; inputs may hold any integers, outputs lie in [0, m).


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_reduce(a: list[int], m: int) -> list[int]:
    return _trim([x % m for x in a])


def _gf_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(x * inv) % p for x in a]


def _zp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Long division over Z/mZ by ``b``, whose leading coefficient must be a
    unit mod m (so quotient and remainder are unique)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial mod m")
    inv = pow(b[-1], -1, m)
    rem = list(a)
    quo = long_division(rem, b, lambda c: c * inv % m)
    return _trim(quo), _zp_reduce(rem[: len(b) - 1], m)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) by the Euclidean algorithm."""
    r0, r1 = _zp_reduce(a, p), _zp_reduce(b, p)
    while r1:
        r0, r1 = r1, _zp_divmod(r0, r1, p)[1]
    return _gf_monic(r0, p)


def _bias(n: int, width: int) -> int:
    """sum 2**(8*width - 1) * 2**(8*width*i) over i < n."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(digits: list[int], width: int) -> int:
    half = 1 << (8 * width - 1)
    raw = b"".join((d + half).to_bytes(width, "little") for d in digits)
    return int.from_bytes(raw, "little") - _bias(len(digits), width)


def _convolve(a: tuple[int, ...], b: tuple[int, ...] | None = None) -> list[int]:
    """Product coefficients of two non-empty integer vectors; ``b`` None
    squares ``a`` from a single packing.

    Packing gives every digit the width of the largest product digit, so it
    costs len x width bits however sparse or size-skewed the operands are.
    The schoolbook product over the non-zero coefficients costs the sizes of
    its partial products.  Whichever of the two is smaller is used, so a
    sparse operand, or one large coefficient among small ones, is never
    inflated to the packed size.
    """
    square = b is None
    if square:
        b = a
    sizes_a = [d.bit_length() for d in a]
    sizes_b = sizes_a if square else [d.bit_length() for d in b]
    nonzero_a = len(a) - sizes_a.count(0)
    nonzero_b = len(b) - sizes_b.count(0)
    partial_bits = nonzero_b * sum(sizes_a) + nonzero_a * sum(sizes_b)
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # the fewest bytes with bound < 2**(8*width - 1)
    n = len(a) + len(b) - 1
    if 8 * width * n > partial_bits:
        out = [0] * n
        terms_b = [(j, d) for j, d in enumerate(b) if d]
        for i, c in enumerate(a):
            if c:
                for j, d in terms_b:
                    out[i + j] += c * d
        return out
    packed_a = _pack(a, width)
    packed_b = packed_a if square else _pack(b, width)
    half = 1 << (8 * width - 1)
    raw = (packed_a * packed_b + _bias(n, width)).to_bytes(n * width, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)
    ]


def weighted_square_sum(weights: Iterable[CoeffLike], polys: Iterable[Poly]) -> Poly:
    """sum w_i * h_i**2, exact.

    The numerators of each h_i are squared as one integer vector, the
    squares are summed as integers over the least common denominator of the
    scales w_i / den_i**2, and the sum is brought to canonical form once.
    """
    terms = []
    for w, h in zip(weights, polys):
        if w and h:
            terms.append((Fraction(w) / (h.den * h.den), _convolve(h.nums)))
    if not terms:
        return Poly()
    den = math.lcm(*(scale.denominator for scale, _ in terms))
    acc = [0] * max(len(square) for _, square in terms)
    for scale, square in terms:
        c = scale.numerator * (den // scale.denominator)
        for k, v in enumerate(square):
            if v:
                acc[k] += c * v
    return _canonical(acc, den)


#: Prime of the coprimality test in ``gcd``.
_GCD_PRIME = 2**61 - 1


def _coprime_modulo_prime(a: Poly, b: Poly) -> bool:
    """True when the images of a and b modulo ``_GCD_PRIME`` prove them coprime.

    With denominators cleared, a common factor of positive degree over Q
    divides both integer polynomials (Gauss), and its leading coefficient
    divides theirs, so modulo a prime that divides neither leading
    coefficient it keeps its degree and divides both images.  The image of
    the polynomial nums / den is the image of nums times the unit 1/den,
    which does not change the degree of the gcd, so the image of nums is
    used.  A prime dividing den or the leading numerator is not used.
    False means only that this one image does not decide.
    """
    p = _GCD_PRIME
    if any(poly.den % p == 0 or poly.nums[-1] % p == 0 for poly in (a, b)):
        return False
    return len(_gf_gcd(a.nums, b.nums, p)) == 1


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    A pair whose images modulo one fixed prime prove it coprime returns 1
    at once; every other pair runs the Euclidean algorithm over Q.
    """
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if a and b and _coprime_modulo_prime(a, b):
        return Poly.one()
    r0, r1 = a, b
    while not r1.is_zero:
        r0, r1 = r1, r0 % r1
        if not r1.is_zero:
            r1 = r1.monic()  # keeps coefficient growth in check
    return r0.monic()


def extended_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with s*a + t*b = g, g the monic gcd.

    The cofactors are the Euclidean algorithm's own, scaled by the same unit
    as g; they are already the canonical minimal-degree ones:
    deg s < deg b - deg g and deg t < deg a - deg g whenever those bounds are
    satisfiable (for two nonzero constants the convention is s = 0).
    """
    if a.is_zero and b.is_zero:
        raise BothZero("extended_gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv_lc = 1 / r0.leading_coefficient
    return r0 * inv_lc, s0 * inv_lc, t0 * inv_lc


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """Monic squarefree pairwise-coprime factors with multiplicities.

    ``constant * prod(factor**multiplicity)`` reconstructs the input exactly.
    """

    constant: Fraction
    parts: tuple[tuple[Poly, int], ...]

    def reconstruct(self) -> Poly:
        out = Poly.constant(self.constant)
        for factor, mult in self.parts:
            out = out * factor**mult
        return out


def squarefree_decompose(f: Poly) -> SquarefreeDecomposition:
    """Yun's squarefree decomposition (characteristic zero)."""
    if f.is_zero:
        raise ZeroPolynomial("squarefree decomposition of 0 is undefined")
    constant = f.leading_coefficient
    m = f.monic()
    if m.degree == 0:
        return SquarefreeDecomposition(constant, ())

    parts: list[tuple[Poly, int]] = []
    df = m.derivative()
    a0 = gcd(m, df)
    b = m // a0
    d = (df // a0) - b.derivative()
    i = 1
    while b.degree > 0:
        a = gcd(b, d)
        b = b // a
        d = (d // a) - b.derivative()
        if a.degree > 0:
            parts.append((a, i))
        i += 1
    return SquarefreeDecomposition(constant, tuple(parts))


def is_squarefree(f: Poly) -> bool:
    if f.is_zero:
        raise ZeroPolynomial("squarefreeness of 0 is undefined")
    if f.degree == 0:
        return True
    return gcd(f, f.derivative()).degree == 0


def sturm_sequence(f: Poly, q: Poly | None = None) -> list[Poly]:
    """Signed remainder sequence of f and f'*q mod f (zero tail dropped);
    q = None gives Sturm's chain f, f', -rem(...), ..."""
    seq = [f, f.derivative() if q is None else f.derivative() * q % f]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def tarski_query(f: Poly, q: Poly | None = None) -> int:
    """Sum of sign q(xi) over the distinct real roots xi of a squarefree f
    coprime to q (q = None counts the roots): the sign variations of
    ``sturm_sequence(f, q)`` at -inf minus those at +inf, which is the
    Cauchy index of f'q/f (Basu, Pollack and Roy, ch. 2).  The chain ends in
    gcd(f, f'q) up to a unit, so NotSquarefree is raised when that has
    positive degree."""
    if f.is_zero:
        raise ZeroPolynomial("root count of 0 is undefined")
    chain = sturm_sequence(f, q)
    if chain[-1].degree > 0:
        raise NotSquarefree("the Sturm-Tarski count requires a squarefree f coprime to q")
    at_pos = [1 if p.leading_coefficient > 0 else -1 for p in chain]
    at_neg = [-s if int(p.degree) % 2 else s for s, p in zip(at_pos, chain)]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


def _sign_variations(signs: list[int]) -> int:
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_real_root_count(f: Poly) -> int:
    """Number of distinct real roots of a squarefree polynomial."""
    return tarski_query(f)


def norm2_squared(p: Poly) -> Fraction:
    """Squared coefficient 2-norm, exact."""
    return Fraction(sum(v * v for v in p.nums), p.den * p.den)


def root_exponent(nums) -> int:
    """k = max over the non-zero a_j, j < n, of floor(floor(log2|a_j/a_n|)/(n-j)),
    or 0 when there is none, for ascending integer coefficients ``nums`` of
    degree n (any common denominator cancels).  |a_j/a_n|^(1/(n-j)) is below
    2^(k+1), so Fujiwara's bound puts every root within 2^(k+2)."""
    n, lead = len(nums) - 1, abs(nums[-1])
    return max((_floor_log2(abs(a), lead) // (n - j) for j, a in enumerate(nums[:-1]) if a),
               default=0)


def _floor_log2(a: int, b: int) -> int:
    """floor(log2(a/b)) for positive integers a and b, exactly."""
    e = a.bit_length() - b.bit_length()  # a/b lies in (2^(e-1), 2^(e+1))
    return e if a << max(-e, 0) >= b << max(e, 0) else e - 1


def sqrt_upper_bound(r: Fraction) -> Fraction:
    """Conservative rational upper bound on sqrt(r) for r >= 0.

    The value is lifted into [1, 100) by powers of 100, bounded by
    (isqrt(ceil(. * M^2)) + 1)/M with M = 10**SQRT_DIGITS, and scaled back,
    so bound**2 > r always holds and the relative error stays around
    10**-SQRT_DIGITS regardless of the magnitude of r.
    """
    if r < 0:
        raise ValueError("sqrt of a negative rational")
    if r == 0:
        return Fraction(0)
    shift = 0
    lifted = r
    while lifted < 1:
        lifted *= 10000
        shift += 2
    scale = 10**SQRT_DIGITS
    num = -((-lifted.numerator * scale * scale) // lifted.denominator)  # ceil
    return Fraction(math.isqrt(num) + 1, scale * 10**shift)
