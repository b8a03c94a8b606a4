"""Command-line front end: certify, verify, inspect.

Polynomial expressions are parsed exactly (integer and decimal literals;
+, -, *, / by a non-zero constant, and ^, which binds tighter than * and /,
so 3/2^2 is 3/4; parentheses with implicit adjacency), certificates are
written in the JSON format of the certificate module (as text with
--pretty), and exit codes are stable: 0 success, 1 parse/IO error, 2
hypothesis violated, 3 not non-negative (g < 0 at a real root of f,
decided exactly) / invalid certificate, 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from itertools import compress

from . import certificate as certmod
from .certificate import Certificate
from .exactify import PrecisionExhausted
from .factorq import factor_over_Q
from .lifting import HypothesisViolated, NotNonnegative, certify_nonnegative
from .ratpoly import Poly, format_rational, gcd, sturm_real_root_count

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_NONNEGATIVE = 3
EXIT_PRECISION = 4

#: Exit code and message prefix of each refusal a command may raise, by the
#: first class that matches; ValueError covers parse, read and write errors.
_EXITS = {
    HypothesisViolated: (EXIT_HYPOTHESIS, "hypothesis violated"),
    NotNonnegative: (EXIT_NOT_NONNEGATIVE, "not non-negative"),
    PrecisionExhausted: (EXIT_PRECISION, "precision exhausted"),
    ValueError: (EXIT_ERROR, "error"),
}

MAX_EXPONENT = 10**4
#: Cap on the nesting of parentheses and unary minuses, each a parser recursion.
MAX_NESTING = 100
#: Cap on the bits of any numerator or denominator a power ``^`` may build.
MAX_POWER_BITS = 2**20
#: Cap on the dense size, coefficients x bits, of any power or product the
#: parser builds, so that a short expression cannot ask for minutes of work.
MAX_SIZE_BITS = 2**21


class ParseError(ValueError):
    """Expression syntax error with position and expectation."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # open parentheses and unary minuses

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if "0" <= ch <= "9":  # ASCII digits only, as in the certificate format
                self.pos += 1
            elif ch == "." and not seen_dot:
                seen_dot = True
                self.pos += 1
            else:
                break
        lexeme = self.text[start : self.pos]
        if not lexeme or lexeme == ".":
            raise ParseError(start, "a number")
        try:
            return Fraction(lexeme)
        except ValueError:  # past the interpreter's int<->str digit limit
            raise ParseError(start, "a number of fewer digits") from None

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "an integer exponent")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's int<->str digit limit
            raise ParseError(start, f"an exponent <= {MAX_EXPONENT}") from None


#: A parsed value: non-zero integer numerators by exponent over one positive
#: denominator, in lowest terms (Poly's layout, kept sparse).
Sparse = tuple[dict[int, int], int]


def parse_poly(text: str) -> Poly:
    """Parse an exact univariate polynomial expression in x.

    The parser's values are sparse, so that a long sum of high powers never
    copies a dense vector and x^k is one entry.  Products and powers of more
    than one term run on dense Polys, and one dense Poly is built at the end."""
    toks = _Tokens(text)
    value = _parse_expr(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(toks.pos, "end of input")
    return _dense(value)


def _dense(value: Sparse) -> Poly:
    terms, den = value
    nums = [0] * _length(value)
    for i, v in terms.items():
        nums[i] = v
    return Poly.from_integers(nums, den)


def _sparse(p: Poly) -> Sparse:
    return {i: p.nums[i] for i in compress(range(len(p.nums)), p.nums)}, p.den


def _lowest_terms(terms: dict[int, int], den: int) -> Sparse:
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {i: v // g for i, v in terms.items()}, den // g


def _parse_expr(toks: _Tokens) -> Sparse:
    terms, den = _parse_term(toks)
    while (ch := toks.peek()) in ("+", "-"):
        toks.take()
        other, d = _parse_term(toks)
        common = math.lcm(den, d)
        if common != den:
            terms = {i: v * (common // den) for i, v in terms.items()}
            den = common
        scale = common // d if ch == "+" else -(common // d)
        for i, v in other.items():
            total = terms.get(i, 0) + v * scale
            if total:
                terms[i] = total
            else:
                del terms[i]
    return _lowest_terms(terms, den)


def _parse_term(toks: _Tokens) -> Sparse:
    acc = _parse_factor(toks)
    while True:
        ch = toks.peek()
        if ch in ("*", "/"):
            toks.take()
        elif ch != "(":  # "(" is implicit adjacency: x(x^3-2)^2
            return acc
        factor = _parse_factor(toks)
        if ch == "/":
            terms, den = factor
            if list(terms) != [0]:
                raise ParseError(toks.pos, "a non-zero constant divisor")
            factor = {0: den if terms[0] > 0 else -den}, abs(terms[0])
        bits = math.floor(_log_height(acc) + _log_height(factor)) + 1
        size = (_length(acc) + _length(factor) - 1) * bits
        if size > MAX_SIZE_BITS:
            raise ParseError(toks.pos, f"a product of size <= {MAX_SIZE_BITS} bits")
        (a, da), (b, db) = acc, factor
        if len(a) > 1 and len(b) > 1:
            acc = _sparse(_dense(acc) * _dense(factor))
        else:  # a monomial times anything, term by term
            acc = _lowest_terms({i + j: u * v for i, u in a.items() for j, v in b.items()},
                                da * db)


def _parse_factor(toks: _Tokens) -> Sparse:
    base = _parse_base(toks)
    if toks.peek() == "^":
        toks.take()
        exponent = toks.uint()
        if exponent > MAX_EXPONENT:
            raise ParseError(toks.pos, f"an exponent <= {MAX_EXPONENT}")
        degree = _length(base) - 1
        if degree * exponent > MAX_EXPONENT:  # (x^a)^b
            raise ParseError(toks.pos, f"a power of degree <= {MAX_EXPONENT}")
        bits = math.floor(exponent * _log_height(base)) + 1
        if bits > MAX_POWER_BITS:  # (10^a)^b
            raise ParseError(toks.pos, f"a power of coefficients <= {MAX_POWER_BITS} bits")
        if (max(degree, 0) * exponent + 1) * bits > MAX_SIZE_BITS:  # (x+1)^b
            raise ParseError(toks.pos, f"a power of size <= {MAX_SIZE_BITS} bits")
        if base == ({1: 1}, 1):  # x^k directly
            return {exponent: 1}, 1
        return _sparse(_dense(base) ** exponent)
    return base


def _length(value: Sparse) -> int:
    """Length of the dense numerator vector: degree + 1, 0 for zero."""
    return max(value[0], default=-1) + 1


def _log_height(value: Sparse) -> float:
    """log2(max(sum(|N|), D)) for the integer numerators N of a polynomial
    over their common denominator D.  It adds up over products, because no
    coefficient of a product of numerator vectors exceeds the product of
    their sums(|N|): floor(h(a) + h(b)) + 1 bounds the bits of every
    numerator and denominator of a*b, and floor(e*h(a)) + 1 those of a**e."""
    terms, den = value
    return math.log2(max(sum(map(abs, terms.values())), den))


def _parse_base(toks: _Tokens) -> Sparse:
    ch = toks.peek()
    if ch in ("-", "("):
        if toks.depth == MAX_NESTING:
            raise ParseError(toks.pos, f"nesting depth <= {MAX_NESTING}")
        toks.take()
        toks.depth += 1
        if ch == "-":
            terms, den = _parse_factor(toks)
            inner = {i: -v for i, v in terms.items()}, den
        else:
            inner = _parse_expr(toks)
            if toks.peek() != ")":
                raise ParseError(toks.pos, "')'")
            toks.take()
        toks.depth -= 1
        return inner
    if ch in ("x", "X"):
        toks.take()
        return {1: 1}, 1
    if "0" <= ch <= "9" or ch == ".":
        value = toks.number()
        return ({0: value.numerator} if value else {}), value.denominator
    raise ParseError(toks.pos, "a number, 'x', '(' or '-'")


def _max_bits(cert: Certificate) -> int:
    weights = (max(abs(w.numerator).bit_length(), w.denominator.bit_length()) for w in cert.weights)
    return max((*weights, *(p.max_bits() for p in (*cert.polys, cert.q))), default=0)


def _pretty_certificate(cert: Certificate) -> str:
    lines = [
        f"f = {cert.f}",
        f"g = {cert.g}",
        f"q = {cert.q}",
        f"identity: g = sum of {len(cert.weights)} weighted squares + q*f",
    ]
    for i, (w, h) in enumerate(zip(cert.weights, cert.polys), start=1):
        lines.append(f"  omega_{i} = {format_rational(w)},  h_{i} = {h}")
    return "\n".join(lines) + "\n"


def cmd_certify(args: argparse.Namespace) -> int:
    f, g = parse_poly(args.f), parse_poly(args.g)
    started = time.perf_counter()
    cert = certify_nonnegative(f, g)
    elapsed = time.perf_counter() - started

    try:
        payload = _pretty_certificate(cert) if args.pretty else certmod.serialize(cert)
    except ValueError as exc:  # a coefficient beyond the int<->str digit limit
        raise ValueError(f"cannot write the certificate: {exc}") from exc
    summary = (
        f"certificate: N={len(cert.weights)} terms, "
        f"max coefficient bits={_max_bits(cert)}, time={elapsed:.3f}s"
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {args.cert}: {exc}") from exc
    cert = certmod.deserialize(text)
    verdict = certmod.verify(cert)
    if verdict:
        print(f"valid: g = sum of {len(cert.weights)} weighted squares + q*f")
        return EXIT_OK
    print(f"invalid: {verdict.reason}", file=sys.stderr)
    if verdict.residual is not None:
        print(f"residual = {verdict.residual}", file=sys.stderr)
    return EXIT_NOT_NONNEGATIVE


def cmd_inspect(args: argparse.Namespace) -> int:
    f = parse_poly(args.f)
    g = parse_poly(args.g) if args.g is not None else None
    if f.is_zero:
        raise ValueError("f must be non-zero")

    lines = [f"f = {f}", f"deg f = {int(f.degree) if f else '-inf'}"]
    if f.degree >= 1:
        # first, so that a degree over the cap is refused before any work
        fact = factor_over_Q(f)
        lines.append("squarefree decomposition:")  # Yun's monic parts
        for mult in sorted({e for _p, e in fact.factors}):
            part = math.prod((p for p, e in fact.factors if e == mult), start=Poly.one())
            lines.append(f"  ({part})^{mult}")
        lines.append(f"irreducible factorization (unit {format_rational(fact.unit)}):")
        for p, e in fact.factors:
            lines.append(f"  ({p})^{e}  [distinct real roots: {sturm_real_root_count(p)}]")
    if g is not None:
        lines.append(f"g = {g}")
        if g.is_zero:
            lines.append("gcd(f, g) = f (g is zero); hypothesis: OK (empty certificate)")
        else:
            d = gcd(f, g)
            cofactor = f // d
            lines.append(f"d = gcd(f, g) = {d}")
            lines.append(f"f/d = {cofactor}")
            ok = d.degree == 0 or gcd(d, cofactor).degree == 0
            lines.append(f"hypothesis gcd(d, f/d) = 1: {'OK' if ok else 'VIOLATED'}")
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="rootsos",
        description=(
            "Compute and verify exact rational SOS certificates that g is "
            "non-negative at all real roots of f."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="compute a certificate for (f, g)")
    cert.add_argument("--f", required=True, metavar="EXPR", help="modulus polynomial")
    cert.add_argument("--g", required=True, metavar="EXPR", help="polynomial to certify")
    cert.add_argument("--out", metavar="PATH", help="write the certificate here")
    cert.add_argument("--pretty", action="store_true", help="human-readable output")

    ver = sub.add_parser("verify", help="verify a certificate file exactly")
    ver.add_argument("--cert", required=True, metavar="PATH")

    ins = sub.add_parser("inspect", help="factor f and check the gcd hypothesis")
    ins.add_argument("--f", required=True, metavar="EXPR")
    ins.add_argument("--g", metavar="EXPR")

    return parser


def main(argv: list[str] | None = None) -> int:
    # attach an expression that starts with "-" to the --f or --g before it,
    # which argparse would read as an option: "--g -x^4" -> "--g=-x^4"
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if token.startswith("-") and tokens and tokens[-1] in ("--f", "--g"):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    try:
        args = build_parser().parse_args(tokens)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the IO/parse code
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    # looked up per call, not bound into the parser, so a replaced command is seen
    command = {"certify": cmd_certify, "verify": cmd_verify, "inspect": cmd_inspect}
    try:
        return command[args.command](args)
    except tuple(_EXITS) as exc:
        code, prefix = next(v for t, v in _EXITS.items() if isinstance(exc, t))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
