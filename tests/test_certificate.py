import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsos.certificate import (
    Certificate,
    ParseError,
    deserialize,
    serialize,
    verify,
)
from rootsos.lifting import certify_nonnegative
from rootsos.ratpoly import Poly
from support import cap_packing, random_squarefree_poly, random_strictly_positive_poly

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)


def _toy_certificate() -> Certificate:
    weights = (F(3, 5), F(23, 60), F(137, 460))
    polys = (
        Poly([1, F(1, 6), F(-1, 3)]),
        Poly([0, 1, F(-7, 23)]),
        Poly([0, 0, 1]),
    )
    acc = Poly.zero()
    for w, h in zip(weights, polys):
        acc = acc + h * h * w
    q, rem = divmod(X - acc, F_CUBE)
    assert rem.is_zero
    return Certificate(F_CUBE, X, weights, polys, q)


def test_verify_toy_certificate():
    assert verify(_toy_certificate())


def test_verify_detects_tampered_weight():
    cert = _toy_certificate()
    tampered = Certificate(
        cert.f,
        cert.g,
        (cert.weights[0] + F(1, 1000),) + cert.weights[1:],
        cert.polys,
        cert.q,
    )
    verdict = verify(tampered)
    assert not verdict
    assert verdict.residual is not None
    # the residual is exactly -(1/1000) h_1^2
    h1 = cert.polys[0]
    assert verdict.residual == h1 * h1 * F(-1, 1000)


def test_verify_empty_certificate():
    assert verify(Certificate(F_CUBE, Poly.zero(), (), (), Poly.zero()))


def test_verify_rejects_structural_problems():
    cert = _toy_certificate()
    assert not verify(Certificate(Poly.zero(), cert.g, cert.weights, cert.polys, cert.q))
    assert not verify(Certificate(cert.f, cert.g, cert.weights[:2], cert.polys, cert.q))
    assert not verify(
        Certificate(cert.f, cert.g, (F(-3, 5),) + cert.weights[1:], cert.polys, cert.q)
    )
    big = Certificate(cert.f, cert.g, (F(1),), (X**3,), cert.q)
    verdict = verify(big)
    assert not verdict and "degree" in verdict.reason


def test_serialize_roundtrip_toy():
    cert = _toy_certificate()
    again = deserialize(serialize(cert))
    assert again == cert


def test_serialize_stable_key_order():
    text = serialize(_toy_certificate())
    assert text.index('"version"') < text.index('"f"') < text.index('"g"')
    assert text.index('"g"') < text.index('"q"') < text.index('"terms"')


def test_serialize_deterministic():
    cert = _toy_certificate()
    assert serialize(cert) == serialize(cert)


def test_negative_weight_parses_then_fails_verify():
    text = serialize(_toy_certificate()).replace('"omega": "3/5"', '"omega": "-1/2"')
    cert = deserialize(text)
    verdict = verify(cert)
    assert not verdict and "positive" in verdict.reason


def test_unknown_version_rejected():
    text = serialize(_toy_certificate()).replace("sos-cert/1", "sos-cert/9")
    with pytest.raises(ParseError):
        deserialize(text)


def test_truncated_file_rejected_with_line():
    text = serialize(_toy_certificate())
    with pytest.raises(ParseError) as info:
        deserialize(text[: len(text) // 2])
    assert info.value.line is not None


def test_malformed_rational_rejected():
    text = serialize(_toy_certificate()).replace('"3/5"', '"3.5"')
    with pytest.raises(ParseError):
        deserialize(text)


@pytest.mark.parametrize("bad", ['"\u0663"', '"5\\n"', '"\\u0663/5"'],
                         ids=["arabic-indic-digit", "trailing-newline", "escaped-digit"])
def test_rational_strings_are_ascii_digits_only(bad):
    # the format's rationals are -?[0-9]+(/[0-9]+)? in ASCII, nothing more
    text = serialize(_toy_certificate()).replace('"3/5"', bad)
    with pytest.raises(ParseError, match="expected a rational string"):
        deserialize(text)


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        deserialize("[" * 200000)


OVER_DIGIT_LIMIT = "1" + "0" * 5000  # Python converts at most 4300 digits


@pytest.mark.parametrize(
    "f_entry, field",
    [
        (f'"{OVER_DIGIT_LIMIT}/7"', "f[0]"),
        (f'"7/{OVER_DIGIT_LIMIT}"', "f[0]"),
        (OVER_DIGIT_LIMIT, None),  # a bare JSON number, refused by json itself
    ],
    ids=["numerator", "denominator", "bare-number"],
)
def test_oversized_integer_is_a_parse_error(f_entry, field):
    text = f'{{"version": "sos-cert/1", "f": [{f_entry}], "g": [], "q": [], "terms": []}}'
    with pytest.raises(ParseError) as info:
        deserialize(text)
    if field is not None:
        assert str(info.value).startswith(field)


def _with_f(entries: str) -> str:
    return f'{{"version": "sos-cert/1", "f": [{entries}], "g": [], "q": [], "terms": []}}'


def test_unreduced_rationals_parse_to_the_canonical_poly():
    canonical = deserialize(_with_f('"1/2", "0", "2"'))
    assert canonical.f == Poly([F(1, 2), 0, 2])
    for entries in ('"2/4", "-0", "6/3"', '"3/6", "0/7", "4/2", "0/9"', '"1/2", "-0/3", "2/1"'):
        again = deserialize(_with_f(entries))
        assert again.f == canonical.f and hash(again.f) == hash(canonical.f)
        assert serialize(again) == serialize(canonical)
    with pytest.raises(ParseError, match="zero denominator"):
        deserialize(_with_f('"1/0"'))


def test_serialize_deserialize_serialize_is_byte_identical():
    rng = random.Random(20)
    f = random_squarefree_poly(rng, 5) * Poly([F(1, 3), 0, 1])
    cert = certify_nonnegative(f, random_strictly_positive_poly(rng, 3))
    text = serialize(cert)
    assert serialize(deserialize(text)) == text
    assert deserialize(text) == cert


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(
            min_value=-(10**100), max_value=10**100, max_denominator=10**100
        ),
        min_size=0,
        max_size=6,
    )
)
def test_big_rationals_roundtrip(coeffs):
    cert = Certificate(Poly([1, 1]), Poly(coeffs), (), (), Poly.zero())
    assert deserialize(serialize(cert)) == cert


def test_pipeline_certificates_verify_and_mutations_fail():
    rng = random.Random(808)
    done = 0
    while done < 10:
        f = random_squarefree_poly(rng, rng.randint(1, 5), 20)
        g = random_strictly_positive_poly(rng, 2, 6)
        cert = certify_nonnegative(f, g)
        assert verify(cert)
        assert deserialize(serialize(cert)) == cert
        if cert.weights:
            # single-field mutations must all be caught
            bumped = Certificate(
                cert.f,
                cert.g,
                (cert.weights[0] * F(1001, 1000),) + cert.weights[1:],
                cert.polys,
                cert.q,
            )
            assert not verify(bumped)
            shifted = Certificate(
                cert.f,
                cert.g,
                cert.weights,
                (cert.polys[0] + Poly.one(),) + cert.polys[1:],
                cert.q,
            )
            assert not verify(shifted)
        assert not verify(
            Certificate(cert.f, cert.g + Poly.one(), cert.weights, cert.polys, cert.q)
        )
        assert not verify(
            Certificate(cert.f, cert.g, cert.weights, cert.polys, cert.q + X)
        )
        done += 1


def test_verify_sparse_certificate_with_a_large_coefficient(monkeypatch):
    # h = c + x^(n-1) and q = c*x^(n-1) + 1 with one 13,288-bit c: packed at
    # the width of their largest product digit, each product would take
    # about 2n digits of 3.3 KB (130 MB here)
    cap_packing(monkeypatch, 2**20)
    n, c = 20000, 10**4000
    f = Poly.monomial(n) + Poly.one()
    h = Poly.monomial(n - 1) + Poly.constant(c)
    q = Poly.monomial(n - 1, c) + Poly.one()
    g = Poly.monomial(2 * n - 2, 3) + Poly.monomial(2 * n - 1, c) + Poly.monomial(n, 1)
    g = g + Poly.monomial(n - 1, 7 * c) + Poly.constant(3 * c * c + 1)
    cert = Certificate(f, g, (F(3),), (h,), q)
    assert verify(cert)
    assert not verify(Certificate(f, g + Poly.one(), (F(3),), (h,), q))
