import functools
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rootsos import cli, numeric
from rootsos.certificate import Certificate, deserialize, verify
from rootsos.cli import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_SIZE_BITS,
    ParseError,
    main,
    parse_poly,
)
from rootsos.ratpoly import Poly, sturm_real_root_count, tarski_query
from support import odd_primes_product

X = Poly.x()


def test_parse_basic():
    assert parse_poly("x^3-2") == Poly([-2, 0, 0, 1])
    assert parse_poly("3/5") == Poly.constant(F(3, 5))
    assert parse_poly("x") == X
    assert parse_poly("  - x ^ 2 + 1 ") == Poly([1, 0, -1])


def test_parse_expansion():
    p = parse_poly("x*(x^3-2)^2")
    assert p == X * (X**3 - Poly.constant(2)) ** 2
    assert p.degree == 7
    # implicit adjacency with parentheses
    assert parse_poly("x(x^3-2)^2") == p
    assert parse_poly("(x+1)(x-1)") == X**2 - Poly.one()


def test_parse_decimals_and_fractions():
    assert parse_poly("0.1*x^3 + x") == Poly([0, 1, 0, F(1, 10)])
    assert parse_poly("1/2*x - 3.25") == Poly([F(-13, 4), F(1, 2)])
    assert parse_poly("-(x-1)^2") == -((X - Poly.one()) ** 2)
    # / is a term operator beside *: left-associative, looser than ^
    assert parse_poly("-1/2*x^3 + 3/7*x") == Poly([0, F(3, 7), 0, F(-1, 2)])
    assert parse_poly("3/2^2") == Poly.constant(F(3, 4))
    assert parse_poly("2*3/2^2") == Poly.constant(F(3, 2))
    assert parse_poly("x/2/3") == Poly([0, F(1, 6)])
    assert parse_poly("x^2/(1+1)") == Poly([0, 0, F(1, 2)])


@pytest.mark.parametrize("text", ["x/0", "x/x"])
def test_parse_division_needs_a_nonzero_constant(text, capsys):
    with pytest.raises(ParseError, match="a non-zero constant divisor"):
        parse_poly(text)
    assert main(["certify", "--f", "x^2-2", "--g", text]) == 1
    assert "non-zero constant divisor" in capsys.readouterr().err


def test_parse_long_sum_of_high_powers_is_linear():
    # each x^k is one sparse entry and each + adds one: no dense vector per
    # term (4 s for this input when every + copied a dense accumulator)
    text = " + ".join(f"x^{k}" for k in range(10000, 9000, -1))
    started = time.perf_counter()
    p = parse_poly(text)
    assert time.perf_counter() - started < 0.5
    assert p == Poly.from_integers([0] * 9001 + [1] * 1000)
    assert parse_poly("x^3 - 2*x^3 + x^3 + x - (x + 1)") == Poly.constant(-1)


def test_parse_errors_have_position():
    for text in ("x +", "2x", "x^", "(x+1", "x^99999", "1/0", "y"):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position >= 0
        assert info.value.expected


@pytest.mark.parametrize("text", ["x-\u0663", "x^\u00b2"], ids=["arabic-indic-three", "superscript-two"])
def test_parse_accepts_ascii_digits_only(text, capsys):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.position == 2
    assert main(["certify", "--f", text, "--g", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: at position 2: expected ")


def test_parse_number_past_the_digit_limit_has_a_position():
    for text in ("x^" + "1" * 5000, "x-" + "1" * 5000, "x-0." + "1" * 5000):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == 2


def test_parse_nesting_depth_at_the_bound_certifies(capsys):
    f = "(" * MAX_NESTING + "x-1" + ")" * MAX_NESTING
    assert parse_poly(f) == X - Poly.one()
    assert parse_poly("-" * MAX_NESTING + "x") == X
    assert main(["certify", "--f", f, "--g", "x+2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["certify", "inspect"])
@pytest.mark.parametrize(
    "f",
    ["(" * 246 + "x-1" + ")" * 246, "(" * 10000 + "x-1" + ")" * 10000, "-" * 3000 + "x"],
    ids=["parentheses-246", "parentheses-10000", "minuses-3000"],
)
def test_parse_nesting_past_the_bound_exits_one(command, f, capsys):
    # each level is a few recursive calls; past the bound is a parse error,
    # not a RecursionError
    assert main([command, f"--f={f}", "--g", "x+2"]) == 1
    assert capsys.readouterr().err == (
        f"error: at position {MAX_NESTING}: expected nesting depth <= {MAX_NESTING}\n")


_NESTS = st.lists(st.sampled_from(["(", "-", "(-", "-(", " ( "]), max_size=150).map("".join)


@settings(max_examples=300, deadline=None)
@given(_NESTS, st.text(alphabet="xX0123456789.+-*/^() \u0663\u00b2", max_size=30))
def test_parse_raises_nothing_but_parse_error(nest, body):
    for text in (body, nest + body + ")" * nest.count("(")):
        try:
            parse_poly(text)
        except ParseError:
            pass


def test_certify_writes_verifiable_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "N=3 terms" in summary
    text = out.read_text()
    cert = deserialize(text)
    assert verify(cert)
    assert main(["verify", "--cert", str(out)]) == 0


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
def test_certify_summary_reports_the_largest_reduced_coefficient(pretty, tmp_path, capsys):
    # the bits of the weights, the squares and q as the file writes them,
    # whether or not the certificate was serialized before the summary
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    values = [F(t["omega"]) for t in doc["terms"]]
    values += [F(c) for t in doc["terms"] for c in t["h"]] + [F(c) for c in doc["q"]]
    bits = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values)
    capsys.readouterr()
    assert main(["certify", "--f", "x^3-2", "--g", "x"] + pretty) == 0
    assert f"max coefficient bits={bits}," in capsys.readouterr().err


def test_certify_stdout_json(capsys):
    code = main(["certify", "--f", "x^2+1", "--g", "x-100"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["version"] == "sos-cert/1"
    assert verify(deserialize(captured.out))
    assert "certificate:" in captured.err


def test_certify_pretty(capsys):
    code = main(["certify", "--f", "x^3-2", "--g", "x", "--pretty"])
    assert code == 0
    out = capsys.readouterr().out
    assert "f = x^3 - 2" in out
    assert "omega_1" in out


def test_certify_hypothesis_exit_code(capsys):
    assert main(["certify", "--f", "x^2", "--g", "x"]) == 2
    assert "hypothesis" in capsys.readouterr().err


def test_certify_negative_exit_code(capsys):
    code = main(["certify", "--f", "(x-1)*(x-3)", "--g", "x-2"])
    assert code == 3
    assert "not non-negative" in capsys.readouterr().err


def test_certify_constant_f_is_vacuous(tmp_path, capsys):
    # a non-zero constant f has no real roots: no squares, q = g/f
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "3", "--g", "-x^2-1", "--out", str(out)]) == 0
    assert main(["verify", "--cert", str(out)]) == 0
    cert = deserialize(out.read_text(encoding="utf-8"))
    assert (cert.weights, cert.q) == ((), Poly([F(-1, 3), 0, F(-1, 3)]))
    assert main(["certify", "--f", "0", "--g", "x"]) == 1
    assert capsys.readouterr().err.endswith("error: f must be non-zero\n")


def test_certify_parse_error_exit_code(capsys):
    assert main(["certify", "--f", "x^", "--g", "x"]) == 1
    capsys.readouterr()


def test_usage_error_maps_to_one(capsys):
    assert main(["certify", "--f", "x"]) == 1  # --g missing
    assert main([]) == 1
    capsys.readouterr()


def test_expression_starting_with_minus_follows_its_option(capsys):
    # argparse alone reads "-x^4" as an option and exits 1
    assert main(["certify", "--f", "x^5-x-1", "--g", "-x^4"]) == 3
    assert "not non-negative" in capsys.readouterr().err
    assert main(["inspect", "--f", "-x^2+2"]) == 0
    assert "f = -x^2 + 2" in capsys.readouterr().out


def test_verify_tampered_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["terms"][0]["omega"] = "999/1000"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(out)]) == 3
    assert "invalid" in capsys.readouterr().err


def test_verify_truncated_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(out)]) == 0
    out.write_text(out.read_text()[:40])
    assert main(["verify", "--cert", str(out)]) == 1
    capsys.readouterr()


def test_verify_missing_file(capsys):
    assert main(["verify", "--cert", "/nonexistent/cert.json"]) == 1
    capsys.readouterr()


def test_verify_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["verify", "--cert", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_verify_deeply_nested_file_exits_one(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("[" * 200000)
    assert main(["verify", "--cert", str(path)]) == 1
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "mutate, clause",
    [
        (lambda doc: [doc], "top-level value must be an object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "q"}, "missing key 'q'"),
        (lambda doc: {**doc, "f": 5}, "f: expected a coefficient array"),
        (lambda doc: {**doc, "terms": {}}, "'terms' must be an array"),
        (lambda doc: {**doc, "terms": [{"h": ["1"]}]}, "terms[0] must be an object with 'omega'"),
    ],
    ids=["array", "missing-key", "f-not-array", "terms-not-array", "term-without-omega"],
)
def test_verify_malformed_document_exits_one(mutate, clause, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(out)]) == 0
    out.write_text(json.dumps(mutate(json.loads(out.read_text()))))
    capsys.readouterr()
    assert main(["verify", "--cert", str(out)]) == 1
    assert clause in capsys.readouterr().err


def test_certify_out_into_missing_directory_exits_one(tmp_path, capsys):
    path = tmp_path / "missing" / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", "x", "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_inspect_zero_f_exits_one(capsys):
    assert main(["inspect", "--f", "0"]) == 1
    assert capsys.readouterr().err == "error: f must be non-zero\n"


def test_inspect_zero_g(capsys):
    assert main(["inspect", "--f", "x^2-2", "--g", "0"]) == 0
    assert "gcd(f, g) = f (g is zero)" in capsys.readouterr().out


def test_inspect_report(capsys):
    assert main(["inspect", "--f", "x*(x^3-2)^2", "--g", "x^3"]) == 0
    out = capsys.readouterr().out
    assert "d = gcd(f, g) = x" in out
    assert "(x^3 - 2)^2" in out
    assert "hypothesis gcd(d, f/d) = 1: OK" in out


def test_inspect_violated(capsys):
    assert main(["inspect", "--f", "x^2", "--g", "x"]) == 0
    assert "VIOLATED" in capsys.readouterr().out


def test_inspect_factor_table(capsys):
    assert main(["inspect", "--f", "x^4-1"]) == 0
    out = capsys.readouterr().out
    assert "distinct real roots: 1" in out
    assert "distinct real roots: 0" in out


def test_inspect_prints_yuns_parts_from_one_decomposition(monkeypatch, capsys):
    calls = []

    def spy(real):
        return lambda f: calls.append(f) or real(f)

    for name, module in list(sys.modules.items()):  # every binding of the name
        if name.startswith("rootsos") and hasattr(module, "squarefree_decompose"):
            monkeypatch.setattr(module, "squarefree_decompose", spy(module.squarefree_decompose))
    assert main(["inspect", "--f", "x*(x^3-2)^2*(x^2+1)^2*(x-1)^3"]) == 0
    out = capsys.readouterr().out
    block = out.split("squarefree decomposition:\n")[1].split("irreducible")[0]
    assert block == "  (x)^1\n  (x^5 + x^3 - 2*x^2 - 2)^2\n  (x - 1)^3\n"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "f, message",
    [("x^70+1", "error: degree 70 exceeds cap 64")],
    ids=["over-degree-cap"],
)
def test_refused_factorization_exits_1(f, message, capsys):
    assert main(["inspect", "--f", f]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert main(["certify", "--f", f, "--g", "x^2+2"]) == 1
    assert message in capsys.readouterr().err


def test_a_product_of_the_first_200_odd_primes_factors_and_certifies(tmp_path, capsys):
    # the discriminant P^2 of x(x - P) is divisible by the first 200 odd
    # primes; the prime search goes on past them
    big = odd_primes_product(200)
    f, out = f"x*(x-{big})", tmp_path / "cert.json"
    assert main(["certify", "--f", f, "--g", "x^2+2", "--out", str(out)]) == 0
    assert main(["verify", "--cert", str(out)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--f", f]) == 0
    factors = capsys.readouterr().out.split("irreducible factorization (unit 1):\n")[1]
    assert factors.splitlines() == [f"  (x - {big})^1  [distinct real roots: 1]",
                                    "  (x)^1  [distinct real roots: 1]"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["inspect", "--f", "(x^2-2)^2*(x^10000+x+1)"], 1, "degree 10004 exceeds cap 64"),
        (["certify", "--f", "(x^2-2)^2*(x^3000+x+1)", "--g", "(x^2-2)^2*(x+3)"], 1,
         "degree 3000 exceeds cap 64"),
        # the gcd hypothesis is still checked before the cap
        (["certify", "--f", "(x^2-2)^2*(x^3000+x+1)", "--g", "x^2-2"], 2,
         "hypothesis violated"),
    ],
    ids=["inspect-before-squarefree", "certify-before-bezout", "hypothesis-first"],
)
def test_over_cap_degree_is_refused_before_work_that_grows_with_it(argv, code, message, capsys):
    started = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - started < 1.0
    assert message in capsys.readouterr().err


def test_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["certify", "--f", "(x^2-2)*(x^2+1)", "--g", "x^2+3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "option, message",
    [
        # the precision ladder, the digits cap and the lambda factor are
        # constants, not options
        (["--precision-bits", "0"], "unrecognized arguments: --precision-bits 0"),
        (["--precision-bits", "-5"], "unrecognized arguments: --precision-bits -5"),
        (["--max-retries", "-1"], "unrecognized arguments: --max-retries -1"),
        (["--digits-cap", "0"], "unrecognized arguments: --digits-cap 0"),
        (["--digits-cap", "-5"], "unrecognized arguments: --digits-cap -5"),
        (["--lambda-factor", "1/0"], "unrecognized arguments: --lambda-factor 1/0"),
        (["--lambda-factor", "1e400"], "unrecognized arguments: --lambda-factor 1e400"),
        (["--json"], "unrecognized arguments: --json"),
    ],
    ids=[
        "precision-bits-0",
        "precision-bits-negative",
        "max-retries-negative",
        "digits-cap-0",
        "digits-cap-negative",
        "lambda-factor-zero-denominator",
        "lambda-factor-overflow",
        "json-removed",
    ],
)
def test_certify_rejects_bad_numeric_options(option, message, capsys):
    started = time.perf_counter()
    assert main(["certify", "--f", "x^3-2", "--g", "x"] + option) == 1
    assert time.perf_counter() - started < 1.0
    assert message in capsys.readouterr().err


def test_certify_deep_lift_pinned_bytes(tmp_path, capsys):
    # e = 9 lifts the cubic to (x^3-2)^16; the digest pins the certificate bytes
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x*(x^3-2)^9", "--g", "x^3", "--out", str(out)]) == 0
    assert main(["verify", "--cert", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "459047eb30138b67f5b4185c93f750a05569978626c3e08046ca8fb68fbf9776"
    capsys.readouterr()


# g = x^2 - r with r = floor(2^(1/4) * 10^20) / 10^20, so g(+-2^(1/8)) is in
# (0, 1e-20]: the shape of the benchmark's near-boundary refute instances
NEAR_BOUNDARY_G = "x^2 - 118920711500272106671/100000000000000000000"
# the same with r = floor(3^(1/4) * 10^20) / 10^20 for x^8 - 3
NEAR_BOUNDARY_G3 = "x^2 - 131607401295249246081/100000000000000000000"


@pytest.mark.parametrize(
    "f, g, precisions, fallbacks, digest",
    [
        ("x^16-2", "x^2+2*x+3", [106], 0,
         "dec117ff8ded16f922f173b794bc1496e51713c2d27d2668c8ee961f29265181"),
        ("x^8-2", NEAR_BOUNDARY_G, [106], 0,
         "d76fdd0c9431ab95ccb676d5121a51609771984c5bcb2eb300a90ea6476c39c4"),
        # two of its four factors are linear and are decided exactly
        ("x^8-10^40", "x+10^6", [106, 106], 0,
         "eaed94af1669d67d493551326eefbf6df3b196e3a928655db4c0aa85dd0c9079"),
        ("x^4+x+10^50", "x-1", [106, 212, 424], 0,
         "f8204c6a9088959c26cd295b8afdc6e2f0d28bcb6d73b14aa1599f303cb303eb"),
        ("x^8-3", NEAR_BOUNDARY_G3, [106], 0,
         "47bbd2776a191d952ac0c2d1f791e6aabc6898e6bb1d0d7c4f597656d8c2a8c3"),
        ("x^32-2", "x+3", [106], 0,
         "c2af913141988144828acaab8bda5ffb5fa303a4e7a55444025cbfdd4abc72e6"),
        # g = 0 and a g that f divides: no factors, so the empty square sum
        ("x^3-2", "0", [], 0,
         "e41dbba7227c183a56ec58e4c0e3c81ddc95fe139fe03a3a834c82f831623676"),
        ("x^3-2", "(x^3-2)*(x+5)", [], 0,
         "f835372580ca27b4486118d9d03d9c04b6a975a63a24b5c32010daa7a84c5c34"),
        ("(x-1)*(x+2)*(2*x-3)*(x^2+x+1)", "x^2+2*x+3", [106], 0,
         "83e61f331794683293007cfa541617652d73083d89180bdc1decb0bacc968df4"),
        # ill-conditioned roots: the Newton refinement stalls, polyroots decides
        ("*".join(f"(x-{k})" for k in range(1, 11)) + "+1/7", "x^2+1", [106], 1,
         "5af08188da4a9e6ecf7e4face59820ca3850b10d0dc76ef94ba38813d40a447f"),
        # the same with a conjugate pair: the pin covers the representative
        # that the fallback's classification takes
        ("*".join(f"(x-{k})" for k in range(1, 9)) + "*(x^2+2)+1/7", "x^2+1", [106], 1,
         "9ef4a4d64a602d088fd092302f53c5f2631b9f594a778ae1583302dc44517fe0"),
    ],
    ids=["dense-gram-16", "near-boundary", "large-roots", "huge-constant",
         "near-boundary-3", "dense-gram-32", "zero-g", "f-divides-g", "split-crt", "fallback",
         "fallback-pair"],
)
def test_certify_pinned_bytes(f, g, precisions, fallbacks, digest, monkeypatch, capsys):
    tried, fell_back = [], []
    find_roots, polyroots = numeric.find_roots, numeric._polyroots

    def spy(poly, bits, **kwargs):
        tried.append(bits)
        return find_roots(poly, bits, **kwargs)

    def fallback_spy(*args):
        fell_back.append(args)
        return polyroots(*args)

    monkeypatch.setattr(numeric, "find_roots", spy)
    monkeypatch.setattr(numeric, "_polyroots", fallback_spy)
    assert main(["certify", "--f", f, "--g", g]) == 0
    out = capsys.readouterr().out
    assert tried == precisions
    assert len(fell_back) == fallbacks
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@functools.cache
def _load_workloads():
    """bench/workloads.py as a module, loaded once and without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# first-pass sha256 of each benchmark workload and seed, as bench/run.py reports it
WORKLOAD_DIGESTS = {
    ("split_linear", 7): "92f0cd792420cd56acc5ee036a5cd2ba97b84c71c6147fda5354da95dbe14acd",
    ("split_linear", 11): "9a8c22454a6e2dae98c5117a95baa4df7a4debb575d2edc1cc77a2aab867b2ee",
    ("split_linear", 23): "1963ce392770c2200fb0b8d3a8c33963eb8c2a8596f9d621e677f8b31f5f03f3",
    ("lift_mult", 7): "41700bdd4f00b6d6f78c8e800a2a080a798c47c7374af535d2cb32ac1ed20bf1",
    ("lift_mult", 11): "4a4d9185906034a9cf681b5c7bcdfcdc9971bb529446054382014822e812b827",
    ("lift_mult", 23): "37350bee91e71b594753e1d431110436e075170c815b403190843702c718338f",
    ("refute", 7): "453b21d101803d65d95cccba3cea583c05009344c063caa906959920eac7c972",
    ("refute", 11): "3feb42cd115bb632dfdd280116bcd76f087f9e047066d6988ec362123c23c60d",
    ("refute", 23): "428922bcbde28f9bde8b4d7a3b176ce5afda4066a3d91744586905bbd7b0e590",
    ("dense_sqf", 7): "a079ecd8008b5fe5845f975d173c253452eb3db27c69de7af03422c21df7ede9",
    ("dense_sqf", 11): "9b03b6b4e8de3521b7c6c3ed41cf9204cc93808700e91896171e7ebb35b8a23e",
    ("dense_sqf", 23): "380a36c18f0565efdb2aea3a316431c7eacefad646b5b21abb28eb58d90c086e",
}


@pytest.mark.parametrize("workload, seed", WORKLOAD_DIGESTS,
                         ids=[f"{w}-{seed}" for w, seed in WORKLOAD_DIGESTS])
def test_certify_benchmark_workload_bytes(workload, seed, tmp_path, capsys):
    # hashed as bench/run.py hashes a first pass: per instance in order, the
    # exit code and a line break, then the certificate text (empty on a refusal)
    workloads = _load_workloads()
    out = tmp_path / "cert.json"
    hashed = hashlib.sha256()
    for inst in workloads.WORKLOADS[workload](seed):
        out.unlink(missing_ok=True)
        code = main(["certify", "--f", inst.f_expr, "--g", inst.g_expr, "--out", str(out)])
        assert code == inst.expect, inst.id
        hashed.update(f"{code}\n".encode())
        hashed.update((out.read_text(encoding="utf-8") if code == 0 else "").encode())
    capsys.readouterr()
    assert hashed.hexdigest() == WORKLOAD_DIGESTS[workload, seed]


@pytest.mark.parametrize(
    "f, g",
    [
        ("x^3-2", "x"),
        # the margin test's exact rationals pass the int-to-str limit here,
        # so the message must print floats only
        ("x^3-10^5000", "x+1"),
    ],
    ids=["cube-root-2", "huge-constant"],
)
def test_certify_eigensolver_failure_exits_four(f, g, monkeypatch, capsys):
    # a margin kernel whose Cholesky never succeeds finds no margin at any rung
    monkeypatch.setattr(numeric, "smallest_pivot", lambda _rows, _shift, _prec: None)
    assert main(["certify", "--f", f, "--g", g]) == 4
    err = capsys.readouterr().err
    assert err.startswith("precision exhausted")
    assert len(err) < 1000
    assert err.count("no rounding margin") == 4
    # each rung states its own residual
    assert len(re.findall(r"bits: no rounding margin \(Q\* - rho\*I has no Cholesky factor; "
                          r"rho=\d\S*\)", err)) == 4


def test_certify_rung_rounded_at_the_cap_names_it(capsys):
    # g = x - r with r = floor(xi*10^120)/10^120 at the real root xi ~
    # -6.0075965 of f: at 848 bits the smallest pivot of Q* - rho*I is about
    # 2e-132, so the margin asks for more than the 64-digit cap, and the
    # rung rounded at the cap says so
    f = "x^8+6*x^7-x^6-7*x^5-7*x^4+5*x^3+9*x^2+6*x+2"
    r = ("600759652132039513741650665387082899112924556943145781428536716774841970003528084091"
         "7160229530364261971903756180189750010")  # -floor(xi*10^120)
    assert main(["certify", "--f", f, "--g", f"x+{r}/10^120"]) == 4
    err = capsys.readouterr().err
    assert re.search(r"424 bits: g\(\S+\) = \S+ is too close to zero to call", err)
    assert re.search(r"848 bits: no positive exact LDL\^T at 64 digits, the cap; the margin asks "
                     r"for more \(smallest pivot=\S+e-13\d, rho=\S+\)$", err)


def test_certify_root_finder_failure_exits_four(monkeypatch, capsys):
    def no_convergence(*_args, **_kwargs):
        raise mp.NoConvergence("Didn't converge in maxsteps=500 steps.")

    monkeypatch.setattr(numeric, "_newton", lambda *_args: None)  # every root stalls
    monkeypatch.setattr(numeric.mp, "polyroots", no_convergence)
    assert main(["certify", "--f", "x^3-2", "--g", "x"]) == 4
    assert "precision exhausted" in capsys.readouterr().err


def test_certify_clear_negative_beats_an_earlier_near_zero(monkeypatch, capsys):
    # g(-sqrt 2) ~ 1e-70 is too close to zero to call at 106 bits, but
    # g(sqrt 2) ~ -2.83 < 0: the exact count refuses before any root is found
    tried = []
    find_roots = numeric.find_roots

    def spy(poly, bits, **kwargs):
        tried.append(bits)
        return find_roots(poly, bits, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", spy)
    g = "-x-1.4142135623730950488016887242096980785696718753769480731766797379907324"
    assert main(["certify", "--f", "x^2-2", "--g=" + g]) == 3
    assert tried == []
    assert "not non-negative: g < 0 at 1 of the 2 real roots" in capsys.readouterr().err


def test_certify_calls_a_value_by_its_error_bound(monkeypatch, tmp_path, capsys):
    # r = floor(2^(1/3)*10^70)/10^70: g(2^(1/3)) is about 2^-233, lost in
    # rounding at 106 and 212 bits; at 424 bits it is far above its error
    # bound, so it is called
    tried = []
    find_roots = numeric.find_roots

    def spy(poly, bits, **kwargs):
        tried.append(bits)
        return find_roots(poly, bits, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", spy)
    r = "12599210498948731647672106072782283505702514647015079800819751121552996"
    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3-2", "--g", f"x-{r}/10^70", "--out", str(out)]) == 0
    assert tried == [106, 212, 424]
    assert main(["verify", "--cert", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "7bc0f12fb64208e62af2615fde36818a8537f2114cd5f4b47fe85d634c41dc75"
    capsys.readouterr()


@pytest.mark.parametrize("k", [70, 80, 100])
def test_certify_decides_g_at_the_precision_boundary(k, tmp_path, capsys):
    # g = +-(x - floor(xi*10^k)/10^k) at a real root xi drawn by the seed:
    # |g(xi)| <= 10^-k, below what 106 or 212 bits can call.  The Tarski
    # query decides the sign; a positive must certify, a negative refuse
    rng = random.Random(7)
    out = tmp_path / "cert.json"
    for text in ["x^3-2", "x^5-x-1", "x^3-3*x+1", "x^4-10*x^2+1"]:
        f = parse_poly(text)
        with mp.workdps(k + 40):
            roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in f.coeffs[::-1]],
                                 maxsteps=200, extraprec=4 * k)
            xi = rng.choice(sorted(mp.re(z) for z in roots if abs(mp.im(z)) < mp.mpf(10)**-k))
            r = F(int(mp.floor(xi * mp.mpf(10)**k)), 10**k)
        for sign in (1, -1):
            g = (X - Poly.constant(r)) * Poly.constant(sign)
            negative = sturm_real_root_count(f) - tarski_query(f, g % f)
            code = main(["certify", "--f", text, "--g=" + str(g), "--out", str(out)])
            assert code == (3 if negative else 0), (text, str(g))
            if code == 0:
                assert main(["verify", "--cert", str(out)]) == 0
    capsys.readouterr()


def test_import_loads_no_third_party_package_but_mpmath():
    # what the package imports is paid on every run's start-up and memory
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rootsos, rootsos.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(added - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["mpmath", "rootsos"]


TEN_TO_MINUS_80 = "0." + "0" * 79 + "1"


@pytest.mark.parametrize(
    "f, g, code, degrees",
    [
        ("x-1", TEN_TO_MINUS_80, 0, []),
        ("x-1", "-" + TEN_TO_MINUS_80, 3, []),
        # the linear factor is decided exactly; only x^2+1 has numeric work
        ("(x-1)*(x^2+1)", "x-1+" + TEN_TO_MINUS_80, 0, [2]),
    ],
    ids=["linear-tiny-positive", "linear-tiny-negative", "linear-factor-tiny-positive"],
)
def test_certify_decides_a_rational_root_exactly(f, g, code, degrees, monkeypatch, capsys):
    # |g(1)| = 10^-80 is too close to zero to call at every precision up to
    # the cap, so a float decision would exit 4
    seen = []
    find_roots = numeric.find_roots

    def spy(poly, bits, **kwargs):
        seen.append(poly.degree)
        return find_roots(poly, bits, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", spy)
    assert main(["certify", "--f", f, "--g=" + g]) == code
    assert seen == degrees
    capsys.readouterr()


def test_certify_reports_the_exact_rational_root_and_value(capsys):
    assert main(["certify", "--f", "2*x-3", "--g=-x"]) == 3
    err = capsys.readouterr().err
    assert err == "not non-negative: g < 0 at 1 of the 1 real roots of x - 3/2\n"


@pytest.mark.parametrize(
    "f, g",
    [
        # g = -10^-200 at the real root 2^(1/3): at every precision up to the
        # cap a float test could not call it
        ("x^3-2", "x^3-2-1/10^200"),
        # x^n - c, n even, has the root -c^(1/n) < -1, where g = x - 1 < 0
        ("x^10-3", "x-1"),
        ("x^12-5", "x-1"),
        ("x^14-7", "x-1"),
        # g = s^2 - s(-2/3)^2 - 3 is -3 at the rational root -2/3
        ("(3*x+2)*(x^8-3)", "(x^2-x+1)^2 - (4/9+2/3+1)^2 - 3"),
    ],
    ids=["tiny-negative", "binomial-10", "binomial-12", "binomial-14", "rational-and-binomial"],
)
def test_certify_refuses_exactly_without_find_roots(f, g, monkeypatch, capsys):
    def no_numerics(*_args, **_kwargs):
        raise AssertionError("find_roots called on a refusal")

    monkeypatch.setattr(numeric, "find_roots", no_numerics)
    assert main(["certify", "--f", f, "--g", g]) == 3
    assert "not non-negative: g < 0 at 1 of the" in capsys.readouterr().err


def test_certify_refusal_with_a_huge_rational_root_prints(capsys):
    # str() of the exact root 10^5000 would pass the int<->str digit limit
    assert main(["certify", "--f", "x-10^5000", "--g=-x^2"]) == 3
    assert "too large to print" in capsys.readouterr().err


def test_verify_oversized_integer_is_a_parse_error(tmp_path, capsys):
    big = "1" + "0" * 5000  # Python converts at most 4300 digits
    doc = {"version": "sos-cert/1", "f": ["-2", "0", "0", "1"], "g": ["1"],
           "q": [], "terms": [{"omega": f"{big}/3", "h": ["1"]}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 1
    assert "terms[0].omega" in capsys.readouterr().err


def test_certify_oversized_certificate_exits_one(monkeypatch, capsys):
    def oversized(f, g, **_options):
        return Certificate(f, g + Poly.constant(10**5000), (), (), Poly.zero())

    monkeypatch.setattr(cli, "certify_nonnegative", oversized)
    assert main(["certify", "--f", "x^3-2", "--g", "x"]) == 1
    assert "cannot write the certificate" in capsys.readouterr().err


def test_verify_oversized_residual_is_reported(tmp_path, capsys):
    # every coefficient is below the limit, but the residual's is not
    big = "1" + "0" * 3000
    doc = {"version": "sos-cert/1", "f": ["1", "1"], "g": [big],
           "q": [], "terms": [{"omega": big, "h": [big]}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 3
    assert "too large to print" in capsys.readouterr().err


def test_parse_rejects_nested_power_before_computing(monkeypatch, capsys):
    degrees = []
    power = Poly.__pow__

    def spy(base, exponent):
        degrees.append(max(base.degree, 0) * exponent)
        return power(base, exponent)

    monkeypatch.setattr(Poly, "__pow__", spy)
    assert parse_poly("(x^100)^100") == Poly.monomial(10000)
    with pytest.raises(ParseError):
        parse_poly("(x^100)^101")
    with pytest.raises(ParseError):
        parse_poly("(x^10000)^10000")
    assert max(degrees) <= MAX_EXPONENT
    assert main(["certify", "--f", "(x^10000)^10000", "--g", "x"]) == 1
    assert "a power of degree <= 10000" in capsys.readouterr().err


def test_parse_rejects_large_coefficient_power_before_computing(monkeypatch, capsys):
    exponents = []
    power = Poly.__pow__

    def spy(base, exponent):
        exponents.append(exponent)
        return power(base, exponent)

    monkeypatch.setattr(Poly, "__pow__", spy)
    assert parse_poly("(2^100)^10000") == Poly.constant(2**1000000)  # 1,010,000 bits
    for text in ["(2^200)^10000", "((10^4000)^10000)^10000", "(10^4000*x+1)^100"]:
        with pytest.raises(ParseError, match=f"coefficients <= {MAX_POWER_BITS} bits"):
            parse_poly(text)
    assert exponents == [100, 10000, 200, 4000, 4000]
    assert main(["certify", "--f", "(10^4000)^100*x-1", "--g", "x"]) == 1
    assert f"a power of coefficients <= {MAX_POWER_BITS} bits" in capsys.readouterr().err


def test_certify_oversized_hypothesis_violation_exits_two(capsys):
    assert main(["certify", "--f", "(x-10^5000)^2", "--g", "x-10^5000"]) == 2
    assert "too large to print" in capsys.readouterr().err


def test_inspect_oversized_coefficient(capsys):
    assert main(["inspect", "--f", "10^5000*x-1", "--g", "x"]) == 0
    out = capsys.readouterr().out
    assert "unit <16610-bit integer, too large to print>" in out
    assert "hypothesis gcd(d, f/d) = 1: OK" in out
    assert main(["inspect", "--f", "1-10^5000*x"]) == 0  # the unit is -10^5000
    assert "unit -<16610-bit integer, too large to print>" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, what",
    [
        ("(x+1)^10000", "a power"),
        ("(x+1)^5000*(x+1)^5000", "a power"),
        # each power is below the cap, their product is not
        ("(x+1)^1000*(x+1)^1000", "a product"),
        # a quotient goes through the same guard as a product
        ("(x+1)^1000/(2^100)^10000", "a product"),
    ],
)
def test_parse_bounds_the_size_of_powers_and_products(text, what, capsys):
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"{what} of size <= {MAX_SIZE_BITS} bits"):
        parse_poly(text)
    assert main(["certify", "--f", text, "--g", "x"]) == 1
    assert time.perf_counter() - started < 1.0
    assert f"{what} of size <= {MAX_SIZE_BITS} bits" in capsys.readouterr().err
