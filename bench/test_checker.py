"""The benchmark's independent checker accepts sound certificates and
rejects tampered ones, including one emitted by `rootsos certify`."""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# 2 - 2x = (x - 1)^2 - (x^2 - 1): g >= 0 at the roots +-1 of f = x^2 - 1
F = [Fraction(-1), Fraction(0), Fraction(1)]
G = [Fraction(2), Fraction(-2)]
VALID = {
    "version": "sos-cert/1",
    "f": ["-1", "0", "1"],
    "g": ["2", "-2"],
    "q": ["-1"],
    "terms": [{"omega": "1", "h": ["-1", "1"]}],
}


def _with(**changes) -> str:
    doc = copy.deepcopy(VALID)
    doc.update(changes)
    return json.dumps(doc)


def test_accepts_a_valid_certificate():
    assert checker.check(json.dumps(VALID), F, G) is None
    assert checker.max_bits(json.dumps(VALID)) == 1


@pytest.mark.parametrize(
    "text, g, reason",
    [
        (_with(terms=[{"omega": "2", "h": ["-1", "1"]}]), G, "is not zero"),
        (_with(q=["-2"]), G, "is not zero"),
        # the identity holds, but 2x - 2 < 0 at x = -1 and the weight is -1
        (_with(g=["-2", "2"], q=["1"], terms=[{"omega": "-1", "h": ["-1", "1"]}]),
         [Fraction(-2), Fraction(2)], "not positive"),
        # the identity holds with a square of degree deg f
        (_with(g=["0", "0", "0", "0", "1"], q=[], terms=[{"omega": "1", "h": ["0", "0", "1"]}]),
         [Fraction(0)] * 4 + [Fraction(1)], "degree"),
        (json.dumps(VALID), [Fraction(3), Fraction(-2)], "another (f, g)"),
        (_with(terms=[{"omega": "1/0", "h": ["-1", "1"]}]), G, "unreadable"),
        ("{", G, "unreadable"),
    ],
    ids=["weight", "q", "negative-weight", "square-degree", "other-g", "zero-denominator",
         "not-json"],
)
def test_rejects_tampered_certificates(text, g, reason):
    verdict = checker.check(text, F, g)
    assert verdict is not None and reason in verdict


def test_rejects_a_tampered_rootsos_certificate(tmp_path, capsys):
    from rootsos.cli import main

    out = tmp_path / "cert.json"
    assert main(["certify", "--f", "x^3 - 2", "--g", "x", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    f = [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)]
    g = [Fraction(0), Fraction(1)]
    assert checker.check(text, f, g) is None

    doc = json.loads(text)
    doc["terms"][0]["omega"] = str(2 * Fraction(doc["terms"][0]["omega"]))
    assert "is not zero" in checker.check(json.dumps(doc), f, g)
