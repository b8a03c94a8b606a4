import contextlib
import hashlib
import math
import random
import re
from collections.abc import Sequence
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rootsos import exactify, numeric
from rootsos.certificate import serialize
from rootsos.exactify import (
    DegreeTooHigh,
    GramLift,
    NotNonnegative,
    NotPD,
    PrecisionExhausted,
    SharedFactor,
    certify_strict_squarefree,
    check_positive_definite,
    delta_bound,
    gram_of_poly,
    gram_poly,
    gram_to_sos,
    project,
    round_to_digits,
)
from rootsos.lifting import certify_nonnegative
from rootsos.numeric import IllConditioned
from rootsos.ratpoly import Poly, norm2_squared
from support import random_nonzero_poly

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)
# x^8 - 2 with g = x^2 - r, r = floor(2^(1/4)*10^20)/10^20: g(+-2^(1/8)) is
# about 7.5e-21, far above its error bound at every rung
NEAR_F = X**8 - Poly.constant(2)
NEAR_G = X**2 - Poly.constant(F(118920711500272106671, 10**20))

TOY_QBAR = (
    (F(6, 10), F(1, 10), F(-2, 10)),
    (F(1, 10), F(4, 10), F(-1, 10)),
    (F(-2, 10), F(-1, 10), F(4, 10)),
)
TOY_Q = (
    (F(3, 5), F(1, 10), F(-1, 5)),
    (F(1, 10), F(2, 5), F(-3, 20)),
    (F(-1, 5), F(-3, 20), F(2, 5)),
)


def _random_symmetric(rng, n, bound=40):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = F(rng.randint(-bound, bound), rng.randint(1, 8))
    return tuple(tuple(r) for r in rows)


def test_gram_of_poly_error_matrix():
    # the antidiagonal averaging of -(1/10)x^3 + (1/10)x^2 for n = 3
    q = gram_of_poly(Poly([0, 0, F(1, 10), F(-1, 10)]), 3)
    assert q == (
        (F(0), F(0), F(1, 30)),
        (F(0), F(1, 30), F(-1, 20)),
        (F(1, 30), F(-1, 20), F(0)),
    )


def test_gram_of_poly_zero_and_corner():
    assert gram_of_poly(Poly.zero(), 2) == ((F(0), F(0)), (F(0), F(0)))
    assert gram_of_poly(X**2, 2) == ((F(0), F(0)), (F(0), F(1)))
    with pytest.raises(DegreeTooHigh):
        gram_of_poly(X**3, 2)


def test_gram_poly_inverts_gram_of_poly():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = random_nonzero_poly(rng, 2 * n - 2, 100)
        assert gram_poly(gram_of_poly(p, n)) == p


def test_project_toy_example():
    q = project(TOY_QBAR, X - Poly([F(3, 10), F(-2, 5)]) * F_CUBE)
    assert q == TOY_Q


def test_project_second_example():
    qbar = (
        (F(6, 10), F(0), F(-2, 10)),
        (F(0), F(5, 10), F(-2, 10)),
        (F(-2, 10), F(-2, 10), F(5, 10)),
    )
    target = X - Poly([F(3, 10), F(-1, 2)]) * F_CUBE
    assert project(qbar, target) == (
        (F(3, 5), F(0), F(-7, 30)),
        (F(0), F(7, 15), F(-3, 20)),
        (F(-7, 30), F(-3, 20), F(1, 2)),
    )


def test_project_idempotent_and_member():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 6)
        q = _random_symmetric(rng, n)
        p = random_nonzero_poly(rng, 2 * n - 2, 100)
        proj = project(q, p)
        assert gram_poly(proj) == p
        assert project(proj, p) == proj
        # what was subtracted lies in the antidiagonal (Hankel) span:
        # constant along every antidiagonal
        for k in range(2 * n - 1):
            entries = [
                q[i][k - i] - proj[i][k - i]
                for i in range(n)
                if 0 <= k - i < n
            ]
            assert all(e == entries[0] for e in entries)


def test_project_degree_guard():
    with pytest.raises(DegreeTooHigh):
        project(TOY_QBAR, X**5)


def test_frobenius_norm_bound():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = random_nonzero_poly(rng, 2 * n - 2, 100)
        q = gram_of_poly(p, n)
        frob2 = sum(q[i][j] ** 2 for i in range(n) for j in range(n))
        assert frob2 <= norm2_squared(p)


def test_delta_bound_second_example():
    delta = delta_bound(F_CUBE, 0.246693, 1.16e-15)
    assert F(226, 10**4) < delta < F(228, 10**4)


def test_delta_bound_signs_and_linear():
    assert delta_bound(F_CUBE, 0.1, 0.2) <= 0
    # n = 1: denominator collapses to 1
    d = delta_bound(X - Poly.one(), 0.5, 0.0)
    assert d == F(99, 100) * F(1, 2)


def test_round_to_digits_scalar():
    assert round_to_digits([0.2295612], 2) == Poly.constant(F(23, 100))
    assert round_to_digits([F(3, 10)], 1) == Poly.constant(F(3, 10))
    with pytest.raises(ValueError):
        round_to_digits([0.5], 0)


def test_round_to_digits_matrix_one_digit():
    with mp.workprec(106):
        qs = tuple(
            tuple(mp.mpf(v) for v in row)
            for row in (
                ("0.6322063", "-0.0167531", "-0.2295612"),
                ("-0.0167531", "0.4591225", "-0.1580516"),
                ("-0.2295612", "-0.1580516", "0.5167531"),
            )
        )
    rounded = round_to_digits(qs, 1)
    assert rounded == (
        (F(3, 5), F(0), F(-1, 5)),
        (F(0), F(1, 2), F(-1, 5)),
        (F(-1, 5), F(-1, 5), F(1, 2)),
    )


def test_check_positive_definite_toy():
    ldl = check_positive_definite(TOY_Q)
    assert ldl is not None
    assert ldl[0] == (F(3, 5), F(23, 60), F(137, 460))


def test_check_positive_definite_identity_and_indefinite():
    eye = ((F(1), F(0)), (F(0), F(1)))
    ldl = check_positive_definite(eye)
    assert ldl is not None
    weights, squares = ldl
    assert weights == (F(1), F(1))
    assert squares == (Poly.one(), X)  # the columns of L = I
    assert check_positive_definite(((F(1), F(2)), (F(2), F(1)))) is None


def _leading_minors_positive(q):
    n = len(q)
    for k in range(1, n + 1):
        sub = [[q[i][j] for j in range(k)] for i in range(k)]
        if _det(sub) <= 0:
            return False
    return True


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_ldl_vs_determinant_oracle():
    rng = random.Random(999)
    for _ in range(80):
        n = rng.randint(1, 5)
        q = _random_symmetric(rng, n, 10)
        ldl = check_positive_definite(q)
        if ldl is not None:
            # reconstruction and the independent minor criterion
            weights, squares = ldl
            recon = [
                [
                    sum(w * h.coefficient(i) * h.coefficient(j) for w, h in zip(weights, squares))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert tuple(tuple(r) for r in recon) == q
            assert _leading_minors_positive(q)
        else:
            assert not _leading_minors_positive(q)


def _ldl_reference(q):
    """Square-root-free Cholesky in Fraction arithmetic, column by column."""
    n = len(q)
    lower = [[F(0)] * n for _ in range(n)]
    diag = []
    for j in range(n):
        lower[j][j] = F(1)
        pivot = q[j][j] - sum((lower[j][k] ** 2 * diag[k] for k in range(j)), F(0))
        if pivot <= 0:
            return None
        diag.append(pivot)
        for i in range(j + 1, n):
            acc = q[i][j] - sum((lower[i][k] * lower[j][k] * diag[k] for k in range(j)), F(0))
            lower[i][j] = acc / pivot
    return tuple(tuple(r) for r in lower), tuple(diag)


@st.composite
def _symmetric_rational(draw):
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(entry)
    if draw(st.booleans()):  # diagonally dominant, so positive definite
        for i in range(n):
            rows[i][i] = sum(map(abs, rows[i])) + draw(st.fractions(min_value=F(1, 10**6),
                                                                     max_value=1))
    return tuple(tuple(r) for r in rows)


@settings(max_examples=150, deadline=None)
@given(_symmetric_rational())
def test_bareiss_ldl_equals_the_fraction_reference(q):
    # the fraction-free elimination returns the same factors (square k is
    # column k of L), and fails on exactly the matrices where the Fraction
    # loop meets a pivot <= 0
    ldl = check_positive_definite(q)
    reference = _ldl_reference(q)
    if reference is None:
        assert ldl is None
    else:
        lower, diag = reference
        columns = tuple(Poly(row[k] for row in lower) for k in range(len(q)))
        assert ldl == (diag, columns)


def test_bareiss_ldl_accepts_integers_and_stops_at_a_zero_pivot():
    assert check_positive_definite(((4, 2), (2, 3)))[0] == (F(4), F(2))
    # singular leading block: the second pivot is exactly zero
    third = F(1, 3)
    assert check_positive_definite(((third, third, 0), (third, third, 0), (0, 0, 1))) is None
    assert check_positive_definite(()) == ((), ())


def test_gram_to_sos_toy():
    lift = GramLift(TOY_Q, Poly([F(3, 10), F(-2, 5)]), F_CUBE, X)
    sos = gram_to_sos(lift)
    assert sos.weights == (F(3, 5), F(23, 60), F(137, 460))
    assert sos.polys == (
        Poly([1, F(1, 6), F(-1, 3)]),
        Poly([0, 1, F(-7, 23)]),
        Poly([0, 0, 1]),
    )


def test_gram_to_sos_identity_matrix():
    f = X**2 + Poly.one()
    lift = GramLift(((F(1), F(0)), (F(0), F(1))), Poly.zero(), f, Poly.one() + X**2)
    sos = gram_to_sos(lift)
    assert sos.weights == (F(1), F(1))
    assert sos.polys == (Poly.one(), X)


def test_gram_to_sos_not_pd():
    bad = ((F(1), F(2)), (F(2), F(1)))
    lift = GramLift(bad, Poly.zero(), X**2 + Poly.one(), gram_poly(bad))
    with pytest.raises(NotPD):
        gram_to_sos(lift)


def test_gram_lift_validates_identity():
    with pytest.raises(ValueError):
        GramLift(TOY_Q, Poly.zero(), F_CUBE, X)


def test_sos_reconstruction_random_pd():
    rng = random.Random(4321)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        q = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            q[i][i] += 1
        q = tuple(tuple(row) for row in q)  # A^T A + I is positive definite
        f = Poly.monomial(n) - Poly.constant(2)
        lift = GramLift(q, Poly.zero(), f, gram_poly(q))
        sos = gram_to_sos(lift)
        assert sos.square_sum() == gram_poly(q)


def test_certify_strict_toy():
    lift, sos = certify_strict_squarefree(F_CUBE, X)
    assert check_positive_definite(lift.Q) is not None
    assert gram_poly(lift.Q) + lift.q * F_CUBE == X
    assert sos.square_sum() == gram_poly(lift.Q)


def test_certify_strict_vacuous():
    f = X**2 + Poly.one()
    g = Poly.constant(-1)
    lift, sos = certify_strict_squarefree(f, g)
    assert gram_poly(lift.Q) + lift.q * f == g
    assert all(w > 0 for w in sos.weights)


LINEAR_ROOTS = (F(0), F(10**300), F(1, 10**300), F(3**300 + 1, 3**300 - 1), F(-7, 3),
                F(1 - 2**1000, 3))
LINEAR_GS = (Poly.constant(F(1, 10**70)), Poly.constant(10**70), X + Poly.constant(10**300),
             X**3 + Poly.constant(5))


@pytest.mark.parametrize("g", LINEAR_GS, ids=["1e-70", "1e70", "x+1e300", "x^3+5"])
@pytest.mark.parametrize("r", LINEAR_ROOTS,
                         ids=["0", "1e300", "1e-300", "near-1", "-7/3", "-2^1000/3"])
def test_certify_strict_linear(r, g, monkeypatch):
    # a linear f takes the Gram path: its 1x1 rounding projects to (g(r)),
    # found at the first rung; a negative g(r) is refused before any rung
    tried = []
    find_roots = numeric.find_roots

    def spy(poly, bits, **kwargs):
        tried.append(bits)
        return find_roots(poly, bits, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", spy)
    f = X - Poly.constant(r)
    v = g(r)
    if v < 0:
        with pytest.raises(NotNonnegative) as info:
            certify_strict_squarefree(f, g)
        assert (info.value.factor, info.value.negative, info.value.real) == (f, 1, 1)
        assert tried == []
        return
    lift, sos = certify_strict_squarefree(f, g)
    assert lift.Q == ((v,),)
    assert lift.q == g // f
    assert (sos.weights, sos.polys) == ((v,), (Poly.one(),))
    assert tried == [106]


def test_certify_strict_linear_negative_is_exact(monkeypatch):
    def no_numerics(*_args, **_kwargs):
        raise AssertionError("find_roots called for a linear f")

    monkeypatch.setattr(numeric, "find_roots", no_numerics)
    f = 2 * X - Poly.constant(3)
    with pytest.raises(NotNonnegative) as info:  # g(3/2) = -1/2
        certify_strict_squarefree(f, X - Poly.constant(2))
    assert (info.value.factor, info.value.negative, info.value.real) == (f, 1, 1)
    assert str(info.value) == "g < 0 at 1 of the 1 real roots of 2*x - 3"


def test_certify_strict_negative_definitive(monkeypatch):
    def no_numerics(*_args, **_kwargs):
        raise AssertionError("find_roots called despite a negative root")

    monkeypatch.setattr(numeric, "find_roots", no_numerics)
    f = (X - Poly.one()) * (X + Poly.one())
    for g, negative in [(X - Poly.constant(5), 2), (X, 1)]:
        with pytest.raises(NotNonnegative) as info:
            certify_strict_squarefree(f, g)
        assert (info.value.factor, info.value.negative, info.value.real) == (f, negative, 2)


@pytest.mark.parametrize(
    "f, g, common",
    [
        # g vanishes exactly at a real root of f
        ((X - Poly.one()) * (X + Poly.constant(2)), X - Poly.one(), X - Poly.one()),
        # g vanishes only at the complex roots of f; g(1) = 2 > 0
        (X**3 - X**2 + X - Poly.one(), X**2 + Poly.one(), X**2 + Poly.one()),
    ],
    ids=["real-root", "complex-roots"],
)
def test_certify_strict_rejects_shared_factor(f, g, common, monkeypatch):
    def no_numerics(*_args, **_kwargs):
        raise AssertionError("find_roots called despite a shared factor")

    monkeypatch.setattr(numeric, "find_roots", no_numerics)
    with pytest.raises(SharedFactor) as info:
        certify_strict_squarefree(f, g)
    assert info.value.common == common
    assert str(common) in str(info.value)


@pytest.mark.parametrize(
    "f, g, digits_cap, attempts",
    [
        # certifies at its first rung: one projection and one LDL^T in all
        (F_CUBE, X, 64, 1),
        # with DIGITS_CAP = 1 and ||g|| = 1 each rung rounds at 1 digit; the
        # (1,1) entry of this Gram matrix is about 0.0025, so its projected
        # 1-digit rounding is singular on each of the four rungs of the ladder
        (X**2 - Poly.constant(200), Poly.one(), 1, 4),
    ],
    ids=["first-t", "repeated-t"],
)
def test_certify_strict_one_projection_and_ldl_per_tried_t(
    f, g, digits_cap, attempts, monkeypatch
):
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(exactify, name, wrapper)

    spy("project", exactify.project)
    spy("check_positive_definite", exactify.check_positive_definite)
    spy("gram_to_sos", exactify.gram_to_sos)
    monkeypatch.setattr(exactify, "DIGITS_CAP", digits_cap)
    exhausts = pytest.raises(PrecisionExhausted) if attempts > 1 else contextlib.nullcontext()
    with exhausts:
        certify_strict_squarefree(f, g)
    assert calls == ["project", "check_positive_definite"] * attempts


def test_certify_strict_rounds_once_per_rung(monkeypatch):
    # the margin only picks the digits: a rounding whose exact LDL^T fails is
    # not retried at more digits, the next rung recovers, and each failed
    # rung states what its margin test found
    rounded = []
    round_to_digits = exactify.round_to_digits

    def spy(value, digits):
        rounded.append((isinstance(value[0], Sequence), digits))
        return round_to_digits(value, digits)

    monkeypatch.setattr(exactify, "round_to_digits", spy)
    monkeypatch.setattr(exactify, "check_positive_definite", lambda _rows: None)
    with pytest.raises(PrecisionExhausted) as info:
        certify_strict_squarefree(F_CUBE, X)
    attempts = info.value.attempts
    assert [bits for bits, _reason in attempts] == [106, 212, 424, 848]
    matrix_digits = [digits for is_matrix, digits in rounded if is_matrix]
    assert len(matrix_digits) == 4  # one matrix rounding per rung
    assert rounded == [(kind, d) for d in matrix_digits for kind in (True, False)]
    for (_bits, reason), digits in zip(attempts, matrix_digits):
        assert digits < exactify.DIGITS_CAP
        assert re.fullmatch(
            rf"no positive exact LDL\^T at {digits} digits \(smallest pivot=\S+, rho=\S+\)", reason)


# g scaled by a positive constant, down to 1e-300 (a digit cap of about 364)
SCALED_G = {
    "one": (X**4 + X + Poly.one(), Poly.one()),
    "1e-20": (X**4 + X + Poly.one(), Poly.constant(F(1, 10**20))),
    "1e-70": (X**4 + X + Poly.one(), Poly.constant(F(1, 10**70))),
    "1e-300": (X**4 + X + Poly.one(), Poly.constant(F(1, 10**300))),
    "cube-1e-300": (F_CUBE, Poly.constant(F(1, 10**300))),
    "cube-linear-1e-300": (F_CUBE, Poly([F(1, 10**301), F(1, 10**300)])),
    "near-1e-300": (NEAR_F, NEAR_G * Poly.constant(F(1, 10**300))),
    "near-1e300": (NEAR_F, NEAR_G * Poly.constant(10**300)),
}


@pytest.mark.parametrize("f, g", SCALED_G.values(), ids=SCALED_G)
def test_certify_strict_limits_scale_with_g(f, g, monkeypatch):
    # a positive constant factor on g only scales the certificate: the
    # error bound of each value and the digit cap follow g, so one rung
    # suffices
    tried = []
    find_roots = numeric.find_roots

    def spy(poly, bits, **kwargs):
        tried.append(bits)
        return find_roots(poly, bits, **kwargs)

    monkeypatch.setattr(numeric, "find_roots", spy)
    _lift, sos = certify_strict_squarefree(f, g)
    assert tried == [106]
    assert ((sos.square_sum() - g) % f).is_zero


@pytest.mark.parametrize("case", [case for case in SCALED_G if case.endswith("1e-300")])
def test_certify_strict_bisects_the_digits(case, monkeypatch):
    # a rung tests Q* - rho*I, then the lowest decade its smallest pivot
    # allows, then bisects up to the cap: at most 2 + ceil(log2(cap)) tests,
    # where a scan from 1 digit up would make about 300
    f, g = SCALED_G[case]
    shifts, rounded = [], []
    smallest_pivot, round_to_digits = numeric.smallest_pivot, exactify.round_to_digits

    def pivot_spy(rows, shift, prec):
        shifts.append(shift)
        return smallest_pivot(rows, shift, prec)

    def round_spy(value, digits):
        rounded.append(digits)
        return round_to_digits(value, digits)

    monkeypatch.setattr(numeric, "smallest_pivot", pivot_spy)
    monkeypatch.setattr(exactify, "round_to_digits", round_spy)
    certify_strict_squarefree(f, g)
    cap = exactify.DIGITS_CAP + 300
    assert len(shifts) <= 2 + math.ceil(math.log2(cap))
    assert shifts[0] == min(shifts)  # the shift of rho comes first
    assert 300 < rounded[0] < cap  # the margin, not the cap, picked the digits


def test_certify_strict_eigensolver_failure_exhausts_precision(monkeypatch):
    # the margin kernel's Cholesky never succeeds: the first test, of
    # Q* - rho*I, fails and ends the rung with no margin
    tried = []

    def not_definite(_rows, _shift, prec):
        tried.append(prec)

    monkeypatch.setattr(numeric, "smallest_pivot", not_definite)
    with pytest.raises(PrecisionExhausted) as info:
        certify_strict_squarefree(F_CUBE, X)
    assert tried == [106, 212, 424, 848]  # each failure retries at double precision
    assert [bits for bits, _reason in info.value.attempts] == tried
    for _bits, reason in info.value.attempts:  # each rung states its own residual
        assert re.fullmatch(r"no rounding margin \(Q\* - rho\*I has no Cholesky factor; "
                            r"rho=\d\S*\)", reason)
    assert info.value.precision_bits == 848
    assert "up to 848 bits" in str(info.value)


def test_certify_strict_root_finder_failure_exhausts_precision(monkeypatch):
    tried = []

    def no_convergence(*_args, **kwargs):
        tried.append((mp.prec, kwargs["extraprec"]))
        raise mp.NoConvergence("Didn't converge in maxsteps=500 steps.")

    monkeypatch.setattr(numeric, "_newton", lambda *_args: None)  # every root stalls
    monkeypatch.setattr(numeric.mp, "polyroots", no_convergence)
    with pytest.raises(PrecisionExhausted) as info:
        certify_strict_squarefree(F_CUBE, X)
    assert tried == [(106, 106), (212, 212), (424, 424), (848, 848)]
    assert not any("rho=" in reason for _bits, reason in info.value.attempts)  # no Gram
    assert info.value.precision_bits == 848


# x^2 + 1e-40: at 106 bits the pair +-1e-20 i reads as real (the roots fail);
# at 212 bits the pair weight of g = x, 2e-20, is far above its error bound,
# so it is called and the run certifies
TINY_PAIR = X**2 + Poly.constant(F(1, 10**40))


def _untrusted_values(monkeypatch):
    # an infinite error bound below 424 bits: no value is called there, so
    # TINY_PAIR's Gram fails at 212 bits and certifies at 424
    bound = numeric._value_error
    monkeypatch.setattr(numeric, "_value_error",
                        lambda *args: mp.inf if mp.prec < 424 else bound(*args))


def _spy_numeric_stages(monkeypatch):
    calls = []
    find_roots, build_gram = numeric.find_roots, numeric.build_interior_gram

    def roots_spy(f, bits, **kwargs):
        calls.append(("roots", bits))
        return find_roots(f, bits, **kwargs)

    def gram_spy(f, g, roots):
        calls.append(("gram", roots.precision_bits))
        return build_gram(f, g, roots)

    monkeypatch.setattr(numeric, "find_roots", roots_spy)
    monkeypatch.setattr(numeric, "build_interior_gram", gram_spy)
    return calls


def test_certify_strict_tries_each_precision_once(monkeypatch):
    calls = _spy_numeric_stages(monkeypatch)
    cert = certify_nonnegative(TINY_PAIR, X)
    assert calls == [("roots", 106), ("roots", 212), ("gram", 212)]
    digest = hashlib.sha256(serialize(cert).encode()).hexdigest()
    assert digest == "10f474c9ef2cd775a8e0f8a59b5725f88029bd8890bb7f6eb03d44fbabc5ef5b"


def test_certify_strict_counts_real_roots_once_for_every_attempt(monkeypatch):
    # the Sturm count of the Tarski decision is passed to each attempt, so
    # find_roots never computes its own
    monkeypatch.setattr(numeric, "sturm_real_root_count", None)
    _untrusted_values(monkeypatch)
    counts, found = [], []
    find_roots = numeric.find_roots

    def spy(f, bits, **kwargs):
        counts.append(kwargs)
        found.append(find_roots(f, bits, **kwargs))
        return found[-1]

    monkeypatch.setattr(numeric, "find_roots", spy)
    certify_strict_squarefree(TINY_PAIR, X)
    # the roots fail at 106 bits, so 212 has no previous roots; 424 has 212's
    assert counts == [{"real": 0, "previous": None}, {"real": 0, "previous": None},
                      {"real": 0, "previous": found[0]}]
    assert found[0].precision_bits == 212


@pytest.mark.parametrize(
    "ladder, calls_made, reason",
    [
        ((106,), [("roots", 106)], "Sturm counts 0"),  # no Gram: the roots failed
        ((106, 212), [("roots", 106), ("roots", 212), ("gram", 212)], "degenerate pair weight"),
    ],
    ids=["roots-fail", "gram-fails"],
)
def test_certify_strict_max_retries_bounds_every_doubling(
    ladder, calls_made, reason, monkeypatch
):
    # the number of doublings is the length of PRECISION_LADDER: a shorter
    # ladder stops after its last rung and reports that rung's failure
    monkeypatch.setattr(exactify, "PRECISION_LADDER", ladder)
    _untrusted_values(monkeypatch)
    calls = _spy_numeric_stages(monkeypatch)
    with pytest.raises(PrecisionExhausted) as info:
        certify_strict_squarefree(TINY_PAIR, X)
    bits = ladder[-1]
    assert calls == calls_made
    assert [b for b, _reason in info.value.attempts] == list(ladder)
    assert info.value.precision_bits == bits
    assert not any("rho=" in reason for _bits, reason in info.value.attempts)  # no margin
    assert f"up to {bits} bits" in str(info.value)
    assert reason in info.value.attempts[-1][1]  # the reason of the last attempt


def test_certify_strict_exhaustion_names_every_rung(monkeypatch):
    # TINY_PAIR fails in the roots at 106 bits and, its values untrusted, in
    # the Gram at 212; the numeric stage is forced to fail at 424 and 848,
    # where it would certify
    _untrusted_values(monkeypatch)
    calls = _spy_numeric_stages(monkeypatch)
    roots_spy = numeric.find_roots

    def fail_from_424(f, bits, **kwargs):
        roots = roots_spy(f, bits, **kwargs)
        if bits >= 424:
            raise IllConditioned(f"forced failure at {bits} bits")
        return roots

    monkeypatch.setattr(numeric, "find_roots", fail_from_424)
    with pytest.raises(PrecisionExhausted) as info:
        certify_strict_squarefree(TINY_PAIR, X)
    assert calls == [("roots", 106), ("roots", 212), ("gram", 212),
                     ("roots", 424), ("roots", 848)]
    attempts = info.value.attempts
    assert [bits for bits, _reason in attempts] == [106, 212, 424, 848]
    assert "Sturm counts 0" in attempts[0][1]  # no Gram: the roots failed
    assert "degenerate pair weight" in attempts[1][1]
    assert [reason for _bits, reason in attempts[2:]] == [
        "forced failure at 424 bits", "forced failure at 848 bits"]
    assert info.value.precision_bits == 848
    assert "rho=" not in str(info.value)  # no rung reached a margin
    message = str(info.value)
    assert "up to 848 bits" in message
    for bits, reason in attempts:
        assert f"{bits} bits: {reason}" in message


def _spy_refinement_starts(monkeypatch):
    starts = []
    refine = numeric._refined_roots

    def spy(cs, seeds, seed_bits):
        starts.append((mp.prec, list(seeds), seed_bits))
        return refine(cs, seeds, seed_bits)

    monkeypatch.setattr(numeric, "_refined_roots", spy)
    return starts


def test_certify_strict_seeds_each_rung_from_the_last_roots(monkeypatch):
    # x^4 + x + 10^50 with g = x - 1 has no rounding margin at
    # 106 and 212 bits and certifies at 424
    f, g = X**4 + X + Poly.constant(10**50), X - Poly.one()
    calls = _spy_numeric_stages(monkeypatch)
    found = []
    roots_spy = numeric.find_roots

    def keep(f, bits, **kwargs):
        found.append(roots_spy(f, bits, **kwargs))
        return found[-1]

    monkeypatch.setattr(numeric, "find_roots", keep)
    starts = _spy_refinement_starts(monkeypatch)
    certify_strict_squarefree(f, g)
    assert calls == [("roots", 106), ("gram", 106), ("roots", 212), ("gram", 212),
                     ("roots", 424), ("gram", 424)]
    assert [bits for bits, _seeds, _seed_bits in starts] == [106, 212, 424]
    assert starts[0][2] == numeric._FLOAT_SEED_BITS  # float seeds
    # each refinement starts from the last rung's roots: the real roots and
    # one representative per conjugate pair
    for prev, (_bits, seeds, seed_bits) in zip(found, starts[1:]):
        assert (seeds, seed_bits) == ([*prev.real_roots, *prev.complex_pairs], prev.precision_bits)


def test_certify_strict_rung_after_failed_roots_starts_from_float_seeds(monkeypatch):
    # TINY_PAIR's roots fail at 106 bits, its untrusted values fail the Gram
    # at 212, and at 424 its roots are made to fail after they were refined:
    # neither 106 nor 424 leaves seeds for the next rung
    _untrusted_values(monkeypatch)
    find_roots = numeric.find_roots

    def fail_at_424(f, bits, **kwargs):
        roots = find_roots(f, bits, **kwargs)
        if bits == 424:
            raise IllConditioned("forced failure at 424 bits")
        return roots

    monkeypatch.setattr(numeric, "find_roots", fail_at_424)
    starts = _spy_refinement_starts(monkeypatch)
    certify_strict_squarefree(TINY_PAIR, X)
    assert [bits for bits, _seeds, _seed_bits in starts] == [106, 212, 424, 848]
    from_floats = [seed_bits == numeric._FLOAT_SEED_BITS for _bits, _seeds, seed_bits in starts]
    assert from_floats == [True, True, False, True]


def test_certify_strict_untrusted_value_retries(monkeypatch):
    # the value is called at 106 bits by its error bound; with the bound
    # infinite below 424 bits it is called only at 424, and every rung up to
    # it is tried
    calls = _spy_numeric_stages(monkeypatch)
    certify_strict_squarefree(NEAR_F, NEAR_G)
    assert calls == [("roots", 106), ("gram", 106)]
    calls.clear()
    _untrusted_values(monkeypatch)
    certify_strict_squarefree(NEAR_F, NEAR_G)
    assert [bits for stage, bits in calls if stage == "roots"] == [106, 212, 424]
