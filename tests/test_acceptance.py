"""Acceptance suite: golden-value reproductions and randomized properties.

Each test prints one PASS line when its criterion holds (run with -s to see
them); tolerances are exact rational equality unless stated otherwise.
"""

import random
import time
from fractions import Fraction as F

import pytest
from mpmath import mp

from rootsos import numeric
from rootsos.certificate import deserialize, verify
from rootsos.exactify import (
    GramLift,
    SOSDecomposition,
    check_positive_definite,
    gram_of_poly,
    gram_poly,
    gram_to_sos,
    project,
    round_to_digits,
)
from rootsos.factorq import factor_over_Q
from rootsos.lifting import (
    HypothesisViolated,
    NotNonnegative,
    certify_nonnegative,
    crt_combine_sos,
    hensel_lift_sos,
    newton_sqrt_iterates,
)
from rootsos.cli import main
from rootsos.numeric import find_roots
from rootsos.ratpoly import Poly, extended_gcd, gcd, is_squarefree, norm2_squared
from support import (
    random_irreducible,
    random_nonzero_poly,
    random_squarefree_poly,
    random_strictly_positive_poly,
)

X = Poly.x()
F_CUBE = X**3 - Poly.constant(2)


def test_criterion_1_projection_and_ldl_reproduce_toy_example():
    qbar = (
        (F(6, 10), F(1, 10), F(-2, 10)),
        (F(1, 10), F(4, 10), F(-1, 10)),
        (F(-2, 10), F(-1, 10), F(4, 10)),
    )
    q_poly = Poly([F(3, 10), F(-2, 5)])
    started = time.perf_counter()
    projected = project(qbar, X - q_poly * F_CUBE)
    lift = GramLift(projected, q_poly, F_CUBE, X)
    sos = gram_to_sos(lift)
    elapsed = time.perf_counter() - started

    assert projected == (
        (F(3, 5), F(1, 10), F(-1, 5)),
        (F(1, 10), F(2, 5), F(-3, 20)),
        (F(-1, 5), F(-3, 20), F(2, 5)),
    )
    assert sos.weights == (F(3, 5), F(23, 60), F(137, 460))
    assert sos.polys == (
        Poly([1, F(1, 6), F(-1, 3)]),
        Poly([0, 1, F(-7, 23)]),
        Poly([0, 0, 1]),
    )
    assert elapsed < 0.010
    print(f"\nACCEPTANCE 1 (toy projection + LDL, exact): PASS ({elapsed * 1000:.2f} ms)")


def test_criterion_2_one_digit_rounding_example():
    with mp.workprec(106):
        qstar = tuple(
            tuple(mp.mpf(v) for v in row)
            for row in (
                ("0.6322063", "-0.0167531", "-0.2295612"),
                ("-0.0167531", "0.4591225", "-0.1580516"),
                ("-0.2295612", "-0.1580516", "0.5167531"),
            )
        )
        qstar_poly = (mp.mpf("0.3161031"), mp.mpf("-0.5167531"))
    started = time.perf_counter()
    qbar = round_to_digits(qstar, 1)
    q_poly = round_to_digits(qstar_poly, 1)
    projected = project(qbar, X - q_poly * F_CUBE)
    report = check_positive_definite(projected)
    elapsed = time.perf_counter() - started

    assert q_poly == Poly([F(3, 10), F(-1, 2)])
    assert projected == (
        (F(3, 5), F(0), F(-7, 30)),
        (F(0), F(7, 15), F(-3, 20)),
        (F(-7, 30), F(-3, 20), F(1, 2)),
    )
    assert report is not None  # exact positive-definiteness
    assert elapsed < 0.010
    print(f"ACCEPTANCE 2 (one-digit rounding + projection, exact): PASS ({elapsed * 1000:.2f} ms)")


def test_criterion_3_hensel_lift_reproduction():
    sos = SOSDecomposition(
        (F(3, 5), F(23, 60), F(137, 460)),
        (Poly([1, F(1, 6), F(-1, 3)]), Poly([0, 1, F(-7, 23)]), Poly([0, 0, 1])),
        F_CUBE,
    )
    started = time.perf_counter()
    lifted = hensel_lift_sos(sos, 2, X)
    elapsed = time.perf_counter() - started

    assert lifted.polys[0] == sos.polys[0] and lifted.polys[1] == sos.polys[1]
    assert lifted.polys[2] == Poly(
        [0, F(-69, 137), F(229, 137), 0, F(69, 274), F(-46, 137)]
    )
    acc = Poly.zero()
    for w, h in zip(lifted.weights, lifted.polys):
        acc = acc + h * h * w
    q, rem = divmod(acc - X, F_CUBE**2)
    assert rem.is_zero  # sum w_i h_i^2 - x exactly divisible by (x^3-2)^2
    assert elapsed < 0.010
    print(f"ACCEPTANCE 3 (Hensel lift of the last square, exact): PASS ({elapsed * 1000:.2f} ms)")


def test_criterion_4_end_to_end_nonsquarefree(tmp_path, capsys):
    f = X * F_CUBE**2
    g = X**3
    started = time.perf_counter()
    cert = certify_nonnegative(f, g)
    elapsed = time.perf_counter() - started

    assert verify(cert)
    assert all(h.degree < 7 for h in cert.polys)
    assert elapsed < 1.0
    out = tmp_path / "cert.json"
    code = main(["certify", "--f", "x*(x^3-2)^2", "--g", "x^3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert verify(deserialize(out.read_text()))
    print(f"ACCEPTANCE 4 (end-to-end on x(x^3-2)^2, x^3): PASS ({elapsed * 1000:.1f} ms)")


def test_criterion_5_counterexample_rejection(capsys):
    with pytest.raises(HypothesisViolated):
        certify_nonnegative(X**2, X)
    code = main(["certify", "--f", "x^2", "--g", "x"])
    capsys.readouterr()
    assert code == 2
    print("ACCEPTANCE 5 (f=x^2, g=x rejected, exit 2): PASS")


def _random_symmetric(rng, n, bound=100):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = F(rng.randint(-bound, bound), rng.randint(1, 10))
    return tuple(tuple(r) for r in rows)


def _suite_a_projection(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        q = _random_symmetric(rng, n)
        p = random_nonzero_poly(rng, 2 * n - 2, 100)
        proj = project(q, p)
        assert gram_poly(proj) == p  # exact membership
        assert project(proj, p) == proj  # idempotence


def _suite_b_norm_bound(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        p = random_nonzero_poly(rng, 2 * n - 2, 100)
        q = gram_of_poly(p, n)
        frob2 = sum(q[i][j] ** 2 for i in range(n) for j in range(n))
        assert frob2 <= norm2_squared(p)


def _suite_c_ldl(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        q = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            q[i][i] += F(rng.randint(1, 3))
        q = tuple(tuple(row) for row in q)
        ldl = check_positive_definite(q)
        assert ldl is not None
        weights, squares = ldl
        recon = [
            [
                sum(w * h.coefficient(i) * h.coefficient(j) for w, h in zip(weights, squares))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert tuple(tuple(r) for r in recon) == q


def _suite_d_factorization(rng):
    for _ in range(200):
        f = Poly.constant(F(rng.randint(1, 9), rng.randint(1, 5)))
        while True:
            nxt = f * random_irreducible(rng) ** rng.randint(1, 3)
            if nxt.degree > 10:
                break
            f = nxt
            if f.degree >= 7 or rng.random() < 0.3:
                break
        if f.degree < 1:
            f = f * random_irreducible(rng)
        fact = factor_over_Q(f)
        assert fact.reconstruct() == f


def _suite_e_hensel_steps(rng):
    done = 0
    while done < 200:
        p = random_irreducible(rng)
        h0 = random_nonzero_poly(rng, int(p.degree) - 1, 50) % p
        if h0.is_zero or gcd(h0, p).degree != 0:
            continue
        noise = random_nonzero_poly(rng, 3, 50)
        gbar = h0 * h0 + noise * p  # any lift target with gbar = h0^2 mod p
        e = rng.randint(2, 4)
        iterates = newton_sqrt_iterates(gbar, h0, p, e)
        for k, h in enumerate(iterates):
            assert ((h * h - gbar) % p ** (2**k)).is_zero
        done += 1


def _suite_f_crt(rng):
    done = 0
    while done < 200:
        p1 = random_irreducible(rng)
        p2 = random_irreducible(rng)
        if gcd(p1, p2).degree != 0:
            continue
        parts = []
        g_parts = []
        for p in (p1, p2):
            ws = tuple(F(rng.randint(1, 9)) for _ in range(rng.randint(1, 2)))
            hs = tuple(
                random_nonzero_poly(rng, int(p.degree) - 1, 50) % p for _ in ws
            )
            sos = SOSDecomposition(ws, hs, p)
            parts.append(sos)
            acc = Poly.zero()
            for w, h in zip(ws, hs):
                acc = acc + h * h * w
            g_parts.append(acc % p)
        total = p1 * p2
        _, s1, _ = extended_gcd(total // p1, p1)
        _, s2, _ = extended_gcd(total // p2, p2)
        g = (s1 * (total // p1) * g_parts[0] + s2 * (total // p2) * g_parts[1]) % total
        combined = crt_combine_sos(parts)
        acc = Poly.zero()
        for w, h in zip(combined.weights, combined.polys):
            acc = acc + h * h * w
        assert ((acc - g) % p1).is_zero and ((acc - g) % p2).is_zero
        done += 1


def _emit_instance(rng):
    """Random certifiable (f, g): g everywhere positive, f possibly with
    multiplicities or a shared square factor."""
    style = rng.random()
    if style < 0.6:
        f = random_squarefree_poly(rng, rng.randint(1, 6), 100)
        g = random_strictly_positive_poly(rng, 2, 9)
        return f, g
    if style < 0.8:
        # repeated factor, gcd(f, g) = 1: exercises the Hensel path
        u = random_irreducible(rng)
        v = random_irreducible(rng)
        if gcd(u, v).degree != 0:
            return None
        f = u**2 * v
        g = random_strictly_positive_poly(rng, 1, 6)
        return f, g
    # shared square factor: d = v^2 ends up in gcd(f, g)
    u = random_irreducible(rng)
    v = random_irreducible(rng)
    if gcd(u, v).degree != 0:
        return None
    s = random_nonzero_poly(rng, 1, 6)
    g = v * v * (s * s + Poly.one())
    f = u * v * v
    if gcd(u, g).degree != 0:
        return None
    return f, g


def _suite_g_certificates(rng):
    done = 0
    while done < 200:
        instance = _emit_instance(rng)
        if instance is None:
            continue
        f, g = instance
        if f.degree < 1 or f.degree > 10:
            continue
        cert = certify_nonnegative(f, g)
        assert verify(cert)
        sf = f if is_squarefree(f) else f // gcd(f, f.derivative())
        for xi in find_roots(sf.monic()).real_roots:
            square_sum = sum(
                (w * h(xi) ** 2 for w, h in zip(cert.weights, cert.polys)),
                xi * 0,
            )
            assert square_sum >= 0
            assert g(xi) >= -1e-9
        done += 1


def test_criterion_6_property_suite():
    started = time.perf_counter()
    rng = random.Random(20250811)
    _suite_a_projection(rng)
    _suite_b_norm_bound(rng)
    _suite_c_ldl(rng)
    _suite_d_factorization(rng)
    _suite_e_hensel_steps(rng)
    _suite_f_crt(rng)
    _suite_g_certificates(rng)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 6 (property suite a-g, 200 instances each, seed fixed): "
        f"PASS ({elapsed:.1f} s)"
    )


def _negative_instance(rng):
    """(f, g) with g interpolated to be negative at a chosen real root of f."""
    grid = [F(n, 2) for n in range(-10, 11)]
    k = rng.randint(2, 4)
    roots = rng.sample(grid, k)
    f = Poly.one()
    for r in roots:
        f = f * (X - Poly.constant(r))
    if rng.random() < 0.4:
        f = f * Poly([rng.randint(1, 9), rng.randint(-3, 3), 1])
        if not is_squarefree(f):
            return None
    values = [F(-rng.randint(1, 5))] + [F(rng.randint(1, 9)) for _ in roots[1:]]
    g = Poly.zero()
    for i, (ri, vi) in enumerate(zip(roots, values)):
        term = Poly.constant(vi)
        for j, rj in enumerate(roots):
            if j != i:
                term = term * (X - Poly.constant(rj)) * (1 / (ri - rj))
        g = g + term
    if g.is_zero or gcd(f, g).degree != 0:
        return None
    assert g(roots[0]) == values[0] < 0
    return f, g


def test_criterion_7_fuzz_soundness(monkeypatch):
    # g < 0 at a rational root, a linear factor of f: the exact sign
    # decision refuses it before any numeric work
    def no_numerics(*_args, **_kwargs):
        raise AssertionError("find_roots called on a refused instance")

    monkeypatch.setattr(numeric, "find_roots", no_numerics)
    rng = random.Random(31415926)
    done = 0
    while done < 100:
        instance = _negative_instance(rng)
        if instance is None:
            continue
        f, g = instance
        with pytest.raises(NotNonnegative):
            certify_nonnegative(f, g)
        done += 1
    print("ACCEPTANCE 7 (100 negative instances never certify): PASS")
