import math
import random

import pytest

from unitindex.arith import factor_squarefree, jacobi, primes_in_range
from unitindex.errors import NotCoprime, PreconditionViolated, UnitIndexError
from unitindex.gaussian import QuarticValue, quartic_symbol, split_primary
from unitindex.symbols import INFINITY, quartic_cross_product, fpr, hilbert


def test_fpr_odd_prime_known():
    # 4th powers mod 13: {1, 3, 9}; squares: {1, 3, 4, 9, 10, 12}
    assert fpr(3, 13) == 1
    assert fpr(9, 13) == 1
    assert fpr(4, 13) == -1
    assert fpr(12, 13) == -1
    # ell = 3 (mod 4): squares are automatically fourth powers
    assert fpr(2, 7) == 1
    assert fpr(4, 7) == 1
    assert fpr(4, 11) == 1


def test_fpr_requires_square():
    with pytest.raises(PreconditionViolated):
        fpr(2, 13)
    with pytest.raises(NotCoprime):
        fpr(26, 13)


def test_fpr_at_two():
    assert fpr(17, 2) == 1
    assert fpr(33, 2) == 1
    assert fpr(9, 2) == -1
    assert fpr(25, 2) == -1
    with pytest.raises(PreconditionViolated):
        fpr(3, 2)
    with pytest.raises(PreconditionViolated):
        fpr(5, 2)


def test_fpr_rejects_infinity():
    with pytest.raises(PreconditionViolated):
        fpr(5, INFINITY)


def test_fpr_composite_is_product():
    # 65 = 5 * 13; pick a that is a square mod both.
    rng = random.Random(31)
    count = 0
    while count < 50:
        a = rng.randrange(2, 10**4)
        if a % 5 == 0 or a % 13 == 0:
            continue
        if jacobi(a, 5) != 1 or jacobi(a, 13) != 1:
            continue
        assert fpr(a, 65) == fpr(a, 5) * fpr(a, 13)
        count += 1


def test_fpr_fourth_power_detection():
    rng = random.Random(37)
    prms = [p for p in primes_in_range(3, 3000)]
    for _ in range(400):
        ell = rng.choice(prms)
        x = rng.randrange(1, ell)
        a = pow(x, 4, ell)
        if a == 0:
            continue
        assert fpr(a, ell) == 1
    # and non-fourth-power squares for ell = 1 (mod 4)
    for ell in (13, 17, 29, 37, 41):
        fourth = {pow(x, 4, ell) for x in range(1, ell)}
        squares = {pow(x, 2, ell) for x in range(1, ell)}
        for a in squares - fourth:
            assert fpr(a, ell) == -1


def _fpr_reference(a, ell):
    """fpr at a prime ell by the Jacobi-then-power rule: the Jacobi symbol
    refuses a non-square, then one power decides the fourth power."""
    if ell == 2:
        if a % 8 != 1:
            raise PreconditionViolated(f"{a} is not 1 (mod 8)")
        return 1 if a % 16 == 1 else -1
    r = a % ell
    if r == 0:
        raise NotCoprime(f"{a} is divisible by {ell}")
    if jacobi(r, ell) != 1:
        raise PreconditionViolated(f"{r} is not a square mod {ell}")
    e = (ell - 1) // math.gcd(ell - 1, 4)
    return 1 if pow(r, e, ell) == 1 else -1


def _outcome(f, a, ell):
    try:
        return f(a, ell)
    except UnitIndexError as exc:
        return type(exc), str(exc)


def test_fpr_matches_jacobi_then_power_reference():
    # every residue a mod every prime ell < 2000, a = 0 included (mod 16 at
    # ell = 2): values, exception classes and messages must all agree
    kinds = set()
    for ell in primes_in_range(2, 2000):
        for a in range(max(ell, 16)):
            got = _outcome(fpr, a, ell)
            assert got == _outcome(_fpr_reference, a, ell), (a, ell)
            kinds.add(got if got in (1, -1) else got[0])
    assert kinds == {1, -1, NotCoprime, PreconditionViolated}


def test_fpr_matches_reference_at_scanned_primes():
    # the scan's arguments: ell = p, a = each factor of a scanned d or d
    moduli = set()
    for d in (65, 1105, 32045, 1185665, 2371330):
        moduli.update(factor_squarefree(d).factors + (d,))
    for p in primes_in_range(5, 10**5):
        if p % 4 == 1:
            for a in moduli:
                assert _outcome(fpr, a, p) == _outcome(_fpr_reference, a, p), (a, p)


def test_hilbert_archimedean():
    assert hilbert(-1, -1, INFINITY) == -1
    assert hilbert(-1, 3, INFINITY) == 1
    assert hilbert(2, 5, INFINITY) == 1


def test_hilbert_known_values():
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(2, 3, 3) == -1
    assert hilbert(3, 3, 3) == -1
    assert hilbert(5, 7, 7) == -1
    assert hilbert(5, 3, 7) == 1
    assert hilbert(2, 7, 2) == 1


def test_hilbert_symmetric_and_multiplicative():
    rng = random.Random(41)
    places = [2, 3, 5, 7, 11, 13, INFINITY]
    for _ in range(500):
        r = rng.choice(places)
        a = rng.choice([-1, 1]) * rng.randrange(1, 200)
        b = rng.choice([-1, 1]) * rng.randrange(1, 200)
        c = rng.choice([-1, 1]) * rng.randrange(1, 200)
        assert hilbert(a, b, r) == hilbert(b, a, r)
        assert hilbert(a * c, b, r) == hilbert(a, b, r) * hilbert(c, b, r)


def test_hilbert_tame_identities():
    # At an odd place, two units always pair trivially; a uniformizer pairs
    # with a unit by the Legendre symbol; (r, r)_r reduces to (-1/r).
    for r in (3, 5, 7, 11, 13):
        for u in range(1, r):
            for v in range(1, r):
                assert hilbert(u, v, r) == 1
            assert hilbert(r, u, r) == jacobi(u, r)
        assert hilbert(r, r, r) == jacobi(-1, r)


def test_hilbert_product_formula_smoke():
    rng = random.Random(43)
    smooth = [2, 3, 5, 7, 11, 13]
    for _ in range(200):
        a = rng.choice([-1, 1])
        b = rng.choice([-1, 1])
        for _ in range(3):
            a *= rng.choice(smooth)
            b *= rng.choice(smooth)
        places = set(smooth) | {INFINITY}
        prod = 1
        for r in places:
            prod *= hilbert(a, b, r)
        assert prod == 1


def test_cross_product_known_values():
    assert quartic_cross_product(5, 13) == 1
    assert quartic_cross_product(10, 17) == 1
    assert quartic_cross_product(5, 17) == -1


def _cross_product_conjugated(a, b):
    # quartic_cross_product(a, b) over the conjugates of the primary primes
    total = QuarticValue(2 * ((1 - b) // 8 % 2) if a % 2 == 0 else 0)
    for n, x in ((a // math.gcd(a, 2), b), (b, a)):
        for q in factor_squarefree(n).factors if n > 1 else ():
            total *= quartic_symbol(x, split_primary(q).conjugate())
    return total.sign()


def test_cross_product_conjugate_agrees():
    assert _cross_product_conjugated(5, 13) == quartic_cross_product(5, 13)
    assert _cross_product_conjugated(10, 17) == quartic_cross_product(10, 17)


def test_cross_product_requires_odd_b():
    with pytest.raises(PreconditionViolated):
        quartic_cross_product(5, 26)


def test_cross_product_even_a_needs_b_1_mod_8():
    with pytest.raises(PreconditionViolated):
        quartic_cross_product(10, 13)
