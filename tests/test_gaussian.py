import random
import signal

import pytest

from unitindex.arith import is_prime, primes_in_range, sqrt_mod
from unitindex.errors import NonRealSymbolProduct, NotCoprime, NotSplit, PreconditionViolated
from unitindex.gaussian import (
    GaussInt,
    QuarticValue,
    _sqrt_minus_one,
    embedding_of_i,
    quad_symbol,
    quartic_symbol,
    split_primary,
)


def test_gaussint_arithmetic():
    a = GaussInt(2, 3)
    b = GaussInt(1, -1)
    assert a * b == GaussInt(5, 1)
    assert a.conjugate() == GaussInt(2, -3)
    assert a.norm() == 13
    assert (a * a.conjugate()).re == 13


def test_quartic_value_group():
    i = QuarticValue(1)
    assert (i * i).k == 2
    assert (i * i * i * i).k == 0
    assert QuarticValue(2).sign() == -1
    assert QuarticValue(0).sign() == 1
    with pytest.raises(NonRealSymbolProduct):
        QuarticValue(3).sign()


def test_split_primary_known():
    assert split_primary(2) == GaussInt(1, 1)
    assert split_primary(5) == GaussInt(-1, 2)
    assert split_primary(13) == GaussInt(3, 2)
    assert split_primary(17) == GaussInt(1, 4)
    assert split_primary(37) == GaussInt(-1, 6)
    assert split_primary(53) == GaussInt(7, 2)


def test_split_primary_properties():
    for p in primes_in_range(5, 3000):
        if p % 4 != 1:
            continue
        pi = split_primary(p)
        assert pi.norm() == p
        assert pi.re % 2 == 1
        assert pi.im % 2 == 0
        assert (pi.re + pi.im) % 4 == 1
        assert pi.im > 0


def _split_primary_from_sqrt(p, conjugate):
    """Cornacchia from sqrt_mod's root of -1, then the primary one of the
    four associates, conjugated to the labeling ``conjugate`` asks for."""
    a, b = p, sqrt_mod(p - 1, p)
    while b * b > p:
        a, b = b, a % b
    x, y = b, a % b
    for re, im in ((x, y), (-y, x), (-x, -y), (y, -x)):
        if re % 2 == 1 and im % 2 == 0 and (re + im) % 4 == 1:
            pi = GaussInt(re, im)
    return pi.conjugate() if (pi.im < 0) != conjugate else pi


def test_split_primary_matches_sqrt_mod_reference():
    for p in primes_in_range(5, 2 * 10**5):
        if p % 4 == 1:
            pi = split_primary(p)
            assert pi == _split_primary_from_sqrt(p, False), p
            assert pi.conjugate() == _split_primary_from_sqrt(p, True), p


def test_split_primary_flip_labeling():
    # the other labeling of the primary primes is GaussInt.conjugate()
    for p in (5, 13, 17, 37, 53):
        pi = split_primary(p)
        bar = pi.conjugate()
        assert bar == _split_primary_from_sqrt(p, True)
        assert bar.im < 0
        assert (bar.re + bar.im) % 4 == 1
        assert (pi * bar) == GaussInt(p, 0)
    assert split_primary(2).conjugate() == GaussInt(1, -1)


def test_split_primary_congruent_one_mod_two_plus_two_i():
    # primary iff pi = 1 mod (1+i)^3; test divisibility of pi - 1 by -2+2i.
    w = GaussInt(-2, 2)
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        pi = split_primary(p)
        z = GaussInt(pi.re - 1, pi.im) * w.conjugate()
        assert z.re % w.norm() == 0 and z.im % w.norm() == 0


def test_split_primary_rejects():
    with pytest.raises(NotSplit):
        split_primary(7)
    with pytest.raises(PreconditionViolated):
        split_primary(15)


def test_split_primary_kernel_ends_on_composites():
    # the square-root search trusts its caller to have proven p; a composite
    # must raise or return a root of -1, never loop (each call runs under a
    # 2 s alarm)
    def hung(signum, frame):
        raise TimeoutError("_sqrt_minus_one did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for n in range(9, 2 * 10**4, 4):
            if is_prime(n):
                continue
            signal.alarm(2)
            try:
                r = _sqrt_minus_one(n)
            except PreconditionViolated as exc:
                assert str(exc) == f"{n} is not prime"
            else:
                assert r * r % n == n - 1
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    for n in (9, 21, 25, 45, 561, 4033, 8321):
        with pytest.raises(PreconditionViolated, match="is not prime"):
            _sqrt_minus_one(n)


def test_embedding_of_i():
    pi = split_primary(13)
    s = embedding_of_i(pi)
    assert s * s % 13 == 12
    assert s == 5


def test_quartic_symbol_known():
    # (2 / 3+2i)_4 = i^3: 2^3 = 8 = -5 = -s (mod 13) with s = 5.
    assert quartic_symbol(2, GaussInt(3, 2)).k == 3
    # Euler: (alpha/pi)_4 = 1 iff alpha is a fourth power mod pi.
    pi = split_primary(13)
    assert quartic_symbol(3, pi).k == 0  # 3 = 6^4 mod 13


def test_quartic_symbol_real_iff_quad_residue():
    rng = random.Random(17)
    prms = [p for p in primes_in_range(5, 2000) if p % 4 == 1]
    for _ in range(300):
        p = rng.choice(prms)
        pi = split_primary(p)
        a = GaussInt(rng.randrange(-30, 30), rng.randrange(-30, 30))
        try:
            q4 = quartic_symbol(a, pi)
        except NotCoprime:
            continue
        assert q4.is_real == (quad_symbol(a, pi) == 1)


def test_quartic_symbol_multiplicative():
    rng = random.Random(23)
    prms = [p for p in primes_in_range(5, 1000) if p % 4 == 1]
    for _ in range(300):
        p = rng.choice(prms)
        pi = split_primary(p)
        a = GaussInt(rng.randrange(-20, 20), rng.randrange(-20, 20))
        b = GaussInt(rng.randrange(-20, 20), rng.randrange(-20, 20))
        try:
            lhs = quartic_symbol(a * b, pi)
            rhs = quartic_symbol(a, pi) * quartic_symbol(b, pi)
        except NotCoprime:
            continue
        assert lhs == rhs


def test_quad_is_square_of_quartic():
    rng = random.Random(29)
    prms = [p for p in primes_in_range(5, 1000) if p % 4 == 1]
    for _ in range(200):
        p = rng.choice(prms)
        pi = split_primary(p)
        a = GaussInt(rng.randrange(-20, 20), rng.randrange(-20, 20))
        try:
            q4 = quartic_symbol(a, pi)
        except NotCoprime:
            continue
        assert quad_symbol(a, pi) == (q4 * q4).sign()


def test_symbol_rejects_noncoprime():
    pi = split_primary(13)
    with pytest.raises(NotCoprime):
        quartic_symbol(13, pi)
    with pytest.raises(NotCoprime):
        quad_symbol(GaussInt(3, 2), pi)


def test_quartic_reciprocity_spot():
    # (pi/rho)_4 = (rho/pi)_4 * (-1)^((p-1)/4 * (q-1)/4) for primary pi, rho.
    pi = split_primary(5)
    rho = split_primary(13)
    lhs = quartic_symbol(pi, rho)
    rhs = quartic_symbol(rho, pi)
    flip = ((5 - 1) // 4) * ((13 - 1) // 4) % 2
    assert lhs.k == (rhs.k + 2 * flip) % 4
