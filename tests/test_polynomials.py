import random
from fractions import Fraction

import pytest

from edgesector.polynomials import (
    PoleAtOriginError,
    Poly,
    PowerSeries,
    RatFunc,
    first_difference,
    ratfunc_reduce,
    rescale,
    scalar_from_str,
    scalar_str,
    series_of,
)


def test_zero_poly_degree_sentinel():
    assert Poly.zero().degree() is None
    assert Poly((0, 0, 0)).degree() is None
    assert Poly((5,)).degree() == 0


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((Fraction(4, 2),)).coeffs == (2,)  # canonicalized to int


@pytest.mark.parametrize(
    "text", ["0", "-12", "+3", " 7 ", "1_000", "3/6", "-4/2", "1.5", "2e3", "-0"]
)
def test_scalar_from_str_reads_what_fraction_reads(text):
    value = scalar_from_str(text)
    assert value == Fraction(text)
    # whole values come back as ints, as Poly keeps them
    assert type(value) is (int if Fraction(text).denominator == 1 else Fraction)


@pytest.mark.parametrize("text", ["", "x", "1/0x", "1//2", "_1"])
def test_scalar_from_str_rejects_what_fraction_rejects(text):
    with pytest.raises(ValueError):
        Fraction(text)
    with pytest.raises(ValueError):
        scalar_from_str(text)


def test_scalar_strings_round_trip():
    for x in (0, -5, 12345678901234567890, Fraction(-7, 3), Fraction(1, 10**20)):
        assert scalar_from_str(scalar_str(x)) == x


def test_arithmetic_basics():
    p = Poly((1, 1))
    assert p * p == Poly((1, 2, 1))
    assert p + Poly((-1, -1)) == Poly.zero()
    assert (p**3)(2) == 27


def test_divmod_exact_and_gcd():
    a = Poly((-1, 0, 1))  # (x-1)(x+1)
    b = Poly((-1, 1))
    q, r = a.divmod(b)
    assert r.is_zero() and q == Poly((1, 1))
    g = (a * Poly((3, 3))).gcd(b * Poly((7,)))
    assert g == Poly((-1, 1))


def test_root_order():
    p = Poly((1, -1)) ** 2 * Poly((1, 1))  # (1-w)^2 (1+w)
    assert p.root_order(1) == 2
    assert p.root_order(-1) == 1
    assert Poly.one().root_order(5) == 0
    with pytest.raises(ValueError):
        Poly.zero().root_order(0)


def test_root_order_on_dyadic_line_factor():
    # det(I - (w/2) L(K3)) = (1 - w)(1 + w/2)^2 has no root at -1
    p = Poly((1, -1)) * Poly((1, Fraction(1, 2))) ** 2
    assert p.root_order(-1) == 0
    assert p.root_order(1) == 1
    assert p.root_order(-2) == 2


def test_reversal():
    p = Poly((2, 0, 0, 1))  # x^3 + 2 monic-ish
    assert p.reversal() == Poly((1, 0, 0, 2))
    assert p.reversal(at_degree=5) == Poly((0, 0, 1, 0, 0, 2))


def test_shift_times_x_power_and_resolvent():
    p = Poly((3, -2, 0, 1))  # x^3 - 2x + 3
    assert p.shift(2) == Poly((7, 10, 6, 1))  # p(x + 2)
    assert p.shift(2).shift(-2) == p
    rng = random.Random(12)
    for a in (2, -3, Fraction(1, 2)):
        for _ in range(10):
            q = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 12))])
            expect = Poly.zero()  # sum of c_k (x + a)^k
            for k, c in enumerate(q.coeffs):
                expect = expect + Poly((a, 1)) ** k * c
            assert q.shift(a) == expect
    assert p.times_x_power(2) == Poly((0, 0, 3, -2, 0, 1))
    assert p.times_x_power(2).times_x_power(-2) == p
    with pytest.raises(ArithmeticError):
        p.times_x_power(-1)
    # X = diag(0, 1, 0): charpoly x^3 - x^2, det(I - s w X) = 1 - s w
    assert Poly((0, 0, -1, 1)).resolvent(3) == Poly((1, -1))
    assert Poly((0, 0, -1, 1)).resolvent(3, Fraction(1, 2)) == Poly((1, Fraction(-1, 2)))


def test_interpolation_matches_poly():
    rng = random.Random(1)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
        p = Poly(coeffs)
        pts = [(x, p(x)) for x in range(6)]
        assert Poly.interpolate(pts) == p


def test_ratfunc_reduce_constant():
    f = ratfunc_reduce(Poly((1, -1)), Poly((1, -1)))
    assert f.num == Poly.one() and f.den == Poly.one()
    assert f.is_polynomial()


def test_ratfunc_monic_denominator_and_coprime():
    f = ratfunc_reduce(Poly((2, 2)), Poly((4, 0, 4)))
    assert f.den.leading() == 1
    assert f.num.gcd(f.den).degree() == 0


def test_series_of_geometric():
    f = ratfunc_reduce(Poly.one(), Poly((1, 0, Fraction(-1, 4))))
    s = series_of(f, 4)
    assert s == PowerSeries(4, [1, 0, Fraction(1, 4), 0, Fraction(1, 16)])


def test_series_of_pole_raises():
    with pytest.raises(PoleAtOriginError):
        series_of(RatFunc.reduce(Poly.one(), Poly((0, 1))), 4)


def test_series_log_mercator():
    s = series_of(ratfunc_reduce(Poly((1, 1)), Poly.one()), 5)
    expect = PowerSeries(
        5,
        [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)],
    )
    assert s.log() == expect


def test_series_log_order_zero():
    assert PowerSeries(0, [1]).log() == PowerSeries(0, [0])


def test_series_rejects_negative_order():
    with pytest.raises(ValueError, match="order"):
        PowerSeries(-1, [])
    with pytest.raises(ValueError, match="order"):
        series_of(ratfunc_reduce(Poly((1, 1)), Poly.one()), -1)


def test_series_inverse_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        coeffs = [1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        s = PowerSeries(6, coeffs)
        assert s * s.inverse() == PowerSeries(6, [1])


def test_series_inverse_keeps_integer_series_integer(monkeypatch):
    # the coefficients are computed as ints, not canonicalized from Fractions
    raw = []
    init = PowerSeries.__init__

    def spy(self, order, coeffs):
        coeffs = list(coeffs)
        raw.extend(type(c) for c in coeffs)
        init(self, order, coeffs)

    monkeypatch.setattr(PowerSeries, "__init__", spy)
    rng = random.Random(3)
    for a0 in (1, -1) * 5:
        coeffs = [a0] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        s = PowerSeries(12, coeffs)
        raw.clear()
        inv = s.inverse()
        assert set(raw) == {int}, coeffs
        assert all(type(c) is int for c in inv.coeffs), coeffs
        assert s * inv == PowerSeries(12, [1])
    # any other constant term still inverts over the rationals
    assert PowerSeries(2, [2, 1]).inverse() == PowerSeries(
        2, [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    )


def test_rescale_roundtrip():
    rng = random.Random(4)
    for s in (2, -3, Fraction(1, 2), Fraction(-2, 5)):
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)]
            p, series = Poly(coeffs), PowerSeries(7, coeffs)
            assert rescale(rescale(p, s), 1 / Fraction(s)) == p
            assert rescale(rescale(series, s), 1 / Fraction(s)) == series
            assert rescale(p, s) == Poly([c * Fraction(s) ** k for k, c in enumerate(coeffs)])
    assert rescale(Poly((1, 1, 1)), 2) == Poly((1, 2, 4))  # p(2x)
    assert rescale(PowerSeries(3, [1, 1, 1, 1]), 2).coeffs == (1, 2, 4, 8)
    assert rescale(Poly.zero(), 2) == Poly.zero()


def test_square_free_decomposition():
    p = Poly((0, 1)) * Poly((-1, 1)) ** 2 * Poly((2, 1)) ** 3
    parts = p.square_free_decomposition()
    assert parts == [(Poly((0, 1)), 1), (Poly((-1, 1)), 2), (Poly((2, 1)), 3)]
    # reassemble
    rebuilt = Poly.one()
    for f, k in parts:
        rebuilt = rebuilt * f**k
    assert rebuilt == p
    assert Poly((-1, 0, 1)).square_free_decomposition() == [(Poly((-1, 0, 1)), 1)]


def test_square_free_random_reassembly():
    rng = random.Random(3)
    for _ in range(15):
        p = Poly.one()
        for _ in range(rng.randint(1, 3)):
            factor = Poly([rng.randint(-3, 3), rng.randint(1, 3)])
            p = p * factor ** rng.randint(1, 3)
        parts = p.square_free_decomposition()
        rebuilt = Poly.one()
        for f, k in parts:
            rebuilt = rebuilt * f**k
        # equal up to a positive rational constant
        assert rebuilt.primitive_int() == p.primitive_int()


def test_coeff_strings_roundtrip():
    p = Poly((1, Fraction(-3, 8), 0, 7))
    assert Poly.from_coeff_strings(p.coeff_strings()) == p
    assert p.coeff_strings() == ["1", "-3/8", "0", "7"]


def test_first_difference():
    assert first_difference(Poly((1, 2, 3)), Poly((1, 2, 4))) == 2
    assert first_difference(Poly((1, 2)), Poly((1, 2))) is None
    assert first_difference(Poly((1, 2)), Poly((1, 2, 5))) == 2
    a = PowerSeries(4, [1, 2, 3, 4, 5])
    b = PowerSeries(4, [1, 2, 3, 9, 5])
    assert first_difference(a, b) == 3
    assert first_difference(a, a) is None
