import random
from fractions import Fraction

import pytest

from edgesector.edge_space import build_hashimoto, edge_space
from edgesector.census import builtin_generate
from edgesector.graphs import corpus
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
from edgesector.shadows import fingerprint
from conftest import poly_power, series_log


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
    assert (p * p * p)(2) == 27


def test_divmod_exact_and_gcd():
    a = Poly((-1, 0, 1))  # (x-1)(x+1)
    b = Poly((-1, 1))
    q, r = a.divmod(b)
    assert r.is_zero() and q == Poly((1, 1))
    g = (a * Poly((3, 3))).gcd(b * Poly((7,)))
    assert g == Poly((-1, 1))


def fraction_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division with every coefficient a Fraction; the oracle for divmod."""
    r = [Fraction(c) for c in a.coeffs]
    d = [Fraction(c) for c in b.coeffs]
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        k = len(r) - len(d)
        f = r[-1] / d[-1]
        q[k] = f
        for i, c in enumerate(d):
            r[k + i] -= f * c
        r.pop()
    return Poly(q), Poly(r)


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Remainder sequence over Fraction, each remainder cut to its primitive
    part; the oracle for the pseudo-remainder gcd."""
    a, b = a.primitive_int(), b.primitive_int()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        a, b = b, fraction_divmod(a, b)[1].primitive_int()
    return a


def fraction_square_free(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm on the Fraction oracles above."""

    def exact(a, b):
        q, r = fraction_divmod(a, b)
        assert r.is_zero()
        return q

    p = p.primitive_int()
    if p.degree() == 0:
        return []
    d = p.derivative()
    g = fraction_gcd(p, d)
    if g.degree() == 0:
        return [(p, 1)]
    w, z = exact(p, g), exact(d, g) - exact(p, g).derivative()
    out = []
    for i in range(1, p.degree() + 2):
        if w.degree() == 0:
            break
        f = fraction_gcd(w, z)
        if f.degree() > 0:
            out.append((f, i))
            w, z = exact(w, f), exact(z, f)
        z = z - w.derivative()
    return out


def test_square_free_split_of_every_corpus_hashimoto_charpoly():
    # the exact factors hashimoto_spectrum hands to the float root finder
    for entry in corpus():
        p = build_hashimoto(edge_space(entry.graph)).charpoly()
        assert p.square_free_decomposition() == fraction_square_free(p), entry.name


def _random_factor(rng, rational=False):
    coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 5)))  # negative and non-unit leads
    if rational:
        coeffs = [Fraction(c, rng.randint(1, 6)) for c in coeffs]
    return Poly(coeffs)


def test_divmod_and_gcd_vs_fraction_oracles():
    rng = random.Random(14)
    for trial in range(120):
        rational = trial % 4 == 0
        common = Poly.one()
        for _ in range(rng.randint(0, 2)):
            common = common * poly_power(_random_factor(rng, rational), rng.randint(1, 2))
        a = common * _random_factor(rng, rational) * _random_factor(rng)
        b = common * _random_factor(rng, rational)
        if trial % 10 == 0:
            b = Poly.zero()
        g = a.gcd(b)
        assert g == fraction_gcd(a, b) == b.gcd(a)
        assert g.is_integer() and g.leading() > 0
        if not b.is_zero():
            assert a.divmod(b) == fraction_divmod(a, b)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert a.exact_div(g) * g == a and b.exact_div(g) * g == b
    assert Poly((1, 0, 1)).divmod(Poly((0, 2))) == (Poly((0, Fraction(1, 2))), Poly((1,)))


def test_integer_division_gcd_and_interpolation_stay_integer(monkeypatch):
    # the coefficients are computed as ints, not canonicalized from Fractions
    raw = []
    init = Poly.__init__

    def spy(self, coeffs=()):
        coeffs = list(coeffs)
        raw.extend(type(c) for c in coeffs)
        init(self, coeffs)

    monkeypatch.setattr(Poly, "__init__", spy)
    rng = random.Random(15)
    for _ in range(20):
        common = poly_power(_random_factor(rng), rng.randint(1, 3))
        a = common * _random_factor(rng) * _random_factor(rng)
        b = common * _random_factor(rng)
        raw.clear()
        g = a.gcd(b)
        q, r = a.divmod(Poly([*a.coeffs[:2], 1]))  # a monic divisor
        p = a * b
        interpolated = Poly.interpolate([(x, p(x)) for x in range(-3, len(p.coeffs))])
        parts = p.square_free_decomposition()
        assert set(raw) == {int}
        assert interpolated == p and g == fraction_gcd(a, b)
        assert all(type(c) is int for f, _ in parts for c in f.coeffs)


def test_root_order():
    p = Poly((1, -1)) * Poly((1, -1)) * Poly((1, 1))  # (1-w)^2 (1+w)
    assert p.root_order(1) == 2
    assert p.root_order(-1) == 1
    assert Poly.one().root_order(5) == 0
    assert Poly((Fraction(-3, 4),)).root_order(0) == 0  # a nonzero constant
    q = poly_power(Poly((-1, 2)), 3) * Poly((1, 1))  # (2w - 1)^3 (w + 1)
    assert q.root_order(Fraction(1, 2)) == 3
    assert q.root_order(Fraction(-1, 2)) == 0
    with pytest.raises(ValueError):
        Poly.zero().root_order(0)


def test_root_order_on_dyadic_line_factor():
    # det(I - (w/2) L(K3)) = (1 - w)(1 + w/2)^2 has no root at -1
    p = Poly((1, -1)) * poly_power(Poly((1, Fraction(1, 2))), 2)
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
    assert p.shift(Fraction(1, 2)) == Poly((Fraction(17, 8), Fraction(-5, 4), Fraction(3, 2), 1))
    assert Poly.zero().shift(5) == Poly.zero()
    assert Poly((4,)).shift(Fraction(-7, 3)) == Poly((4,))
    rng = random.Random(12)
    for a in (2, -3, Fraction(1, 2)):
        for _ in range(10):
            q = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 12))])
            expect = Poly.zero()  # sum of c_k (x + a)^k
            for k, c in enumerate(q.coeffs):
                expect = expect + poly_power(Poly((a, 1)), k) * c
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
    for _ in range(20):  # integer data at integer points: int coefficients
        p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        xs = rng.sample(range(-10, 10), len(p.coeffs) + rng.randint(0, 2))
        q = Poly.interpolate([(x, p(x)) for x in xs])
        assert q == p
        assert all(type(c) is int for c in q.coeffs)
    assert Poly.interpolate([(0, 0), (2, 1)]) == Poly((0, Fraction(1, 2)))
    # a product whose factors have zero inner coefficients
    p = Poly((1, 0, 0, 1)) * Poly((2, 0, 0, 0, -1))
    assert p == Poly((2, 0, 0, 2, -1, 0, 0, -1))
    assert Poly.interpolate([(x, p(x)) for x in range(-4, 4)]) == p
    assert p * Poly.zero() == Poly.zero() == Poly.zero() * p
    assert Poly.interpolate([]) == Poly.zero()


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
    # the test oracle of the log-trace identity
    s = series_of(ratfunc_reduce(Poly((1, 1)), Poly.one()), 5)
    expect = PowerSeries(
        5,
        [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)],
    )
    assert series_log(s) == expect


def test_series_log_order_zero():
    assert series_log(PowerSeries(0, [1])) == PowerSeries(0, [0])


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
    p = Poly((0, 1)) * poly_power(Poly((-1, 1)), 2) * poly_power(Poly((2, 1)), 3)
    parts = p.square_free_decomposition()
    assert parts == [(Poly((0, 1)), 1), (Poly((-1, 1)), 2), (Poly((2, 1)), 3)]
    # reassemble
    rebuilt = Poly.one()
    for f, k in parts:
        rebuilt = rebuilt * poly_power(f, k)
    assert rebuilt == p
    assert Poly((-1, 0, 1)).square_free_decomposition() == [(Poly((-1, 0, 1)), 1)]


def test_square_free_random_reassembly():
    rng = random.Random(3)
    for _ in range(15):
        p = Poly.one()
        for _ in range(rng.randint(1, 3)):
            factor = Poly([rng.randint(-3, 3), rng.randint(1, 3)])
            p = p * poly_power(factor, rng.randint(1, 3))
        parts = p.square_free_decomposition()
        rebuilt = Poly.one()
        for f, k in parts:
            rebuilt = rebuilt * poly_power(f, k)
        # equal up to a positive rational constant
        assert rebuilt.primitive_int() == p.primitive_int()


def test_coeff_strings_roundtrip():
    p = Poly((1, Fraction(-3, 8), 0, 7))
    assert Poly.from_coeff_strings(p.coeff_strings()) == p
    assert p.coeff_strings() == ["1", "-3/8", "0", "7"]
    # the read drops trailing zeros after int and Fraction coefficients alike
    assert Poly.from_coeff_strings(["1", "2", "0"]).coeffs == (1, 2)
    assert Poly.from_coeff_strings(["1/2", "4/2", "0"]).coeffs == (Fraction(1, 2), 2)


def _fraction_scalar_str(x) -> str:
    """The canonical string of an exact scalar, read through a Fraction copy."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def test_coeff_strings_match_the_fraction_copy_on_the_n7_census():
    fractions = 0
    for g in builtin_generate(7):
        fp = fingerprint(g)
        for p in (fp.charpoly_adjacency, fp.charpoly_line, fp.charpoly_signed,
                  fp.hashimoto_det, fp.correction_series, *(p for _, p in fp.shadows.named())):
            want = [_fraction_scalar_str(c) for c in p.coeffs]
            assert p.coeff_strings() == [scalar_str(c) for c in p.coeffs] == want
            fractions += sum(type(c) is Fraction for c in p.coeffs)
    assert fractions > 0
    for x in (Fraction(-1, 3), Fraction(6, 3), True):
        assert scalar_str(x) == _fraction_scalar_str(x)


def test_first_difference():
    assert first_difference(Poly((1, 2, 3)), Poly((1, 2, 4))) == 2
    assert first_difference(Poly((1, 2)), Poly((1, 2))) is None
    assert first_difference(Poly((1, 2)), Poly((1, 2, 5))) == 2
    a = PowerSeries(4, [1, 2, 3, 4, 5])
    b = PowerSeries(4, [1, 2, 3, 9, 5])
    assert first_difference(a, b) == 3
    assert first_difference(a, a) is None
