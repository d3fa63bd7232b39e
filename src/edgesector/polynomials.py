"""Exact univariate polynomials, rational functions, and truncated power series.

Coefficients are Python ints or fractions.Fraction and nothing here ever
rounds.  Polynomials are dense, ascending degree, with no trailing zero
coefficient, so the zero polynomial has an empty coefficient tuple and
degree() returns None (a real sentinel, never -1).  Poly(coeffs) normalizes
what it is given; Poly._of wraps canonical coefficients the package has just
built or read, such as the checked digits of a Kronecker determinant.  A
product `*` is the ring product of two polynomials or two series; a scalar
multiplies through Poly.scale or rescale.  A rational polynomial is scaled
to an integer one by _integer_multiple only.

The store's coefficient codec is here too: scalar_str writes the canonical
"num" or "num/den" string, and scalars_from_strs reads a list of them back,
an all-integer list with one map(int) and an ASCII "num/den" by two int()
calls, everything else through Fraction, so each string reads as Fraction
would read it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _gcd_int, lcm as _lcm_int


class PoleAtOriginError(ZeroDivisionError):
    """Series expansion requested for a fraction whose denominator vanishes at 0."""


def _canon(x):
    # keep integer values as ints so integer polynomials stay integer; an
    # exact type test, since isinstance on an int goes through the numbers ABC
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def _quo(a, b):
    """a / b exactly: an int when both are ints and b divides a, else the
    reduced Fraction (an int again when it is whole)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _canon(Fraction(a, b))


def _pseudo_remainder(a, b) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b for integer coefficient tuples
    (ascending, deg a >= deg b): one multiplication by lc(b) per step keeps
    every quotient coefficient an integer."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        if lb != 1:
            r = [lb * c for c in r]
        if top:
            for i in range(db):
                r[k + i] -= top * b[i]
    return r


def scalar_str(x) -> str:
    """Canonical "num" or "num/den" string of an exact scalar."""
    # str of a Fraction, always reduced, is exactly this form
    return str(x if type(x) is int or type(x) is Fraction else Fraction(x))


# an ASCII integer or ratio as scalar_str writes it; "+3", " 3/4", "3/-4",
# "1_0" or non-ASCII digits take Fraction's own parse
_DECIMAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def scalar_from_str(s: str):
    """The exact scalar of a string Fraction accepts, as an int when whole,
    with Fraction's value and error for every string.  The forms scalar_str
    writes are read by int() alone: Fraction(int(num), int(den)) is what
    Fraction("num/den") builds, ZeroDivisionError for a zero den included."""
    if type(s) is str and (match := _DECIMAL.fullmatch(s)):
        num, den = match.groups()
        return int(num) if den is None else _canon(Fraction(int(num), int(den)))
    try:
        return int(s)
    except ValueError:
        return _canon(Fraction(s))


def scalars_from_strs(strings) -> list:
    """scalar_from_str of each string: most stored lists are all integers,
    and one map(int) reads them; any other list is read string by string.
    int() reads every string it accepts to the value Fraction gives, so the
    two routes agree."""
    try:
        return list(map(int, strings))
    except ValueError:
        return list(map(scalar_from_str, strings))


class Poly:
    """Dense exact polynomial in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_canon(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, coeffs: list) -> "Poly":
        """The polynomial of fresh canonical coefficients (ints, and
        Fractions that are not whole) with no trailing zero, taken as they
        are."""
        p = object.__new__(cls)
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    # -- structure -------------------------------------------------------

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        """Coefficient of degree k (0 beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def is_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """The polynomial product; a scalar multiplies through scale."""
        a, b = self.coeffs, other.coeffs
        return Poly(truncated_product(a, b, len(a) + len(b) - 2))

    def scale(self, s) -> "Poly":
        return Poly([c * s for c in self.coeffs])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- division --------------------------------------------------------

    def divmod(self, other: "Poly"):
        """Exact polynomial division over the rationals: (quotient, remainder).

        Each quotient coefficient is one division by the divisor's leading
        coefficient, an int whenever that division is exact, so an integer
        polynomial divided by one with a unit (or dividing) lead meets no
        Fraction."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        lb = b[-1]
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            f = _quo(r.pop(), lb)  # the top coefficient, cancelled exactly
            if f:
                q[k] = f
                for i in range(db):
                    r[k + i] -= f * b[i]
        return Poly(q), Poly(r)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversal(self, at_degree: int | None = None) -> "Poly":
        """w^d * p(1/w) for d = at_degree (default: the degree of p)."""
        if self.is_zero():
            return self
        d = self.degree() if at_degree is None else at_degree
        if d < self.degree():
            raise ValueError("reversal degree below actual degree")
        out = [0] * (d + 1)
        for k, c in enumerate(self.coeffs):
            out[d - k] = c
        return Poly(out)

    def resolvent(self, dim: int, scale=1) -> "Poly":
        """det(I - w * scale * X) for a dim x dim matrix X whose charpoly is
        self: the reversal at dim with coefficient k times scale^k."""
        return rescale(self.reversal(at_degree=dim), scale)

    def times_x_power(self, k: int) -> "Poly":
        """x^k * self; for k < 0 the lowest -k coefficients must vanish."""
        if k >= 0:
            return Poly((0,) * k + self.coeffs)
        if any(self.coeffs[:-k]):
            raise ArithmeticError(f"x^{-k} does not divide the polynomial")
        return Poly(self.coeffs[-k:])

    def root_order(self, a) -> int:
        """Largest k with (x - a)^k dividing self, by repeated division by x - a."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite root order")
        order, p, factor = 0, self, Poly((-a, 1))
        while True:
            q, r = p.divmod(factor)
            if not r.is_zero():
                return order
            order, p = order + 1, q

    # -- integer normal forms ---------------------------------------------

    def primitive_int(self) -> "Poly":
        """Primitive integer polynomial with positive leading coefficient,
        equal to self up to a positive rational factor: the integer multiple
        of _integer_multiple divided by its content, signed as its lead."""
        if self.is_zero():
            return self
        ints = _integer_multiple(self)[0].coeffs
        g = _gcd_int(*ints)
        if ints[-1] < 0:
            g = -g
        return Poly([c // g for c in ints])

    def gcd(self, other: "Poly") -> "Poly":
        """Primitive integer gcd with positive leading coefficient, by a
        primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each
        remainder is lc(b)^(deg a - deg b + 1) * a mod b, an integer
        polynomial, cut to its primitive part.  That normal form of the gcd
        is unique, so no Fraction is needed to reach it."""
        a, b = self.primitive_int(), other.primitive_int()
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.degree() < b.degree():
            a, b = b, a
        while not b.is_zero():
            a, b = b, Poly(_pseudo_remainder(a.coeffs, b.coeffs)).primitive_int()
        return a

    def square_free_decomposition(self) -> list[tuple["Poly", int]]:
        """Yun's algorithm: factors (f_i, i) with self = c * prod f_i^i,
        each f_i square-free, pairwise coprime, primitive integer."""
        if self.is_zero():
            raise ValueError("square-free decomposition of the zero polynomial")
        p = self.primitive_int()
        if p.degree() == 0:
            return []
        d = p.derivative()
        g = p.gcd(d)
        if g.degree() == 0:
            return [(p, 1)]
        w = p.exact_div(g)
        z = d.exact_div(g) - w.derivative()
        out = []
        for i in range(1, p.degree() + 2):
            if w.degree() == 0:
                break
            f = w.gcd(z)
            if f.degree() > 0:
                out.append((f, i))
                w = w.exact_div(f)
                z = z.exact_div(f)
            z = z - w.derivative()
        return out

    # -- interpolation ----------------------------------------------------

    @classmethod
    def interpolate(cls, points) -> "Poly":
        """Exact Newton interpolation through (x, y) pairs with distinct x.

        The divided differences divide through _quo, so integer data at
        integer points sampled from an integer polynomial stay ints; the
        Newton form is then expanded by _newton_expand."""
        xs = [x for x, _ in points]
        coef = [y for _, y in points]
        n = len(coef)
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                coef[i] = _quo(coef[i] - coef[i - 1], xs[i] - xs[i - j])
        return cls(_newton_expand(xs, coef))

    # -- presentation ------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        return list(map(scalar_str, self.coeffs))

    @classmethod
    def from_coeff_strings(cls, strings) -> "Poly":
        # scalar_from_str returns canonical scalars already
        cs = scalars_from_strs(strings)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls._of(cs)

    def pretty(self, var: str = "w") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = scalar_str(c)
            else:
                mag = scalar_str(c) if abs(c) != 1 else ("-" if c < 0 else "")
                power = var if k == 1 else f"{var}^{k}"
                term = f"{mag}{'*' if abs(c) != 1 else ''}{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


class RatFunc:
    """Reduced fraction of two polynomials; denominator monic and coprime to
    the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # trusted constructor: use reduce() for arbitrary input
        self.num = num
        self.den = den

    @classmethod
    def reduce(cls, num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return cls(Poly.zero(), Poly.one())
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        num, den = (Poly([_quo(c, lead) for c in p.coeffs]) for p in (num, den))
        return cls(num, den)

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def pretty(self, var: str = "w") -> str:
        if self.is_polynomial():
            return self.num.pretty(var)
        return f"({self.num.pretty(var)}) / ({self.den.pretty(var)})"


class PowerSeries:
    """Exact power series truncated at a fixed order (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError(f"series order must be at least 0, got {order}")
        cs = [_canon(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        cs.extend([0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "PowerSeries":
        return cls(order, p.coeffs[: order + 1])

    def __getitem__(self, k: int):
        if k > self.order:
            raise IndexError(f"series truncated at order {self.order}")
        return self.coeffs[k]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """The series product, truncated at the smaller order."""
        n = min(self.order, other.order)
        return PowerSeries(n, truncated_product(self.coeffs, other.coeffs, n))

    def inverse(self) -> "PowerSeries":
        a0 = self.coeffs[0]
        if a0 == 0:
            raise PoleAtOriginError("series with zero constant term is not invertible")
        inv0 = _quo(1, a0)  # an int when a0 is +-1
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = 0
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai:
                    acc += ai * out[k - i]
            out.append(-inv0 * acc)
        return PowerSeries(self.order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def coeff_strings(self) -> list[str]:
        return list(map(scalar_str, self.coeffs))

    def pretty(self, var: str = "w") -> str:
        return Poly(self.coeffs).pretty(var) + f" + O({var}^{self.order + 1})"

    def __repr__(self):
        return f"PowerSeries({self.order}, {list(self.coeffs)!r})"


def truncated_product(a, b, order: int) -> list:
    """Coefficients 0..order of the product of two coefficient sequences."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i], start=i):
                out[j] += x * y
    return out


def _newton_expand(nodes, coefs) -> list:
    """Coefficients of sum_i coefs[i] * prod_{j<i} (x - nodes[j]), by Horner's
    rule in the ring of polynomials: from the top down the accumulator, a
    coefficient list, becomes (x - nodes[i]) * acc + coefs[i] in place."""
    acc: list = []
    for x, c in zip(reversed(nodes), reversed(coefs)):
        prev = c  # new acc[k] = acc[k - 1] - x * acc[k], with acc[-1] read as c
        for k, a in enumerate(acc):
            acc[k], prev = prev - x * a, a
        acc.append(prev)
    return acc


def _integer_multiple(p: Poly) -> tuple[Poly, int]:
    """(s p, s), s the lcm of the coefficient denominators of p: the one
    scaling of a rational polynomial to an integer one."""
    s = _lcm_int(*(c.denominator for c in p.coeffs))
    return Poly([c.numerator * (s // c.denominator) for c in p.coeffs]), s


def rescale(p, s):
    """p(s x), coefficient k times s^k, for a Poly or a PowerSeries."""
    cs = [c * s**k for k, c in enumerate(p.coeffs)]
    return PowerSeries(p.order, cs) if isinstance(p, PowerSeries) else Poly(cs)


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    return RatFunc.reduce(num, den)


def series_of(f: RatFunc, order: int) -> PowerSeries:
    if f.den(0) == 0:
        raise PoleAtOriginError("denominator vanishes at the origin")
    num = PowerSeries.from_poly(f.num, order)
    den = PowerSeries.from_poly(f.den, order)
    return num * den.inverse()


def first_difference(a, b) -> int | None:
    """First index at which two coefficient sequences differ, None if equal.

    Polynomials compare over all coefficients; series compare through the
    smaller truncation order.
    """
    if isinstance(a, PowerSeries) and isinstance(b, PowerSeries):
        n = min(a.order, b.order)
        for k in range(n + 1):
            if a.coeffs[k] != b.coeffs[k]:
                return k
        return None
    for k in range(max(len(a.coeffs), len(b.coeffs))):
        if a[k] != b[k]:
            return k
    return None
