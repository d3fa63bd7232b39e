"""Exact univariate polynomials, rational functions, and truncated power series.

Coefficients are Python ints or fractions.Fraction and nothing here ever
rounds.  Polynomials are dense, ascending degree, with no trailing zero
coefficient, so the zero polynomial has an empty coefficient tuple and
degree() returns None (a real sentinel, never -1).
"""

from __future__ import annotations

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


def scalar_str(x) -> str:
    """Canonical "num" or "num/den" string of an exact scalar."""
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_from_str(s: str):
    """The exact scalar of a string Fraction accepts, as an int when whole.
    Most stored coefficients are whole, and int() parses them far faster."""
    try:
        return int(s)
    except ValueError:
        return _canon(Fraction(s))


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

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "Poly":
        if s == 0:
            return Poly.zero()
        return Poly([c * s for c in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        """Exact polynomial division over the rationals: (quotient, remainder)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = [Fraction(c) for c in self.coeffs]
        b = [Fraction(c) for c in other.coeffs]
        db = len(b) - 1
        lb = b[-1]
        q = [Fraction(0)] * max(len(r) - db, 0)
        while len(r) - 1 >= db and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < db:
                break
            k = len(r) - 1 - db
            f = r[-1] / lb
            q[k] = f
            for i in range(db + 1):
                r[k + i] -= f * b[i]
            r.pop()
        return Poly(q), Poly(r)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = Fraction(self.leading())
        return Poly([Fraction(c) / lead for c in self.coeffs])

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

    def shift(self, a) -> "Poly":
        """p(x + a), by Horner's rule in the ring of polynomials: the
        accumulator, a coefficient list, becomes (x + a) * acc + c per step."""
        acc: list = []
        for c in reversed(self.coeffs):
            acc = [0, *acc]
            for i in range(len(acc) - 1):
                acc[i] += a * acc[i + 1]
            acc[0] += c
        return Poly(acc)

    def times_x_power(self, k: int) -> "Poly":
        """x^k * self; for k < 0 the lowest -k coefficients must vanish."""
        if k >= 0:
            return Poly((0,) * k + self.coeffs)
        if any(self.coeffs[:-k]):
            raise ArithmeticError(f"x^{-k} does not divide the polynomial")
        return Poly(self.coeffs[-k:])

    def root_order(self, a) -> int:
        """Largest k with (x - a)^k dividing self, by repeated synthetic division."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite root order")
        order = 0
        cur = list(self.coeffs)
        while True:
            # synthetic division of cur by (x - a)
            quot = [0] * (len(cur) - 1)
            acc = 0
            for k in range(len(cur) - 1, 0, -1):
                acc = cur[k] + a * acc
                quot[k - 1] = acc
            rem = cur[0] + a * acc
            if rem != 0 or len(cur) == 1:
                return order
            order += 1
            cur = quot
            if not cur:
                return order

    # -- integer normal forms ---------------------------------------------

    def primitive_int(self) -> "Poly":
        """Primitive integer polynomial with positive leading coefficient,
        equal to self up to a positive rational factor."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            if not isinstance(c, int):
                den = _lcm_int(den, Fraction(c).denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = _gcd_int(g, abs(c))
        if ints[-1] < 0:
            g = -g
        return Poly([c // g for c in ints])

    def gcd(self, other: "Poly") -> "Poly":
        """Primitive integer gcd via a primitive-part remainder sequence."""
        a, b = self.primitive_int(), other.primitive_int()
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.degree() < b.degree():
            a, b = b, a
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, (r.primitive_int() if not r.is_zero() else Poly.zero())
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
        """Exact Newton interpolation through (x, y) pairs with distinct x."""
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        n = len(pts)
        coef = [y for _, y in pts]
        xs = [x for x, _ in pts]
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
        poly = cls.zero()
        basis = cls.one()
        for i in range(n):
            poly = poly + basis.scale(coef[i])
            basis = basis * cls((-xs[i], 1))
        return poly

    # -- presentation ------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        return [scalar_str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, strings) -> "Poly":
        return cls([scalar_from_str(s) for s in strings])

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
        if g.degree() and g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = Fraction(den.leading())
        num = Poly([Fraction(c) / lead for c in num.coeffs])
        den = den.monic()
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

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a:
                    for j in range(n + 1 - i):
                        b = other.coeffs[j]
                        if b:
                            out[i + j] += a * b
            return PowerSeries(n, out)
        return PowerSeries(self.order, [c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "PowerSeries":
        a0 = self.coeffs[0]
        if a0 == 0:
            raise PoleAtOriginError("series with zero constant term is not invertible")
        inv0 = _canon(Fraction(1, a0))  # an int when a0 is +-1
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = 0
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai:
                    acc += ai * out[k - i]
            out.append(-inv0 * acc)
        return PowerSeries(self.order, out)

    def log(self) -> "PowerSeries":
        """Formal logarithm via integrating s'/s; needs constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("series logarithm needs constant term 1")
        if self.order == 0:
            return PowerSeries(0, [0])
        deriv = PowerSeries(
            self.order - 1, [k * c for k, c in enumerate(self.coeffs)][1:]
        )
        ratio = deriv * PowerSeries(self.order - 1, self.coeffs[: self.order]).inverse()
        out = [0]
        for k in range(1, self.order + 1):
            out.append(Fraction(ratio.coeffs[k - 1], k) if ratio.coeffs[k - 1] else 0)
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
        return [scalar_str(c) for c in self.coeffs]

    def pretty(self, var: str = "w") -> str:
        return Poly(self.coeffs).pretty(var) + f" + O({var}^{self.order + 1})"

    def __repr__(self):
        return f"PowerSeries({self.order}, {list(self.coeffs)!r})"


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
