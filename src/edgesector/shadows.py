"""Gauge-invariant mixed-sector invariants, fingerprints, and pair reports.

The mixed block M depends on the reference orientation only through column
signs, so the spectra of M M^T, M^T M and M^T L^k M are invariants of the
underlying graph.  Fingerprints store exact characteristic-polynomial
coefficient vectors rather than floating eigenvalues: cospectrality becomes
string equality and needs no tolerance policy.

Every sector block is a product of incidence matrices, L = |D|^T |D| - 2I,
S = D^T D - 2I and M = |D|^T D, so by the AB/BA lemma each fingerprint
spectrum is also the spectrum of an n x n matrix built from the signless
Laplacian Q = |D||D|^T = Deg + A and the Laplacian Delta = D D^T = Deg - A.
fingerprint computes in that vertex space, its Ihara fields through the
routes of zeta.py; shadow_set keeps the m x m edge-space route as an
independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .edge_space import OrientedEdgeSpace, edge_space, sector_blocks
from .graphs import Graph, encode_graph6, is_connected, is_regular, parse_graph6
from .matrices import Matrix
from .polynomials import Poly, PowerSeries, scalars_from_strs
from .zeta import (
    DEFAULT_ORDER,
    PairDivergence,
    _correction_quotient,
    _line_charpoly,
    _times_x_plus_2_power,
    ihara_det,
)

DEFAULT_KMAX = 2
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShadowSet:
    """Characteristic polynomials of the gauge-invariant mixed products."""

    kmax: int
    mmt: Poly                      # charpoly of M M^T, equal to that of M^T M
    mtlkm: tuple[Poly, ...]        # charpoly of M^T L^k M, k = 1..kmax

    def named(self) -> list[tuple[str, Poly]]:
        out = [("MMt", self.mmt), ("MtM", self.mmt)]
        out.extend((f"MtL{k}M", p) for k, p in enumerate(self.mtlkm, start=1))
        return out


def shadow_set(es: OrientedEdgeSpace, kmax: int = DEFAULT_KMAX) -> ShadowSet:
    """The mixed-product charpolys from the m x m sector blocks of one gauge
    (the edge-space oracle for vertex_shadow_set)."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    blocks = sector_blocks(es)
    m, mt, line = blocks.M, blocks.M.transpose(), blocks.L
    # both products are m x m, so AB-vs-BA forces equal charpolys: one
    # charpoly fills both schema-v1 keys (verify_all checks the pair)
    mmt = (m * mt).charpoly()
    powers = []
    lk = line
    for k in range(kmax):
        if k:
            lk = lk * line
        powers.append((mt * lk * m).charpoly())
    return ShadowSet(kmax, mmt, tuple(powers))


def vertex_shadow_set(g: Graph, kmax: int = DEFAULT_KMAX) -> ShadowSet:
    """shadow_set from n x n vertex matrices built from neighbour lists.

    |D| L^k |D|^T = Q (Q - 2I)^k and D D^T = Delta, so by the AB/BA lemma
    charpoly(M^T L^k M) = x^(m-n) charpoly(X_k) with X_k = Q (Q - 2I)^k Delta;
    k = 0 gives M M^T (and M^T M, which has the same charpoly).  No matrix
    product is taken.  X_0 = Q Delta = Deg^2 - Deg A + A Deg - A^2, entry by
    entry delta_ij d_i^2 + A_ij (d_j - d_i) - |N(i) & N(j)|, the common
    neighbours counted on bitmasks.  Q and Q - 2I commute, so X_k =
    (Q - 2I) X_(k-1), whose row i is (d_i - 2) times row i of X_(k-1) plus
    the rows of i's neighbours.  Delta 1 = 0, so X_k 1 = 0 too, and each
    charpoly is x times one of order n - 1 (_deflated).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    nbrs = g.neighbors()
    deg = list(map(len, nbrs))
    masks = [sum(1 << j for j in nb) for nb in nbrs]
    x = []
    for i, (nb, d, mask) in enumerate(zip(nbrs, deg, masks)):
        row = [-(mask & other).bit_count() for other in masks]
        row[i] += d * d
        for j in nb:
            row[j] += deg[j] - d
        x.append(row)
    polys = [_shadow_charpoly(x, deg, g.m)]
    for _ in range(kmax):
        nxt = []
        for row, nb, d in zip(x, nbrs, deg):
            row = [(d - 2) * a for a in row]
            for j in nb:
                row = list(map(add, row, x[j]))
            nxt.append(row)
        x = nxt
        polys.append(_shadow_charpoly(x, deg, g.m))
    return ShadowSet(kmax, polys[0], tuple(polys[1:]))


def _shadow_charpoly(rows: list[list[int]], deg: list[int], m: int) -> Poly:
    """x^(m-n) charpoly(X) for the n x n X of vertex_shadow_set, as x^(m-n+1)
    times the charpoly of the deflated X (1 for n = 0)."""
    if not rows:
        return Poly.one()
    y = _deflated(rows, deg)
    return Matrix._of(y, len(y)).charpoly().times_x_power(m - len(rows) + 1)


def _deflated(rows: list[list[int]], deg: list[int]) -> list[list[int]]:
    """The (n-1) x (n-1) Y with charpoly(X) = x charpoly(Y), for the n x n
    X = rows, n >= 1, every row of which sums to 0.

    With X 1 = 0 and U = I + (1 - e_r) e_r^T, whose column r is 1, column r
    of U^-1 X U is X 1 = 0, so charpoly(X) = x charpoly(Y) for Y the rest of
    U^-1 X U: Y_ij = X_ij - X_rj for i, j != r, row r subtracted from every
    row.  r is a vertex of least degree, whose sparse row keeps Y sparse.  A
    nonzero row sum raises ArithmeticError.
    """
    if any(map(sum, rows)):
        raise ArithmeticError("a row of the matrix to deflate does not sum to 0")
    r = min(range(len(rows)), key=deg.__getitem__)
    pivot = rows[r][:r] + rows[r][r + 1 :]
    return [list(map(sub, row[:r] + row[r + 1 :], pivot)) for i, row in enumerate(rows) if i != r]


def _strip_zero_roots(p: Poly) -> Poly:
    """Drop the maximal x^k factor, keeping the nonzero spectrum."""
    if p.is_zero():
        return p
    return p.times_x_power(-next(k for k, c in enumerate(p.coeffs) if c))


def regular_collapse_check(g: Graph) -> bool:
    """For connected k-regular graphs the nonzero spectrum of M^T M matches
    the nonzero spectrum of k^2 I - A^2; compare stripped charpolys."""
    k = is_regular(g)
    if k is None or not is_connected(g):
        raise ValueError("regular-collapse check needs a connected regular graph")
    m = sector_blocks(edge_space(g)).M
    a = g.adjacency()
    target = Matrix.identity(g.n).scaled(k * k) - a * a
    mtm = (m.transpose() * m).charpoly()
    return _strip_zero_roots(mtm) == _strip_zero_roots(target.charpoly())


def _field(rec: dict, name: str, kind: type):
    """rec[name], which must be exactly a kind (so a bool is not an int)."""
    value = rec[name]
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _coeff_strings(name: str, value) -> list[str]:
    """value, which must be a list of str: the stored coefficients of one
    polynomial or series.  Poly.from_coeff_strings would read a str one
    character at a time and a number through int(), a wrong polynomial."""
    if type(value) is not list:
        raise TypeError(f"{name} must be a list of str, not {type(value).__name__}")
    for c in value:
        if type(c) is not str:
            raise TypeError(f"{name} must be a list of str, not one holding {c!r}")
    return value


@dataclass(frozen=True)
class Fingerprint:
    """The full exact invariant record of one graph (schema v1)."""

    graph6: str
    n: int
    m: int
    degrees: tuple[int, ...]
    charpoly_adjacency: Poly
    charpoly_line: Poly
    charpoly_signed: Poly
    shadows: ShadowSet
    hashimoto_det: Poly
    correction_order: int
    correction_series: PowerSeries

    @property
    def line_factor(self) -> Poly:
        """det(I - (w/2) L), read back from charpoly_line."""
        return self.charpoly_line.resolvent(self.m, Fraction(1, 2))

    def invariants(self) -> dict[str, Poly | ShadowSet]:
        """The invariant each grouping key names, as invariant() returns it."""
        return {
            "A": self.charpoly_adjacency,
            "L": self.charpoly_line,
            "S": self.charpoly_signed,
            "hashimoto": self.hashimoto_det,
            "shadows": self.shadows,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "graph6": self.graph6,
            "n": self.n,
            "m": self.m,
            "degrees": list(self.degrees),
            "charpoly_adjacency": self.charpoly_adjacency.coeff_strings(),
            "charpoly_line": self.charpoly_line.coeff_strings(),
            "charpoly_signed": self.charpoly_signed.coeff_strings(),
            "shadows": {name: p.coeff_strings() for name, p in self.shadows.named()},
            "hashimoto_det": self.hashimoto_det.coeff_strings(),
            "correction_order": self.correction_order,
            "correction_series": self.correction_series.coeff_strings(),
        }

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, rec: dict) -> "Fingerprint":
        """The fingerprint of one store record.  Raises TypeError for a field
        of the wrong type (every polynomial and the correction series must be
        a list of str), and ValueError when n, m or degrees disagree with
        graph6, the correction series does not hold correction_order + 1
        coefficients, the shadow keys are not MMt, MtM, MtL1M .. MtLkM, or
        MtM differs from MMt.  It also raises ValueError for a cut-off or
        otherwise impossible polynomial: one stored with a trailing zero,
        charpoly_adjacency not monic of degree n, charpoly_line,
        charpoly_signed or a shadow not monic of degree m, hashimoto_det
        without constant term 1 or of degree above 2m, or a correction series
        whose constant term is not 1."""
        if not isinstance(rec, dict):
            raise TypeError(f"record must be a JSON object, not {type(rec).__name__}")
        if rec.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported fingerprint schema {rec.get('schema')!r}")
        graph6 = _field(rec, "graph6", str)
        n, m = _field(rec, "n", int), _field(rec, "m", int)
        order = _field(rec, "correction_order", int)
        degrees = tuple(_field(rec, "degrees", list))
        if any(type(d) is not int for d in degrees):
            raise TypeError(f"degrees must be a list of ints, not {list(degrees)!r}")
        g = parse_graph6(graph6)
        for name, stored, actual in (
            ("n", n, g.n), ("m", m, g.m), ("degrees", degrees, g.degree_multiset())
        ):
            if stored != actual:
                raise ValueError(f"{name} {stored} disagrees with graph6 {graph6!r}: {actual}")
        coeffs = _coeff_strings("correction_series", rec["correction_series"])
        if len(coeffs) != order + 1:
            raise ValueError(
                f"correction_series holds {len(coeffs)} coefficients, "
                f"not correction_order + 1 = {order + 1}"
            )
        shadow_items = _field(rec, "shadows", dict)
        kmax = 0
        while f"MtL{kmax + 1}M" in shadow_items:
            kmax += 1
        names = ["MMt", "MtM"] + [f"MtL{k}M" for k in range(1, kmax + 1)]
        if set(shadow_items) != set(names):
            raise ValueError(f"shadow keys {sorted(shadow_items)} are not {names}")
        # every writer stores the one charpoly of M M^T and M^T M under both
        if shadow_items["MtM"] != shadow_items["MMt"]:
            raise ValueError("shadow MtM disagrees with MMt, whose charpoly it shares")

        def poly(name: str, value) -> Poly:
            p = Poly.from_coeff_strings(_coeff_strings(name, value))
            # a writer stores no trailing zero, so one is a cut-off polynomial
            if len(p.coeffs) != len(value):
                raise ValueError(f"{name} ends in a zero coefficient")
            return p

        def charpoly(name: str, value, degree: int) -> Poly:
            p = poly(name, value)
            if p.degree() != degree or p.leading() != 1:
                raise ValueError(f"{name} is not monic of degree {degree}")
            return p

        polys = [
            charpoly(f"shadow {name}", shadow_items[name], m) for name in names if name != "MtM"
        ]
        det = poly("hashimoto_det", rec["hashimoto_det"])
        if det[0] != 1 or det.degree() > 2 * m:
            raise ValueError(
                f"hashimoto_det does not have constant term 1 and degree at most 2m = {2 * m}"
            )
        series = PowerSeries(order, scalars_from_strs(coeffs))
        if series[0] != 1:
            raise ValueError("correction_series does not have constant term 1")
        return cls(
            graph6=graph6,
            n=n,
            m=m,
            degrees=degrees,
            charpoly_adjacency=charpoly("charpoly_adjacency", rec["charpoly_adjacency"], n),
            charpoly_line=charpoly("charpoly_line", rec["charpoly_line"], m),
            charpoly_signed=charpoly("charpoly_signed", rec["charpoly_signed"], m),
            shadows=ShadowSet(kmax, polys[0], tuple(polys[1:])),
            hashimoto_det=det,
            correction_order=order,
            correction_series=series,
        )


# the order of run_screen's cascade stages, not an order of cost (at n = 8
# hashimoto once took 80 us a graph and S 109 us); moving a key moves the
# stage_counts bytes of every screen
GROUPING_KEYS = ("A", "L", "S", "shadows", "hashimoto")


def invariant(g: Graph, key: str, kmax: int = DEFAULT_KMAX) -> Poly | ShadowSet:
    """The invariant one grouping key names, from the vertex-space kernel
    that fingerprint uses for it: a polynomial for A, L, S and hashimoto, a
    ShadowSet for shadows."""
    if key == "A":
        return g.adjacency().charpoly()
    if key == "L":
        return _line_charpoly(g)
    if key == "S":
        # as zeta._line_charpoly does for L from Q - 2I: S + 2I and
        # Delta = Deg - A = D D^T share their nonzero spectrum, so
        # charpoly(S) = (x + 2)^(m-n) charpoly(Delta - 2I), and deflating
        # Delta takes one factor x + 2 off charpoly(Delta - 2I)
        if not g.n:
            return Poly.one()
        deg = g.degrees()
        y = _deflated(g.vertex_operator(deg, -1).rows, deg)
        for i, row in enumerate(y):
            row[i] -= 2
        return _times_x_plus_2_power(Matrix._of(y, g.n - 1).charpoly(), g.m - g.n + 1)
    if key == "shadows":
        return vertex_shadow_set(g, kmax)
    if key == "hashimoto":
        return ihara_det(g)
    raise ValueError(f"unknown invariant key {key!r}")


def invariant_string(value: Poly | ShadowSet) -> str:
    """Exact, byte-stable string of one invariant, the unit of every
    grouping key."""
    if isinstance(value, ShadowSet):
        return ";".join(name + ":" + ",".join(p.coeff_strings()) for name, p in value.named())
    return ",".join(value.coeff_strings())


@lru_cache(maxsize=4096)
def fingerprint(
    g: Graph, order: int = DEFAULT_ORDER, kmax: int = DEFAULT_KMAX, known: tuple = ()
) -> Fingerprint:
    """Exact fingerprint from the vertex-space kernels, equal to the edge-space
    routes; the fields in known, (key, invariant) pairs at this kmax, are reused."""
    values = dict(known)
    for key in GROUPING_KEYS:
        if key not in values:
            values[key] = invariant(g, key, kmax)
    series = _correction_quotient(values["hashimoto"], values["L"], order)
    return Fingerprint(
        graph6=encode_graph6(g),
        n=g.n,
        m=g.m,
        degrees=g.degree_multiset(),
        charpoly_adjacency=values["A"],
        charpoly_line=values["L"],
        charpoly_signed=values["S"],
        shadows=values["shadows"],
        hashimoto_det=values["hashimoto"],
        correction_order=order,
        correction_series=series,
    )


@dataclass(frozen=True)
class PairReport:
    """Exact agreement/divergence record for two fingerprints."""

    graph6: tuple[str, str]
    agree: dict  # invariant name -> bool
    det_first_diff_order: int | None
    correction_first_diff_order: int | None
    det_diff_values: tuple | None
    line_cospectral: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "graph6": list(self.graph6),
            "agree": dict(self.agree),
            "det_first_diff_order": self.det_first_diff_order,
            "correction_first_diff_order": self.correction_first_diff_order,
            "det_diff_values": (
                None
                if self.det_diff_values is None
                else [str(v) for v in self.det_diff_values]
            ),
            "line_cospectral": self.line_cospectral,
        }


def compare(
    g: Graph, h: Graph, order: int = DEFAULT_ORDER, kmax: int = DEFAULT_KMAX
) -> PairReport:
    return pair_report(fingerprint(g, order, kmax), fingerprint(h, order, kmax))


def pair_report(fg: Fingerprint, fh: Fingerprint) -> PairReport:
    """Agreement and divergence of two fingerprints of the same order and kmax.

    Raises ArithmeticError naming both graphs when a line-cospectral pair
    breaks the resolution principle: its Ihara determinants must first
    differ where its correction series do (PairDivergence.consistent)."""
    agree = {
        "degrees": fg.degrees == fh.degrees,
        "A": fg.charpoly_adjacency == fh.charpoly_adjacency,
        "L": fg.charpoly_line == fh.charpoly_line,
        "S": fg.charpoly_signed == fh.charpoly_signed,
        "hashimoto": fg.hashimoto_det == fh.hashimoto_det,
        "correction": fg.correction_series == fh.correction_series,
    }
    for (name, pg), (_, ph) in zip(fg.shadows.named(), fh.shadows.named()):
        agree[f"shadow_{name}"] = pg == ph
    divergence = PairDivergence.between(fg, fh)
    if not divergence.consistent():
        raise ArithmeticError(
            f"{fg.graph6} vs {fh.graph6}: line-cospectral, but the Ihara determinants "
            f"first differ at order {divergence.det_first_diff_order} and the "
            f"correction series at order {divergence.correction_first_diff_order}"
        )
    return PairReport(
        graph6=(fg.graph6, fh.graph6),
        agree=agree,
        det_first_diff_order=divergence.det_first_diff_order,
        correction_first_diff_order=divergence.correction_first_diff_order,
        det_diff_values=divergence.diff_values,
        line_cospectral=divergence.line_cospectral,
    )
