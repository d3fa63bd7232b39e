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
fingerprint computes in that vertex space; shadow_set and zeta.factorize
keep the m x m and 2m x 2m edge-space routes as independent oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .edge_space import OrientedEdgeSpace, edge_space, sector_blocks
from .graphs import Graph, encode_graph6, is_connected, is_regular
from .matrices import Matrix
from .polynomials import Poly, PowerSeries, rescale, scalar_from_str
from .zeta import DEFAULT_ORDER, PairDivergence, ihara_det

DEFAULT_KMAX = 2
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShadowSet:
    """Characteristic polynomials of the gauge-invariant mixed products."""

    kmax: int
    mmt: Poly                      # charpoly of M M^T
    mtm: Poly                      # charpoly of M^T M
    mtlkm: tuple[Poly, ...]        # charpoly of M^T L^k M, k = 1..kmax

    def named(self) -> list[tuple[str, Poly]]:
        out = [("MMt", self.mmt), ("MtM", self.mtm)]
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
    for _ in range(kmax):
        powers.append((mt * lk * m).charpoly())
        lk = lk * line
    return ShadowSet(kmax, mmt, mmt, tuple(powers))


def _laplacians(g: Graph) -> tuple[Matrix, Matrix]:
    """(Q, Delta) = (Deg + A, Deg - A) = (|D||D|^T, D D^T)."""
    a, deg = g.adjacency(), g.degree_matrix()
    return deg + a, deg - a


def vertex_shadow_set(g: Graph, kmax: int = DEFAULT_KMAX) -> ShadowSet:
    """shadow_set from n x n vertex matrices.

    |D| L^k |D|^T = Q (Q - 2I)^k and D D^T = Delta, so by the AB/BA lemma
    charpoly(M^T L^k M) = x^(m-n) charpoly(Q (Q - 2I)^k Delta); k = 0 gives
    M M^T (and M^T M, which has the same charpoly).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    q, delta = _laplacians(g)
    q_minus_2 = q - Matrix.identity(g.n).scaled(2)
    polys = []
    qk = q  # Q (Q - 2I)^k, carried forward
    for _ in range(kmax + 1):
        polys.append((qk * delta).charpoly().times_x_power(g.m - g.n))
        qk = qk * q_minus_2
    return ShadowSet(kmax, polys[0], polys[0], tuple(polys[1:]))


def _sector_charpoly(vertex: Matrix, m: int) -> Poly:
    """charpoly of X^T X - 2I (m x m) from that of X X^T (n x n): the AB/BA
    factor x^(m-n), then the shift x -> x + 2."""
    return vertex.charpoly().times_x_power(m - vertex.nrows).shift(2)


def _strip_zero_roots(p: Poly) -> Poly:
    """Drop the maximal x^k factor, keeping the nonzero spectrum."""
    if p.is_zero():
        return p
    v = 0
    while p.coeffs[v] == 0:
        v += 1
    return Poly(p.coeffs[v:])


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

    def invariant_strings(self) -> dict[str, str]:
        """Exact, byte-stable string per invariant; used for grouping keys."""
        values = {
            "A": self.charpoly_adjacency,
            "L": self.charpoly_line,
            "S": self.charpoly_signed,
            "hashimoto": self.hashimoto_det,
            "shadows": self.shadows,
        }
        return {key: invariant_string(value) for key, value in values.items()}

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
        if not isinstance(rec, dict):
            raise TypeError(f"record must be a JSON object, not {type(rec).__name__}")
        if rec.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported fingerprint schema {rec.get('schema')!r}")
        shadow_items = rec["shadows"]
        mtlkm = []
        k = 1
        while f"MtL{k}M" in shadow_items:
            mtlkm.append(Poly.from_coeff_strings(shadow_items[f"MtL{k}M"]))
            k += 1
        shadows = ShadowSet(
            kmax=k - 1,
            mmt=Poly.from_coeff_strings(shadow_items["MMt"]),
            mtm=Poly.from_coeff_strings(shadow_items["MtM"]),
            mtlkm=tuple(mtlkm),
        )
        order = rec["correction_order"]
        series = PowerSeries(
            order, [scalar_from_str(s) for s in rec["correction_series"]]
        )
        return cls(
            graph6=rec["graph6"],
            n=rec["n"],
            m=rec["m"],
            degrees=tuple(rec["degrees"]),
            charpoly_adjacency=Poly.from_coeff_strings(rec["charpoly_adjacency"]),
            charpoly_line=Poly.from_coeff_strings(rec["charpoly_line"]),
            charpoly_signed=Poly.from_coeff_strings(rec["charpoly_signed"]),
            shadows=shadows,
            hashimoto_det=Poly.from_coeff_strings(rec["hashimoto_det"]),
            correction_order=order,
            correction_series=series,
        )


def invariant(g: Graph, key: str, kmax: int = DEFAULT_KMAX) -> Poly | ShadowSet:
    """The invariant one grouping key names, from the vertex-space kernel
    that fingerprint uses for it: a polynomial for A, L, S and hashimoto, a
    ShadowSet for shadows."""
    if key == "A":
        return g.adjacency().charpoly()
    if key in ("L", "S"):
        q, delta = _laplacians(g)
        return _sector_charpoly(q if key == "L" else delta, g.m)
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
    g: Graph, order: int = DEFAULT_ORDER, kmax: int = DEFAULT_KMAX
) -> Fingerprint:
    """Deterministic exact fingerprint, computed from n x n vertex matrices
    (and the 2n x 2n Ihara companion); equal to the edge-space routes."""
    charpoly_line = invariant(g, "L")
    det = invariant(g, "hashimoto")
    # in u = w/2 both factors are integer polynomials with constant term 1, so
    # the quotient is an integer series, written in w once at the end
    det_u = rescale(PowerSeries.from_poly(det, order), 2)
    line_u = PowerSeries.from_poly(charpoly_line.reversal(g.m), order)
    series = rescale(det_u * line_u.inverse(), Fraction(1, 2))
    return Fingerprint(
        graph6=encode_graph6(g),
        n=g.n,
        m=g.m,
        degrees=g.degree_multiset(),
        charpoly_adjacency=invariant(g, "A"),
        charpoly_line=charpoly_line,
        charpoly_signed=invariant(g, "S"),
        shadows=invariant(g, "shadows", kmax),
        hashimoto_det=det,
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

    def all_agree(self) -> bool:
        return all(self.agree.values())

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
    """Agreement and divergence of two fingerprints of the same order and kmax."""
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
    return PairReport(
        graph6=(fg.graph6, fh.graph6),
        agree=agree,
        det_first_diff_order=divergence.det_first_diff_order,
        correction_first_diff_order=divergence.correction_first_diff_order,
        det_diff_values=divergence.diff_values,
        line_cospectral=divergence.line_cospectral,
    )
