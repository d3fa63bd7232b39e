"""Gauge-invariant mixed-sector invariants, fingerprints, and pair reports.

The mixed block M depends on the reference orientation only through column
signs, so the spectra of M M^T, M^T M and M^T L^k M are invariants of the
underlying graph.  Fingerprints store exact characteristic-polynomial
coefficient vectors rather than floating eigenvalues: cospectrality becomes
string equality and needs no tolerance policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .edge_space import OrientedEdgeSpace, edge_space, sector_blocks
from .graphs import Graph, encode_graph6, is_connected, is_regular
from .matrices import Matrix
from .polynomials import Poly, PowerSeries, scalar_from_str
from .zeta import DEFAULT_ORDER, factorize, resolution_compare

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

    def invariant_strings(self) -> dict[str, str]:
        """Exact, byte-stable string per invariant; used for grouping keys."""
        out = {
            "A": ",".join(self.charpoly_adjacency.coeff_strings()),
            "L": ",".join(self.charpoly_line.coeff_strings()),
            "S": ",".join(self.charpoly_signed.coeff_strings()),
            "hashimoto": ",".join(self.hashimoto_det.coeff_strings()),
            "shadows": ";".join(
                name + ":" + ",".join(p.coeff_strings())
                for name, p in self.shadows.named()
            ),
        }
        return out

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


@lru_cache(maxsize=4096)
def fingerprint(
    g: Graph, order: int = DEFAULT_ORDER, kmax: int = DEFAULT_KMAX
) -> Fingerprint:
    """Deterministic exact fingerprint in the default lexicographic gauge."""
    es = edge_space(g)
    fact = factorize(g, order)
    # det(I - (w/2) L) is the reversal of charpoly(L) with coefficient j
    # scaled by 2^-j; undo both rather than reduce L a second time
    line = Poly([c * 2**j for j, c in enumerate(fact.line_factor.coeffs)])
    return Fingerprint(
        graph6=encode_graph6(g),
        n=g.n,
        m=g.m,
        degrees=g.degree_multiset(),
        charpoly_adjacency=g.adjacency().charpoly(),
        charpoly_line=line.reversal(at_degree=g.m),
        charpoly_signed=sector_blocks(es).S.charpoly(),
        shadows=shadow_set(es, kmax),
        hashimoto_det=fact.hashimoto_det,
        correction_order=order,
        correction_series=fact.correction_series,
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
    fg = fingerprint(g, order, kmax)
    fh = fingerprint(h, order, kmax)
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
    divergence = resolution_compare(g, h, order)
    return PairReport(
        graph6=(fg.graph6, fh.graph6),
        agree=agree,
        det_first_diff_order=divergence.det_first_diff_order,
        correction_first_diff_order=divergence.correction_first_diff_order,
        det_diff_values=divergence.diff_values,
        line_cospectral=divergence.line_cospectral,
    )
