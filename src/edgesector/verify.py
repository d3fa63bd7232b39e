"""The identity battery: every structural identity of the paper, checked on
one graph through the edge-space oracles (block form, Bass, factorization,
Schur complement, log-trace, trivial roots, gauge invariance, bounds),
each once and exactly.  The production Ihara route of zeta.py (ihara_det,
the vertex line factor and the correction quotient) is checked against
hashimoto_det, bass_det, the Schur and log-trace series, the kernel
dimensions and the spectral bounds.  verify_all returns failures as data
instead of raising them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import check_bounds, hermitian_part_spectrum_check
from .edge_space import (
    build_hashimoto,
    build_hl2,
    build_incidence,
    build_pm_basis,
    build_reversal,
    edge_space,
    random_gauge,
    regauge,
    sector_blocks,
    verify_sector_identity,
)
from .graphs import Graph, is_connected, is_regular
from .matrices import Matrix
from .shadows import DEFAULT_KMAX, regular_collapse_check
from .zeta import (
    bass_det,
    factorize,
    hashimoto_det,
    ihara_det,
    log_trace_check,
    schur_series_check,
    trivial_roots,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def verify_all(g: Graph, order: int = 8, gauges: int = 3, seed: int = 0) -> list[CheckResult]:
    """Run every structural identity on one graph; failures are data.

    Gauge invariance is the conjugation law of an orientation flip: each of
    `gauges` seeded flips Sigma = diag(signs) sends M to M' = M Sigma, so the
    check takes no charpoly.  It asks M' M'^T = M M^T and, for k = 1 ..
    DEFAULT_KMAX, M'^T L^k M' = Sigma (M^T L^k M) Sigma entry by entry, which
    implies equal shadow charpolys.  Each side is formed as M'^T (L^k M'),
    L^k M' carried forward as L (L^(k-1) M'), so every product walks a sparse
    left operand (L, M' or M'^T) where (M'^T L^k) M' walked a dense one.
    trivial_roots runs only on a connected graph with at least one vertex.

    An order below 1 is an input error, not a failed identity: it raises
    ValueError before any check runs.
    """
    if order < 1:
        raise ValueError(f"series order must be at least 1, got {order}")
    results: list[CheckResult] = []

    def check(name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - failures are data here
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(name, ok, detail))

    es = edge_space(g)
    t = build_hashimoto(es)
    p = build_reversal(es)
    hl2 = build_hl2(es)
    pm = build_pm_basis(es)
    blocks = sector_blocks(es)
    d, absd = build_incidence(es)
    deg = g.degrees()

    check("reversal_involution", lambda: (p * p == Matrix.identity(2 * g.m), ""))
    check("shared_endpoint_splitting", lambda: (hl2 == p * t + t * p, "A = PT + TP"))
    check(
        "reversal_symmetry",
        lambda: (p * hl2 == t + t.transpose() and t == p * t.transpose() * p, "PA = T + T^t"),
    )
    check(
        "incidence_laplacians",
        lambda: (
            d * d.transpose() == g.vertex_operator(deg, -1)
            and absd * absd.transpose() == g.vertex_operator(deg),
            "DD^t and |D||D|^t",
        ),
    )
    check(
        "sector_identity",
        lambda: (lambda r: (r.ok, str(r.mismatch or "")))(verify_sector_identity(es)),
    )
    check(
        "pm_basis_norm",
        lambda: (pm.transpose() * pm == Matrix.identity(2 * g.m).scaled(2), "U^t U = 2I"),
    )
    check("bass_vs_hashimoto", lambda: (bass_det(g) == hashimoto_det(g) == ihara_det(g), ""))
    check(
        "factorization",
        lambda: (factorize(g, order).identity_holds(), "det = line * correction"),
    )
    check("schur_series", lambda: (schur_series_check(g, order), f"order {order}"))
    check("log_trace", lambda: (log_trace_check(g, order), f"order {order}"))
    if g.n and is_connected(g):
        check("trivial_roots", lambda: (lambda r: (r.ok(), str(r)))(trivial_roots(g)))
    if is_regular(g) is not None and is_connected(g):
        check("regular_collapse", lambda: (regular_collapse_check(g), ""))

    m, mt = blocks.M, blocks.M.transpose()
    base_mmt = m * mt
    # production fills MtM from the MMt charpoly; the AB/BA lemma is checked here
    check(
        "mixed_products_cospectral",
        lambda: ((mt * m).charpoly() == base_mmt.charpoly(), "charpoly(M^t M) = charpoly(M M^t)"),
    )

    rng = random.Random(seed)

    def line_products(mix: Matrix) -> list:
        """The rows of mix^T L^k mix, k = 1 .. DEFAULT_KMAX, with L^k mix
        carried forward: every product walks a sparse L or mix^T."""
        mixt, lk_mix, out = mix.transpose(), mix, []
        for _ in range(DEFAULT_KMAX):
            lk_mix = blocks.L * lk_mix
            out.append((mixt * lk_mix).rows)
        return out

    def gauge_check():
        base = line_products(m)
        for _ in range(gauges):
            signs = random_gauge(rng, g.m)
            m2 = sector_blocks(regauge(es, signs)).M
            if m2 * m2.transpose() != base_mmt:
                return False, "MM^t moved under a gauge flip"
            for k, (rows, expect) in enumerate(zip(line_products(m2), base), start=1):
                if rows != _conjugated(expect, signs):
                    return False, f"M'^t L^{k} M' != Sigma M^t L^{k} M Sigma under a gauge flip"
        return True, f"{gauges} random gauges"

    check("gauge_invariance", gauge_check)
    check(
        "spectral_bounds",
        lambda: (lambda r: (r.ok, "; ".join(r.violations)))(check_bounds(g)),
    )
    check(
        "hermitian_part_split",
        lambda: (hermitian_part_spectrum_check(g), "Spec(H) = L/2 u -S/2"),
    )
    return results


def _conjugated(rows: list, signs) -> list:
    """The rows of Sigma X Sigma, Sigma = diag(signs): entry (i, j) is
    s_i s_j X_ij."""
    return [[si * sj * x for sj, x in zip(signs, row)] for si, row in zip(signs, rows)]
