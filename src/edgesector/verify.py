"""The identity battery: every structural identity of the paper, checked on
one graph through the edge-space oracles (block form, Bass, factorization,
Schur complement, log-trace, trivial roots, gauge invariance, bounds).
verify_all returns failures as data instead of raising them.
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
from .shadows import _power_shadows, regular_collapse_check, shadow_set
from .zeta import (
    bass_det,
    factorize,
    hashimoto_det,
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
    check("bass_vs_hashimoto", lambda: (bass_det(g) == hashimoto_det(g), ""))
    check(
        "factorization",
        lambda: (factorize(g, order).identity_holds(), "det = line * correction"),
    )
    check("schur_series", lambda: (schur_series_check(g, order), f"order {order}"))
    check("log_trace", lambda: (log_trace_check(g, order), f"order {order}"))
    if is_connected(g):
        check("trivial_roots", lambda: (lambda r: (r.ok(), str(r)))(trivial_roots(g)))
    if is_regular(g) is not None and is_connected(g):
        check("regular_collapse", lambda: (regular_collapse_check(g), ""))

    base_shadows = shadow_set(es)
    m, mt = blocks.M, blocks.M.transpose()
    # production fills MtM from the MMt charpoly; the AB/BA lemma is checked here
    check(
        "mixed_products_cospectral",
        lambda: ((mt * m).charpoly() == base_shadows.mmt, "charpoly(M^t M) = charpoly(M M^t)"),
    )

    rng = random.Random(seed)
    base_mmt = m * mt

    def gauge_check():
        for _ in range(gauges):
            other = sector_blocks(regauge(es, random_gauge(rng, g.m)))
            if other.M * other.M.transpose() != base_mmt:
                return False, "MM^t moved under a gauge flip"
            # M2 M2^t is MM^t itself, so its charpoly is base_shadows.mmt and
            # only the M2^t L^k M2 charpolys are taken again
            if _power_shadows(other, base_shadows.kmax) != base_shadows.mtlkm:
                return False, "shadow charpolys moved under a gauge flip"
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
