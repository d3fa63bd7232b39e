"""Floating-point verification of the numerical-range bounds on Spec(T).

This is the only module that leaves exact arithmetic, and it keeps the
floating-point surface small: symmetric spectra come from cyclic Jacobi
sweeps, and Spec(T) is found as the complex roots of the exact integer
characteristic polynomial (already available from the zeta module) via a
simultaneous Aberth-Ehrlich iteration, so every root carries a residual
certificate against the exact coefficients.  The Hermitian-part check uses
no floats: it compares exact integer characteristic polynomials.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from math import inf, log, sqrt

from .edge_space import build_hashimoto, edge_space, sector_blocks
from .graphs import Graph
from .matrices import Matrix
from .zeta import ihara_det

# Jacobi sweeps stop below this off-diagonal Frobenius norm
JACOBI_TOL = 1e-10
# every root of Spec(T) is certified to this residual, within ABERTH_MAX_ITER sweeps
RESIDUAL_TOL = 1e-8
ABERTH_MAX_ITER = 1000
DEFAULT_BOUND_SLACK = 1e-6


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to certify the roots."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def sym_spectrum(mat: Matrix) -> list[float]:
    """Eigenvalues of an exactly-symmetric matrix by cyclic Jacobi sweeps.

    Sweeps run until the off-diagonal Frobenius norm drops below JACOBI_TOL;
    the eigenvalue sum is checked against the exact trace.  `bounds` prints
    these floats, so the sequence of float operations is pinned bit for bit
    against a reference copy of the loop in tests/test_bounds.py.
    """
    tol = JACOBI_TOL
    if not mat.is_symmetric():
        raise ValueError("sym_spectrum needs a symmetric matrix")
    n = mat.nrows
    if n == 0:
        return []
    a = mat.to_float_rows()
    skip = tol / max(n * n, 1)
    for _ in range(100):
        off = sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) < skip:
                    continue
                aq = a[q]
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                t = (1.0 if theta >= 0 else -1.0) / (
                    abs(theta) + sqrt(theta * theta + 1.0)
                )
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    akp, akq = row[p], row[q]
                    row[p] = c * akp - s * akq
                    row[q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = ap[k], aq[k]
                    ap[k] = c * apk - s * aqk
                    aq[k] = s * apk + c * aqk
    else:
        raise RootFindingError("Jacobi sweeps did not converge", off)
    eig = sorted(a[i][i] for i in range(n))
    if abs(sum(eig) - float(mat.trace())) > max(tol, 1e-9) * max(
        1.0, sum(abs(x) for x in eig)
    ):
        raise RootFindingError("eigenvalue sum drifted from the exact trace", off)
    return eig


def spectral_radius(mat: Matrix) -> float:
    eig = sym_spectrum(mat)
    return max((abs(x) for x in eig), default=0.0)


def _horner(high, z: complex) -> complex:
    """The polynomial whose coefficients high lists from the top, at z."""
    acc = 0j
    for c in high:
        acc = acc * z + c
    return acc


def _residual(coeffs: list[float], z: complex) -> float:
    """|p(z)| / sum_k |a_k||z|^k for ascending float coefficients a_k."""
    return _relative(_horner(reversed(coeffs), z), [abs(c) for c in coeffs], z)


def _relative(pv: complex, sizes: list[float], z: complex) -> float:
    """|pv| / sum_k sizes[k] |z|^k: the residual of the value pv of p at z,
    sizes the |a_k| of p."""
    r = abs(z)
    scale = sum(a * r**k for k, a in enumerate(sizes))
    return abs(pv) / max(scale, 1e-300)


def _poly_roots(coeffs: list[float], radius: float | None = None):
    """Aberth-Ehrlich simultaneous iteration for a monic float polynomial,
    started on the circle of the given radius, by default Cauchy's
    1 + max |a_k| that holds every root.

    Returns the roots once every |p(z)| / sum_k |a_k||z|^k residual is below
    RESIDUAL_TOL; raises RootFindingError with the best residual otherwise,
    at once where radius^deg passes the float range, since p overflows on
    the start circle and the loop then runs its cap of sweeps for nothing.

    Each residual pass keeps p at every root, and the next sweep takes it
    as its first evaluation there; the float operations are those of
    _horner and _residual in the same order, so the roots match theirs bit
    for bit (tests/test_bounds.py pins them against a reference loop).
    """
    tol = RESIDUAL_TOL
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    if radius is None:
        radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    if deg * log(radius) > log(sys.float_info.max):
        raise RootFindingError(
            f"the start circle of radius {radius:.3e} overflows at degree {deg}", inf
        )
    zs = [
        radius * cmath.exp(2j * cmath.pi * (k + 0.25) / deg + 0.3j) for k in range(deg)
    ]
    # Horner's rule walks the coefficients from the top
    high, dhigh = coeffs[::-1], dcoeffs[::-1]
    sizes = [abs(c) for c in coeffs]
    values = None  # p at every root, kept from the last residual pass
    best = float("inf")
    certified_at = None
    for it in range(ABERTH_MAX_ITER):
        moved = 0.0
        for j in range(deg):
            z = zs[j]
            # zs[j] has not moved since the last residual pass evaluated p there
            pv = _horner(high, z) if values is None else values[j]
            dv = _horner(dhigh, z)
            if pv == 0:
                continue
            if dv == 0:
                zs[j] = z * (1 + 1e-6) + 1e-6
                moved = max(moved, 1.0)
                continue
            newton = pv / dv
            acc = 0j
            for k in range(deg):
                if k != j:
                    dz = z - zs[k]
                    if dz == 0:
                        dz = 1e-12
                    acc += 1.0 / dz
            denom = 1.0 - newton * acc
            step = newton if denom == 0 else newton / denom
            zs[j] = z - step
            moved = max(moved, abs(step) / max(abs(z), 1.0))
        values = None
        if certified_at is None:
            values = [_horner(high, z) for z in zs]
            worst = max(_relative(pv, sizes, z) for pv, z in zip(values, zs))
            best = min(best, worst)
            if worst < tol:
                certified_at = it
            elif moved < 1e-15 and worst < sqrt(tol):
                return zs
        # once the residual certificate holds, a few more sweeps drive the
        # simple roots to machine-precision positions (cubic convergence),
        # and no residual is taken again; multiple roots park on their
        # conditioning floor and are handled by centroid snapping afterwards
        if certified_at is not None and (it - certified_at >= 25 or moved < 1e-14):
            return zs
    if certified_at is not None:
        return zs
    raise RootFindingError("Aberth iteration hit the cap", best)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Certified roots of the exact Hashimoto characteristic polynomial."""

    eigenvalues: tuple[complex, ...]
    residuals: tuple[float, ...]
    clusters: tuple[tuple[complex, int], ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)


def hashimoto_spectrum(g: Graph) -> SpectrumEstimate:
    """All 2m complex eigenvalues of T, from the exact charpoly of T, the
    reversal of det(I - wT) as ihara_det gives it.

    Hashimoto spectra carry heavy exact multiplicities (trivial roots alone
    contribute m - n + 1 copies of 1), and float iteration scatters the
    approximants of a q-fold root across a radius like eps^(1/q).  So the
    exact polynomial is first split into square-free factors with known
    multiplicities (Yun's algorithm over the integers); the iteration then
    only ever sees simple roots.  Each factor's integer coefficients are
    divided by its leading one as int / int, which Python rounds correctly,
    so the monic floats are those of the exact quotients.  A factor whose
    roots Cauchy's start circle does not find (its radius^deg passes the
    float range from about 2m = 76 on) is started again on the circle of
    radius d_max - 1, which bounds every eigenvalue of T.
    """
    det = ihara_det(g)
    two_m = 2 * g.m
    # det(I - wT) is the reversal of charpoly(T), which is monic of degree 2m
    p = det.reversal(two_m)

    distinct: list[tuple[complex, int]] = []
    if two_m:
        for factor, mult in p.square_free_decomposition():
            coeffs = list(factor.coeffs)
            if coeffs[0] == 0:
                distinct.append((0j, mult))
                coeffs = coeffs[1:]  # square-free: at most one root at 0
            if len(coeffs) > 1:
                floats = [c / coeffs[-1] for c in coeffs]
                try:
                    roots = _poly_roots(floats)
                except RootFindingError:
                    roots = _poly_roots(floats, float(g.max_degree() - 1))
                distinct.extend((z, mult) for z in roots)

    eigenvalues: list[complex] = []
    for z, mult in distinct:
        eigenvalues.extend([z] * mult)
    charpoly_floats = [float(c) for c in p.coeffs]
    residuals = tuple(_residual(charpoly_floats, z) for z in eigenvalues)
    clusters = tuple(
        sorted(distinct, key=lambda zm: (zm[0].real, zm[0].imag))
    )
    return SpectrumEstimate(tuple(eigenvalues), residuals, clusters)


@dataclass(frozen=True)
class BoundReport:
    """Numerical-range bounds for Spec(T) together with observed extremes.

    max_residual is the largest residual of the computed eigenvalues against
    the exact charpoly; the JSON record leaves it out."""

    rho_L: float
    rho_S: float
    sigma_max_M: float
    rho_Delta: float
    rho_Q: float
    re_min: float
    re_max: float
    im_max: float
    rho_T: float
    d_max: int
    slack: float
    violations: tuple[str, ...] = field(default=())
    max_residual: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def margins(self) -> dict[str, float]:
        return {
            "re_upper": self.rho_L / 2 - self.re_max,
            "re_lower": self.re_min + self.rho_S / 2,
            "im": self.sigma_max_M / 2 - self.im_max,
            "sigma_vs_laplacians": sqrt(self.rho_Delta * self.rho_Q)
            - self.sigma_max_M,
            "perron": (self.d_max - 1) - self.rho_T,
        }

    def to_json_dict(self) -> dict:
        return {
            "rho_L": self.rho_L,
            "rho_S": self.rho_S,
            "sigma_max_M": self.sigma_max_M,
            "rho_Delta": self.rho_Delta,
            "rho_Q": self.rho_Q,
            "re_min": self.re_min,
            "re_max": self.re_max,
            "im_max": self.im_max,
            "rho_T": self.rho_T,
            "d_max": self.d_max,
            "slack": self.slack,
            "margins": self.margins(),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def check_bounds(g: Graph, slack: float = DEFAULT_BOUND_SLACK) -> BoundReport:
    """Assert the real/imaginary-part bounds for every computed eigenvalue.

    Re-interval: [-rho(S)/2, rho(L)/2].  Im-interval: |Im| <= sigma_max(M)/2
    with sigma_max(M) <= sqrt(rho(Laplacian) rho(signless Laplacian)).  Also
    the Perron comparison rho(T) <= d_max - 1.  Violations are reported by
    name with their margin; an empty tuple means every bound held.  A slack
    that is negative or not finite raises ValueError.
    """
    if not 0 <= slack < inf:
        raise ValueError(f"bound slack must be finite and nonnegative, got {slack}")
    es = edge_space(g)
    blocks = sector_blocks(es)
    rho_l = spectral_radius(blocks.L)
    rho_s = spectral_radius(blocks.S)
    mtm = blocks.M.transpose() * blocks.M
    mtm_eigs = sym_spectrum(mtm)
    sigma_max = sqrt(max(max(mtm_eigs, default=0.0), 0.0))
    deg = g.degrees()
    rho_delta = spectral_radius(g.vertex_operator(deg, -1))
    rho_q = spectral_radius(g.vertex_operator(deg))

    spec = hashimoto_spectrum(g)
    res = [z.real for z in spec.eigenvalues]
    ims = [z.imag for z in spec.eigenvalues]
    mags = [abs(z) for z in spec.eigenvalues]
    re_min = min(res, default=0.0)
    re_max = max(res, default=0.0)
    im_max = max((abs(v) for v in ims), default=0.0)
    rho_t = max(mags, default=0.0)
    d_max = g.max_degree()

    violations = []
    if re_max > rho_l / 2 + slack:
        violations.append(f"re_upper: {re_max} > rho(L)/2 = {rho_l / 2}")
    if re_min < -rho_s / 2 - slack:
        violations.append(f"re_lower: {re_min} < -rho(S)/2 = {-rho_s / 2}")
    if im_max > sigma_max / 2 + slack:
        violations.append(f"im: {im_max} > sigma_max(M)/2 = {sigma_max / 2}")
    if sigma_max > sqrt(rho_delta * rho_q) + slack:
        violations.append(
            f"sigma: {sigma_max} > sqrt(rho(Delta) rho(Q)) = {sqrt(rho_delta * rho_q)}"
        )
    if g.m and rho_t > d_max - 1 + slack:
        violations.append(f"perron: {rho_t} > d_max - 1 = {d_max - 1}")
    if abs(sum(res)) > slack * max(1.0, len(res)):
        violations.append(f"trace: eigenvalue sum {sum(res)} not ~0")

    return BoundReport(
        rho_L=rho_l,
        rho_S=rho_s,
        sigma_max_M=sigma_max,
        rho_Delta=rho_delta,
        rho_Q=rho_q,
        re_min=re_min,
        re_max=re_max,
        im_max=im_max,
        rho_T=rho_t,
        d_max=d_max,
        slack=slack,
        violations=tuple(violations),
        max_residual=spec.max_residual,
    )


def hermitian_part_spectrum_check(g: Graph) -> bool:
    """Spec((T + T^T)/2) must equal (1/2)Spec(L) union (-1/2)Spec(S).

    This is the block-diagonal collapse of the Hermitian part in the
    reversal eigenbasis, checked exactly as the integer polynomial identity
    charpoly(T + T^T) == charpoly(L) * charpoly(-S).
    """
    es = edge_space(g)
    t = build_hashimoto(es)
    blocks = sector_blocks(es)
    return (t + t.transpose()).charpoly() == blocks.L.charpoly() * (-blocks.S).charpoly()
