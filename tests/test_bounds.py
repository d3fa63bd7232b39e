import cmath
import dataclasses
import random
from math import sqrt

import pytest

from edgesector import bounds
from edgesector.census import _all_graphs_up_to_iso
from edgesector.graphs import corpus, corpus_graph, parse_graph6
from edgesector.edge_space import build_hashimoto, edge_space, sector_blocks
from edgesector.matrices import Matrix
from edgesector.bounds import (
    _residual,
    check_bounds,
    hashimoto_spectrum,
    hermitian_part_spectrum_check,
    spectral_radius,
    sym_spectrum,
)
from conftest import random_connected_graph, sparse20_graphs


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def test_sym_spectrum_line_k3():
    eig = sym_spectrum(sector_blocks(edge_space(corpus_graph("K3"))).L)
    assert len(eig) == 3
    assert close(eig[0], -1, 1e-10) and close(eig[1], -1, 1e-10) and close(eig[2], 2, 1e-10)


def test_sym_spectrum_identity():
    assert all(close(x, 1) for x in sym_spectrum(Matrix.identity(6)))


def test_sym_spectrum_laplacian_c4():
    g = corpus_graph("C4")
    eig = sym_spectrum(g.vertex_operator(g.degrees(), -1))
    expect = [0, 2, 2, 4]
    assert all(close(a, b, 1e-10) for a, b in zip(eig, expect))


def test_sym_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_spectrum(Matrix([[0, 1], [0, 0]]))


def test_sym_spectrum_empty_and_trace():
    assert sym_spectrum(Matrix([])) == []
    rng = random.Random(60)
    for _ in range(10):
        n = rng.randint(1, 8)
        raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                raw[i][j] = raw[j][i]
        m = Matrix(raw)
        eig = sym_spectrum(m)
        assert close(sum(eig), float(m.trace()), 1e-8)


def test_tree_spectrum_all_zero():
    for name in ["K2", "P3", "star5"]:
        s = hashimoto_spectrum(corpus_graph(name))
        assert all(z == 0 for z in s.eigenvalues)
        assert len(s.eigenvalues) == 2 * corpus_graph(name).m
        assert s.max_residual == 0.0


def test_cycle_spectrum_roots_of_unity():
    for n in [4, 5, 6, 8]:
        g = corpus_graph(f"C{n}")
        s = hashimoto_spectrum(g)
        assert len(s.eigenvalues) == 2 * n
        assert all(m == 2 for _, m in s.clusters)
        assert len(s.clusters) == n
        roots = sorted((z for z, _ in s.clusters), key=lambda z: cmath.phase(z))
        expect = sorted(
            (cmath.exp(2j * cmath.pi * k / n) for k in range(n)),
            key=lambda z: cmath.phase(z),
        )
        assert all(abs(a - b) < 1e-9 for a, b in zip(roots, expect))


def test_paper_graph_spectrum():
    s = hashimoto_spectrum(corpus_graph("paperG"))
    assert len(s.eigenvalues) == 44
    assert s.max_residual < 1e-8
    assert abs(sum(s.eigenvalues)) < 1e-9  # tr T = 0


def test_spectrum_multiplicity_of_trivial_roots():
    # connected non-bipartite: eigenvalue 1 with multiplicity m - n + 1;
    # -1 shows up with multiplicity ker|D| = m - n
    g = corpus_graph("petersen")
    s = hashimoto_spectrum(g)
    mult = {round(z.real, 6): m for z, m in s.clusters if abs(z.imag) < 1e-9}
    assert mult[1.0] == 6
    assert mult[-1.0] == 5


def test_bounds_corpus():
    for entry in corpus():
        rep = check_bounds(entry.graph)
        assert rep.ok, (entry.name, rep.violations)


def test_bounds_random():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connected_graph(rng, n_max=8)
        rep = check_bounds(g)
        assert rep.ok, rep.violations


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_check_bounds_rejects_a_meaningless_slack(slack):
    with pytest.raises(ValueError, match="slack"):
        check_bounds(corpus_graph("K4"), slack=slack)


def test_check_bounds_accepts_a_finite_nonnegative_slack():
    assert check_bounds(corpus_graph("K4"), slack=0).ok
    assert check_bounds(corpus_graph("K4"), slack=1e-6).ok


def test_star_bound_beats_perron():
    rep = check_bounds(corpus_graph("star5"))
    assert close(rep.rho_L / 2, 2.0, 1e-9)  # rho(L(K_{1,5})) = 4
    assert rep.d_max - 1 == 4
    assert rep.rho_L / 2 < rep.d_max - 1
    assert rep.rho_T == 0.0  # star Hashimoto is nilpotent


def test_cycle_real_bound_tight():
    for n in [5, 6, 7]:
        rep = check_bounds(corpus_graph(f"C{n}"))
        assert close(rep.re_max, 1.0, 1e-9)
        assert close(rep.rho_L / 2, 1.0, 1e-9)


def test_sigma_consistency():
    # sigma_max(M)^2 equals the top eigenvalue of M^T M
    for name in ["K4", "exA_G1", "C6"]:
        g = corpus_graph(name)
        blocks = sector_blocks(edge_space(g))
        top = max(sym_spectrum(blocks.M.transpose() * blocks.M))
        rep = check_bounds(g)
        assert close(rep.sigma_max_M**2, top, 1e-8)


def test_hermitian_part_split():
    for name in ["K3", "C5", "K4", "exB_G2", "star4", "paperH"]:
        assert hermitian_part_spectrum_check(corpus_graph(name))


def float_hermitian_split(g, tol=1e-6) -> bool:
    """Spec((T + T^T)/2) against (1/2)Spec(L) u (-1/2)Spec(S) by Jacobi
    sweeps, within tol; the float oracle for the exact check."""
    es = edge_space(g)
    t = build_hashimoto(es)
    h = [x / 2 for x in sym_spectrum(t + t.transpose())]
    blocks = sector_blocks(es)
    expected = sorted(
        [x / 2 for x in sym_spectrum(blocks.L)] + [-x / 2 for x in sym_spectrum(blocks.S)]
    )
    return len(h) == len(expected) and all(abs(a - b) <= tol for a, b in zip(h, expected))


def test_hermitian_part_split_matches_float_oracle():
    for name in ["K3", "C5", "K4", "exB_G2", "star4", "paperH"]:
        g = corpus_graph(name)
        assert hermitian_part_spectrum_check(g) == float_hermitian_split(g), name


@pytest.mark.parametrize("name", ["K3", "C5", "K4", "paperH"])
def test_hermitian_part_split_detects_a_changed_signed_block(name, monkeypatch):
    from edgesector import bounds

    def perturbed(es):
        blocks = sector_blocks(es)
        rows = [list(r) for r in blocks.S.rows]
        rows[0][1] += 1  # one entry only: S is no longer symmetric
        return dataclasses.replace(blocks, S=Matrix(rows))

    monkeypatch.setattr(bounds, "sector_blocks", perturbed)
    assert not hermitian_part_spectrum_check(corpus_graph(name))


def test_spectral_radius_values():
    g = corpus_graph("K4")
    assert close(spectral_radius(g.adjacency()), 3.0, 1e-9)
    assert close(spectral_radius(g.vertex_operator(g.degrees(), -1)), 4.0, 1e-9)


def reference_jacobi(mat: Matrix) -> list[float]:
    """The cyclic Jacobi loop of sym_spectrum as first written, one float
    operation at a time; sym_spectrum must return exactly these floats,
    because `bounds` prints them."""
    tol = 1e-10
    n = mat.nrows
    a = [[float(x) for x in r] for r in mat.rows]
    for _ in range(100):
        off = sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < tol / max(n * n, 1):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = (1.0 if theta >= 0 else -1.0) / (
                    abs(theta) + sqrt(theta * theta + 1.0)
                )
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def reference_residual(coeffs, z) -> float:
    """_residual as first written, |z| recomputed in every term."""
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return abs(acc) / max(scale, 1e-300)


def test_jacobi_floats_match_the_reference_loop_bit_for_bit():
    rng = random.Random(62)
    mats = []
    for n in range(1, 13):
        for wide in (False, True):
            raw = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    x = rng.randint(-4, 4)
                    if wide:
                        x *= rng.randint(1, 60)
                    raw[i][j] = raw[j][i] = x
            mats.append(Matrix(raw))
    for entry in corpus():  # what check_bounds feeds it
        g = entry.graph
        blocks = sector_blocks(edge_space(g))
        mats += [
            blocks.L,
            blocks.S,
            blocks.M.transpose() * blocks.M,
            g.vertex_operator(g.degrees(), -1),
            g.vertex_operator(g.degrees()),
        ]
    for m in mats:
        assert sym_spectrum(m) == reference_jacobi(m)


def reference_poly_roots(coeffs):
    """bounds._poly_roots as first written: every sweep, certified or not,
    evaluates the residual at every root."""
    tol = bounds.RESIDUAL_TOL
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) if deg else 1.0
    zs = [
        radius * cmath.exp(2j * cmath.pi * (k + 0.25) / deg + 0.3j) for k in range(deg)
    ]
    best = float("inf")
    certified_at = None
    for it in range(bounds.ABERTH_MAX_ITER):
        moved = 0.0
        for j in range(deg):
            z = zs[j]
            pv = bounds._peval(coeffs, z)
            dv = bounds._peval(dcoeffs, z)
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
        worst = max(_residual(coeffs, z) for z in zs)
        best = min(best, worst)
        if worst < tol and certified_at is None:
            certified_at = it
        if certified_at is not None and (it - certified_at >= 25 or moved < 1e-14):
            return zs
        if moved < 1e-15 and worst < sqrt(tol):
            return zs
    if best < tol:
        return zs
    raise bounds.RootFindingError("Aberth iteration hit the cap", best)


def _bits(zs) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def test_hashimoto_spectrum_matches_the_reference_root_loop_bit_for_bit(monkeypatch):
    rng = random.Random(64)
    graphs = [entry.graph for entry in corpus()]
    graphs += [random_connected_graph(rng, n_max=12) for _ in range(40)]
    got = [_bits(hashimoto_spectrum(g).eigenvalues) for g in graphs]
    monkeypatch.setattr(bounds, "_poly_roots", reference_poly_roots)
    assert got == [_bits(hashimoto_spectrum(g).eigenvalues) for g in graphs]


@pytest.mark.slow
def test_hashimoto_spectrum_matches_the_reference_root_loop_on_the_census(monkeypatch):
    # every graph on at most 7 vertices: the overflow test of the start
    # circle never fires where the reference loop succeeds
    graphs = [g for n in range(8) for g in _all_graphs_up_to_iso(n)]
    got = [_bits(hashimoto_spectrum(g).eigenvalues) for g in graphs]
    monkeypatch.setattr(bounds, "_poly_roots", reference_poly_roots)
    assert got == [_bits(hashimoto_spectrum(g).eigenvalues) for g in graphs]


# n=22, m=44: Cauchy's start circle overflows on its factor of degree 37
OVERFLOW22_GRAPH6 = "Uq_O__AcE?Cg_O?_?WA?__AU?@o@c?A?AS?ACop?"


def test_bounds_hold_where_the_cauchy_start_overflows(monkeypatch):
    starts = []
    roots = bounds._poly_roots

    def recording(coeffs, radius=None):
        starts.append(radius)
        return roots(coeffs, radius)

    monkeypatch.setattr(bounds, "_poly_roots", recording)
    for g in sparse20_graphs() + [parse_graph6(OVERFLOW22_GRAPH6)]:
        starts.clear()
        report = check_bounds(g)
        assert report.ok, report.violations
        assert report.max_residual < bounds.RESIDUAL_TOL
        # the factor that failed from Cauchy's circle started again on d_max - 1
        assert g.max_degree() - 1 in starts


def test_an_overflowing_start_circle_fails_before_any_sweep(monkeypatch):
    def no_sweep(coeffs, z):
        raise AssertionError("evaluated on an overflowing start circle")

    monkeypatch.setattr(bounds, "_peval", no_sweep)
    # radius 1 + 1e20 at degree 16: radius^deg is 1e320, past the float range
    with pytest.raises(bounds.RootFindingError, match="overflows at degree 16") as info:
        bounds._poly_roots([1e20] * 16 + [1.0])
    assert info.value.best_residual == float("inf")
    with pytest.raises(bounds.RootFindingError, match="overflows at degree 2"):
        bounds._poly_roots([1.0, 0.0, 1.0], 1e200)


def test_residual_floats_match_the_reference_bit_for_bit():
    rng = random.Random(63)
    cases = []
    for _ in range(200):
        coeffs = [rng.uniform(-9, 9) for _ in range(rng.randint(1, 12))]
        z = complex(rng.gauss(0, 2), rng.gauss(0, 2))
        cases.append((coeffs, z))
    for name in ("K4", "C5", "exA_G1", "petersen"):
        g = corpus_graph(name)
        s = hashimoto_spectrum(g)
        coeffs = [float(c) for c in build_hashimoto(edge_space(g)).charpoly().coeffs]
        cases += [(coeffs, z) for z in s.eigenvalues]
    cases += [([1.0, -2.0, 1.0], 0j), ([0.0], 1 + 1j)]
    for coeffs, z in cases:
        assert _residual(coeffs, z) == reference_residual(coeffs, z)
