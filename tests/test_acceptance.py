"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line with the measured residual so the gate
can be audited from the pytest -s output directly.
"""

import json
import time

import numpy as np
import pytest

from rp2quant import bundles, heisenberg
from rp2quant.checks import SuiteConfig
from rp2quant.classical import lie_bracket, P_observable, poisson_bracket
from rp2quant.cli import render_report, run_suite
from rp2quant.groups import (
    random_su2,
    rotation_from_axis_angle,
    rp2_rep,
    spinor_map,
    su2_from_axis_angle,
    su2_product,
)
from rp2quant.harmonics import analyze, parity_decompose, random_coeffs, rotate_coeffs, rotate_values
from rp2quant.manifold import build_quadrature, transition_signs
from rp2quant.representation import (
    act_canonical,
    check_group_law,
    check_intertwining,
    exchange_parities,
    generator_vs_ladder_residual,
    separable_section,
    su2_closure_residual,
)
from rp2quant.berry_robbins import (
    BRState,
    TransportFrame,
    br_lift,
    recover_spin_generator,
    scalar_lift,
    transported_spin,
)
from tests.test_classical import check_homomorphism, random_element, random_phase_point
from tests.test_representation import (
    gaussian_profile,
    low_degree_odd,
    radial64,
    random_canonical_element,
)

GRID8 = build_quadrature(8)


def report(name: str, residual: float, tol: float) -> None:
    status = "PASS" if residual <= tol else "FAIL"
    print(f"[{status}] {name}: residual {residual:.3e} (tolerance {tol:.1e})")
    assert residual <= tol, f"{name}: {residual:.3e} > {tol:.1e}"


def odd_ensemble(seed: int, count: int = 50):
    rng = np.random.default_rng(seed)
    return rng, [random_coeffs(8, "odd", rng) for _ in range(count)]


def test_01_generator_matches_orbital_ladders():
    rng, ensemble = odd_ensemble(101)
    t0 = time.perf_counter()
    worst = 0.0
    for a in ensemble:
        for i in (1, 2, 3):
            worst = max(worst, float(generator_vs_ladder_residual(i, a.c)))
    elapsed = time.perf_counter() - t0
    report("criterion-01 finite-difference generators equal exact ladders", worst, 1e-8)
    print(f"       (50 sections x 3 components in {elapsed:.1f} s)")
    assert elapsed < 10.0


def test_02_intertwining_through_module_map():
    rng, ensemble = odd_ensemble(102)
    worst = 0.0
    for a in ensemble:
        worst = max(worst, float(np.max(check_intertwining(a.c))))   # the three axes
    report("criterion-02 generators intertwine the module isomorphism", worst, 1e-7)


def test_03_su2_closure_of_fd_generators():
    rng, ensemble = odd_ensemble(103, count=10)
    worst = 0.0
    for a in ensemble:
        worst = max(worst, float(su2_closure_residual(a.c)))
    report("criterion-03 commutator closure of finite-difference generators", worst, 1e-6)


def test_04_exchange_statistics_bookkeeping():
    rng = np.random.default_rng(104)
    worst_leak = 0.0
    for _ in range(200):
        sector = "odd" if rng.random() < 0.5 else "even"
        a = random_coeffs(8, sector, rng)
        g = random_su2(rng)
        rotated = rotate_coeffs(g, a, GRID8)
        want = -1 if sector == "odd" else 1
        assert exchange_parities(rotated.c) == want
        raw = analyze(rotate_values(g, a.c, GRID8.nodes), 8, GRID8)
        even, odd = parity_decompose(raw)
        leak = (odd if sector == "even" else even).norm()
        worst_leak = max(worst_leak, leak)
    report("criterion-04 parity sectors closed under 200 rotations", worst_leak, 1e-10)


def test_05_bundle_structure():
    rng = np.random.default_rng(105)
    # cocycle on 1000 random triple-overlap points, exact sign arithmetic
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if np.min(np.abs(v)) < 0.02:
            continue
        g = transition_signs(rp2_rep(v))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert g[a, b] * g[b, c] == g[a, c]
    # lift intertwining on 200 random cases
    worst = 0.0
    for _ in range(200):
        g = random_su2(rng)
        p, v = random_su2(rng), rng.normal() + 1j * rng.normal()
        assoc_base, assoc_fiber = bundles.iso_Phi(su2_product(g, p), v)     # the natural lift (g p, v)
        tau_base, tau_fiber = bundles.lift_tau(g, *bundles.iso_Phi(p, v))
        worst = max(worst, float(np.max(np.abs(assoc_fiber - tau_fiber))))
        worst = max(worst, float(np.max(np.abs(assoc_base - tau_base))))
    report("criterion-05a transported lift equals conjugated natural lift", worst, 1e-10)
    worst = 0.0
    for _ in range(10):
        a = random_coeffs(8, "odd", rng)
        back = bundles.module_iso_inverse(bundles.module_iso_forward(a.c))
        worst = max(worst, float(np.linalg.norm(back[: a.c.size] - a.c)))
        worst = max(worst, float(np.linalg.norm(back[a.c.size :])))
    report("criterion-05b projective-module round trip", worst, 1e-9)


def test_06_spinor_map_checks():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        g1, g2 = random_su2(rng), random_su2(rng)
        gap = spinor_map(su2_product(g1, g2)) - spinor_map(g1) @ spinor_map(g2)
        worst = max(worst, float(np.linalg.norm(gap)))
        worst = max(worst, float(np.max(np.abs(spinor_map(g1) - spinor_map(-g1)))))
    report("criterion-06a double-cover homomorphism and kernel", worst, 1e-12)
    worst = 0.0
    for _ in range(500):
        psi = rng.uniform(0, 2 * np.pi)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        gap = rotation_from_axis_angle(psi, n) - spinor_map(su2_from_axis_angle(psi, n))
        worst = max(worst, float(np.max(np.abs(gap))))
    report("criterion-06b axis-angle rotation formula vs conjugation map", worst, 1e-12)


def test_07_canonical_operator():
    rng = np.random.default_rng(107)
    radial = radial64()
    worst_u, worst_gl = 0.0, 0.0
    for _ in range(10):
        fs = separable_section(radial, gaussian_profile(radial), low_degree_odd(rng))
        e1, e2 = random_canonical_element(rng), random_canonical_element(rng)
        out = act_canonical(*e1, fs, GRID8)
        worst_u = max(worst_u, abs(out.norm() - fs.norm()) / fs.norm())
        worst_gl = max(worst_gl, check_group_law(e1, e2, fs, GRID8))
    report("criterion-07a canonical operator unitarity", worst_u, 1e-6)
    report("criterion-07b canonical semidirect group law", worst_gl, 1e-6)


def test_08_classical_no_obstruction():
    rng = np.random.default_rng(108)
    pts = [random_phase_point(rng) for _ in range(100)]
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, check_homomorphism(random_element(rng), random_element(rng), pts))
    report("criterion-08a bracket homomorphism without central term", worst, 1e-9)
    worst = 0.0
    for _ in range(100):
        es = [random_element(rng) for _ in range(3)]
        pt = random_phase_point(rng)
        cyc = sum(
            P_observable(*lie_bracket(*lie_bracket(*es[i], *es[j]), *es[k]), *pt)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        )
        worst = max(worst, abs(cyc))
        worst = max(
            worst,
            abs(poisson_bracket(*es[0], *es[1], *pt) + poisson_bracket(*es[1], *es[0], *pt)),
        )
    report("criterion-08b antisymmetry and Jacobi identity", worst, 1e-8)


def test_09_two_route_quantization_gap():
    psi = heisenberg.gaussian_packet(1024, 20.0, x0=0.4, sigma=1.0, k0=0.6)
    _, s1 = heisenberg.gvh_discrepancy(psi)
    report("criterion-09a two-route constant equals 0.75 at hbar=1",
           abs(s1 - 0.75) / 0.75, 1e-7)
    psi2 = heisenberg.gaussian_packet(2048, 20.0, x0=0.4, sigma=1.0, k0=0.6)
    _, s2 = heisenberg.gvh_discrepancy(psi2)
    report("criterion-09b constant stable under grid doubling", abs(s1 - s2), 1e-9)


def test_10_weyl_and_heisenberg_representation():
    rng = np.random.default_rng(110)
    psi = heisenberg.gaussian_packet(1024, 20.0, x0=0.4, sigma=1.0, k0=0.6)
    worst = 0.0
    for _ in range(50):
        worst = max(
            worst,
            heisenberg.check_weyl_relation(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3), psi),
        )
    report("criterion-10a exponentiated exchange relation", worst, 1e-9)
    worst = 0.0
    for _ in range(50):
        e1 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        e2 = heisenberg.HeisenbergElement(
            rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal()
        )
        lhs = heisenberg.rep_heisenberg(e1, heisenberg.rep_heisenberg(e2, psi))
        rhs = heisenberg.rep_heisenberg(heisenberg.heisenberg_product(e1, e2), psi)
        worst = max(
            worst,
            float(np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(psi.values)),
        )
    report("criterion-10b group representation homomorphism", worst, 1e-9)
    comm = heisenberg.op_q(heisenberg.op_p(psi)).values - heisenberg.op_p(
        heisenberg.op_q(psi)
    ).values
    ccr = float(np.linalg.norm(comm - 1j * psi.values) / np.linalg.norm(psi.values))
    report("criterion-10c canonical commutator on smooth packets", ccr, 1e-8)


def test_11_transported_spin_lift():
    rng = np.random.default_rng(111)
    frame = TransportFrame(1.0)

    def safe_point():
        while True:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if v[2] > -0.8:
                return v

    worst = 0.0
    done = 0
    while done < 200:
        st = BRState(safe_point(), rng.normal(size=3) + 1j * rng.normal(size=3))
        g1, g2 = random_su2(rng), random_su2(rng)
        mid = spinor_map(g2) @ st.r
        end = spinor_map(g1) @ mid
        if mid[2] < -0.8 or end[2] < -0.8:
            continue
        lhs = br_lift(g1, br_lift(g2, st, frame), frame)
        rhs = br_lift(su2_product(g1, g2), st, frame)
        worst = max(worst, float(np.max(np.abs(lhs.lam - rhs.lam))))
        worst = max(worst, float(np.max(np.abs(lhs.r - rhs.r))))
        done += 1
    report("criterion-11a lift composition over 200 random cases", worst, 1e-10)

    worst = 0.0
    want = np.array([-1.0, 0.0, 1.0])
    for _ in range(100):
        r = safe_point()
        for i in (1, 2, 3):
            ev = np.sort(np.linalg.eigvalsh(transported_spin(i, r, frame)))
            worst = max(worst, float(np.max(np.abs(ev - want))))
    report("criterion-11b transported spin spectra preserved", worst, 1e-12)

    worst = 0.0
    for _ in range(20):
        r = safe_point()
        for i in (1, 2, 3):
            gap = recover_spin_generator(i, r, frame) - transported_spin(i, r, frame)
            worst = max(worst, float(np.max(np.abs(gap))))
    report("criterion-11c spin operators recovered from the lift", worst, 1e-7)

    frame0 = TransportFrame(0.0)
    done = 0
    while done < 100:
        st = BRState(safe_point(), [rng.normal() + 1j * rng.normal()])
        g = random_su2(rng)
        if (spinor_map(g) @ st.r)[2] < -0.8:
            continue
        lifted = br_lift(g, st, frame0)
        scalar = scalar_lift(g, st)
        assert np.array_equal(lifted.r, scalar.r)
        assert np.array_equal(lifted.lam, scalar.lam)
        done += 1
    report("criterion-11d spin-zero lift bit-compatible with scalar lift", 0.0, 1e-15)


def test_12_full_suite_deterministic_and_timely():
    cfg = SuiteConfig(rng_seed=12)
    t0 = time.perf_counter()
    first = run_suite("all", cfg)
    elapsed = time.perf_counter() - t0
    second = run_suite("all", cfg)
    assert all(r.passed for r in first), [r.name for r in first if not r.passed]
    pairs = list(zip(first, second))
    assert all(a.name == b.name and a.residual == b.residual for a, b in pairs)
    rep1 = json.loads(render_report(first, "json", cfg))
    rep2 = json.loads(render_report(second, "json", cfg))
    for c in rep1["checks"] + rep2["checks"]:
        c["wall_time_ms"] = 0.0
    rep1["summary"]["total_ms"] = rep2["summary"]["total_ms"] = 0.0
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    print(f"[PASS] criterion-12 full suite deterministic, {elapsed:.1f} s at defaults")
    assert elapsed < 60.0
