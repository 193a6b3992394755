"""Acceptance criteria.

Each test evaluates one criterion at its stated tolerance and prints one
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from geominima import (
    Ellipsoid,
    HarnessConfig,
    affine_surface_area_p,
    affine_surface_area_p_variational,
    ball,
    canonical_bodies,
    check_cyclic_and_monotone,
    curvature_image,
    default_grid,
    estimate_gp,
    gp_ball_shifted,
    holder_cyclic_check,
    mahler,
    mixed_volume_p,
    random_body,
    run_suite,
    unit_ball_volume,
)
from geominima.bodies import _Polytope
from geominima.harness import _center_at_centroid, suite_bodies

ACCEPT_P = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0)


def orders_for(n):
    return tuple(p for p in ACCEPT_P if abs(p + n) > 1e-9)


def report_line(idx, name, ok):
    print(f"ACCEPTANCE {idx:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {idx} ({name}) failed"


@pytest.fixture(scope="module")
def default_report():
    return run_suite(HarnessConfig())


def test_criterion_01_ball_fixed_point():
    ok = True
    for n in (2, 3):
        target = n * unit_ball_volume(n)
        for p in orders_for(n):
            est = estimate_gp(ball(n), p, restarts=4, seed=0)
            if abs(est.value - target) > 1e-6 * target:
                ok = False
    report_line(1, "ball fixed point (rel 1e-6)", ok)


def test_criterion_02_ellipsoid_closed_form():
    ok = True
    for n in (2, 3):
        omega = unit_ball_volume(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            g = rng.standard_normal((n, n))
            q1, _ = np.linalg.qr(g)
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            T = q1 @ np.diag(rng.uniform(0.6, 1.8, n)) @ q2
            E = Ellipsoid(T)
            det = abs(np.linalg.det(T))
            for p in (-1.0, 0.5, 2.0):
                expected = n * omega * det ** ((n - p) / (n + p))
                est = estimate_gp(E, p, restarts=2, seed=0)
                if abs(est.value - expected) > 1e-5 * expected:
                    ok = False
    report_line(2, "ellipsoid closed form (rel 1e-5)", ok)


def test_criterion_03_vp_exactness():
    ok = True
    count = 0
    for n in (2, 3):
        for seed in range(25):
            K = random_body("polytope-hull", n, seed=seed)
            Q = random_body("polytope-hull", n, seed=seed + 1000)
            vol = K.volume()
            for p in orders_for(n):
                if abs(mixed_volume_p(K, K, p) - vol) > 1e-12 * vol:
                    ok = False
            if abs(mixed_volume_p(K, Q, 0.0) - vol) > 1e-12 * vol:
                ok = False
            count += 1
    assert count == 50
    report_line(3, "p-mixed volume exactness (rel 1e-12, 50 polytopes)", ok)


def test_criterion_04_holder_margins():
    rng = np.random.default_rng(7)
    ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        K = random_body("polytope-hull", n, seed=int(rng.integers(0, 10000)))
        Q = random_body("polytope-hull", n, seed=int(rng.integers(0, 10000)))
        r, s, t = rng.uniform(-n + 0.25, 5.0, 3)
        if abs(t - s) < 1e-3 or not 0.01 < (t - r) / (t - s) < 0.99:
            continue
        res = holder_cyclic_check(K, Q, r, s, t)
        if res.margin < -1e-9 * res.rhs:
            ok = False
        checked += 1
    report_line(4, "cyclic interpolation margins (100 random tuples)", ok)


def test_criterion_05_caps_exact_by_construction(default_report):
    relevant = [r for r in default_report.results
                if r.check_id in ("volume_product_bound", "p_surface")]
    ok = bool(relevant) and all(r.verdict == "pass" for r in relevant)
    report_line(5, "volume-product and p-surface caps (tol 1e-12)", ok)


def test_criterion_06_shifted_ball_strictness():
    base = 2 * math.pi
    ok = True
    for mag in (0.1, 0.5, 0.9):
        z0 = [mag, 0.0]
        for p in (0.25, 0.5, 0.75):
            if not base - gp_ball_shifted(z0, 1.0, p) > 1e-8:
                ok = False
        for p in (-0.5, -1.0, -1.5):
            if not gp_ball_shifted(z0, 1.0, p) - base > 1e-8:
                ok = False
    report_line(6, "shifted-ball strict margins (> 1e-8)", ok)


def test_criterion_07_volume_product_upper_bound():
    ok = True
    for n in (2, 3):
        bound = unit_ball_volume(n) ** 2
        kinds = ["polytope-hull", "ellipsoid"] + (["fourier2d"] if n == 2 else [])
        for i in range(200):
            kind = kinds[i % len(kinds)]
            K = _center_at_centroid(random_body(kind, n, seed=5000 + i))
            if mahler(K) > bound + 1e-8:
                ok = False
        for seed in (1, 2, 3):
            E = random_body("ellipsoid", n, seed=seed)
            if abs(mahler(E) - bound) > 1e-6 * bound:
                ok = False
    report_line(7, "volume product bounded by the ball (200 bodies per dim)", ok)


def test_criterion_08_asp_consistency():
    g = default_grid(2)
    omega = unit_ball_volume(2)
    ok = True
    for seed in range(20):
        F = random_body("fourier2d", 2, seed=seed)
        for p in (-3.0, -1.0, 0.5, 1.0, 2.0):
            integral = affine_surface_area_p(F, p, g)
            variational = affine_surface_area_p_variational(F, p, g).value
            if abs(integral - variational) > 1e-7 * integral:
                ok = False
    for seed in (0, 1, 2):
        E = random_body("ellipsoid", 2, seed=seed)
        for p in (-1.0, 0.5, 1.0, 2.0):
            lam = curvature_image(E, p, g)
            lhs = affine_surface_area_p(E, p, g) ** (2 + p)
            rhs = 2 ** (2 + p) * omega ** 2 * lam.volume() ** p
            if abs(lhs - rhs) > 1e-6 * abs(rhs):
                ok = False
    report_line(8, "affine surface area: integral vs variational vs image", ok)


def test_criterion_09_sandwich():
    ok = True
    for n in (2, 3):
        grid = default_grid(n, 2048)
        bodies = [K for K in suite_bodies(HarnessConfig(), n).values()
                  if not isinstance(K, _Polytope)]
        for K in bodies:
            for p in orders_for(n):
                if abs(p) < 1e-9:
                    continue
                asp = affine_surface_area_p(K, p, grid)
                est = estimate_gp(K, p, restarts=2, grid=grid, maxiter=250)
                if p > 0 and asp > est.value * (1 + 1e-9):
                    ok = False
                if p < 0 and est.value > asp * (1 + 1e-9):
                    ok = False
    report_line(9, "affine surface area sandwiches the estimate", ok)


def test_criterion_10_monotonicity_exact_tier():
    cfg = HarnessConfig()
    ok = True
    for n in (2, 3):
        regimes = [(0.5, 1.0), (-1.0, 0.5), (-1.5, -0.5),            # -n < q < p
                   (-n - 2.0, -n - 1.0),                              # q < p < -n
                   (-n - 1.0, 1.0), (-n - 2.0, -0.5)]                 # q < -n < p
        for det in (0.25, 1.0, 4.0):
            E = Ellipsoid(np.diag([det] + [1.0] * (n - 1)))
            for q, p in regimes:
                res = check_cyclic_and_monotone(
                    E, {"kind": "monotone", "q": q, "p": p}, cfg)
                if res.verdict != "pass" or res.margin < -1e-9 * abs(res.rhs):
                    ok = False
    report_line(10, "monotonicity chains on ellipsoids (tol 1e-9)", ok)


def test_criterion_11_deterministic_reports():
    cfg = HarnessConfig(dims=(2,), p_grid=(-1.0, 1.0), n_random=1,
                        mahler_count=10, restarts=2, grid_resolution=1024, seed=9)
    a = run_suite(cfg).to_json_bytes()
    b = run_suite(cfg).to_json_bytes()
    ok = a == b
    report_line(11, "byte-identical reports under a fixed seed", ok)


def test_default_suite_reports_no_failures(default_report):
    assert default_report.exit_status == 0
    counts = {}
    for r in default_report.results:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    assert counts.get("fail", 0) == 0
    assert counts.get("pass", 0) > 0


def test_default_report_bytes_unchanged(default_report):
    # sha256 of the seed-0 report under numpy 2.4.6 / scipy 1.17.1.  A change
    # that moves the report bytes on purpose updates this digest and records
    # the drift in CHANGES.md.
    digest = hashlib.sha256(default_report.to_json_bytes()).hexdigest()
    assert digest == "df72a109dbc12b40f175d31ce515e97d180b29256c19ecc70749506673ad6c49"
