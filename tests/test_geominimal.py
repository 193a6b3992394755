"""Geominimal objective and one-sided estimation."""

import inspect
import json
import math

import numpy as np
import pytest

from geominima import (
    DomainError,
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    InputError,
    ShiftedBall,
    affine_surface_area_p,
    ball,
    body_to_json,
    default_grid,
    estimate_gp,
    geominimal,
    gp_ball_shifted,
    gp_objective,
    lutwak_gp_from_tilde,
    random_body,
    unit_ball_volume,
)

TWO_PI = 2 * math.pi


def square():
    return HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.25, 4.0])
def test_objective_is_invariant_under_scaling_the_candidate(t):
    # V_p(K, tQ) = t^p V_p(K, Q) and |(tQ) polar| = t^-n |Q polar| cancel
    g = default_grid(2, 1024)
    Ks = (square(), Ellipsoid([[1.5, 0.3], [0.0, 0.7]]), random_body("fourier2d", 2, seed=15))
    Qs = (ball(2), Ellipsoid([[1.2, 0.0], [0.4, 0.8]]), random_body("polytope-hull", 2, seed=3))
    for K in Ks:
        for Q in Qs:
            tQ = Q.linear_map(t * np.eye(2))
            for p in (-3.0, -1.0, 0.5, 2.0):     # both sides of 0 and of -n
                assert gp_objective(K, tQ, p, g) == pytest.approx(
                    gp_objective(K, Q, p, g), rel=1e-13)


def test_objective_ball_pair():
    for p in (-3.0, -1.0, 0.5, 1.0, 2.0):
        assert gp_objective(ball(2), ball(2), p) == pytest.approx(TWO_PI, rel=1e-10)


def test_objective_p_zero_collapses():
    K = square()
    for Q in (ball(2), Ellipsoid(np.diag([3.0, 0.5])), square().polar()):
        assert gp_objective(K, Q, 0.0) == pytest.approx(2 * K.volume(), rel=1e-12)


def test_objective_square_square_frozen():
    # n |K|^{n/(n+p)} |K polar|^{p/(n+p)} = 2 * 4^{2/3} * 2^{1/3}
    expected = 2.0 * 4.0 ** (2.0 / 3.0) * 2.0 ** (1.0 / 3.0)
    assert gp_objective(square(), square(), 1.0) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(6.349604207872798, abs=1e-12)


def test_objective_excluded_order():
    with pytest.raises(DomainError):
        gp_objective(square(), ball(2), -2.0)


# ---------------------------------------------------------------------------
# ball and ellipsoid fixed points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_estimate_ball_fixed_point(dim):
    target = dim * unit_ball_volume(dim)
    for p in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
        est = estimate_gp(ball(dim), p, restarts=2, seed=0)
        assert est.value == pytest.approx(target, rel=1e-6)
        assert est.direction == ("upper" if p >= 0 else "lower")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, -1.0])
def test_estimate_on_the_ball_keeps_the_ball_as_witness(dim, p):
    # every dilate of B scores what B scores, so none of them beats K = B
    K = ball(dim)
    assert estimate_gp(K, p, restarts=2).witness is K


def test_estimate_ellipse_closed_form():
    E = Ellipsoid(np.diag([2.0, 1.0]))
    est = estimate_gp(E, 1.0, restarts=2)
    assert est.value == pytest.approx(2.0 ** (1.0 / 3.0) * TWO_PI, rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_estimate_ellipsoid_homogeneity(dim):
    omega = unit_ball_volume(dim)
    for seed in (0, 1):
        E = random_body("ellipsoid", dim, seed=seed)
        det = abs(np.linalg.det(E.matrix))
        for p in (-1.0, 0.5, 2.0):
            est = estimate_gp(E, p, restarts=2, seed=seed)
            expected = dim * omega * det ** ((dim - p) / (dim + p))
            assert est.value == pytest.approx(expected, rel=1e-5)


def test_estimate_gl_equivariance_on_ellipsoids():
    rng = np.random.default_rng(3)
    E = Ellipsoid(np.diag([1.5, 0.8]))
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    p = 0.5
    a = estimate_gp(E.linear_map(T), p, restarts=2).value
    b = estimate_gp(E, p, restarts=2).value
    factor = abs(np.linalg.det(T)) ** ((2 - p) / (2 + p))
    assert a == pytest.approx(factor * b, rel=1e-5)


# ---------------------------------------------------------------------------
# structural invariants of the estimate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [-1.0, 0.5, 1.0, 2.0])
def test_estimate_capped_by_fixed_candidates(p):
    for K in (square(), random_body("polytope-hull", 2, seed=15),
              random_body("fourier2d", 2, seed=15)):
        est = estimate_gp(K, p, restarts=2)
        if p >= 0:
            assert est.value <= est.objective_at_K * (1 + 1e-12)
            assert est.value <= est.objective_at_B * (1 + 1e-12)
        else:
            assert est.value >= est.objective_at_K * (1 - 1e-12)
            assert est.value >= est.objective_at_B * (1 - 1e-12)


def test_estimate_value_equals_objective_at_witness():
    g = default_grid(2)
    for p in (-1.0, 0.5, 2.0):
        est = estimate_gp(square(), p, restarts=2, grid=g)
        recomputed = gp_objective(square(), est.witness, p, g)
        assert est.value == pytest.approx(recomputed, rel=1e-12)


def test_estimate_dilation_rule_exact_paths():
    # every candidate's objective scales by the same factor, and the seeded
    # optimizer walks identical paths, so the rule holds to roundoff
    p = 1.0
    for K, rK in ((square(), square().linear_map(3.0 * np.eye(2))),
                  (FourierBody2D([1.0, 0.0, 0.08]),
                   FourierBody2D([3.0, 0.0, 0.24]))):
        a = estimate_gp(rK, p, restarts=3, seed=7).value
        b = estimate_gp(K, p, restarts=3, seed=7).value
        factor = 3.0 ** (2 * (2 - p) / (2 + p))
        assert a == pytest.approx(factor * b, rel=1e-5)


def test_estimate_deterministic():
    K = random_body("polytope-hull", 2, seed=5)
    e1 = estimate_gp(K, 0.5, restarts=3, seed=11)
    e2 = estimate_gp(K, 0.5, restarts=3, seed=11)
    assert e1.value == e2.value
    assert json.dumps(body_to_json(e1.witness)) == json.dumps(body_to_json(e2.witness))


def test_estimate_sandwich_against_affine_surface_area():
    g = default_grid(2)
    bodies = [Ellipsoid([[1.8, 0.2], [0.0, 0.9]]),
              random_body("fourier2d", 2, seed=22),
              ShiftedBall([0.3, 0.1], 1.0)]
    for K in bodies:
        for p in (0.5, 1.0, 2.0):
            asp = affine_surface_area_p(K, p, g)
            est = estimate_gp(K, p, restarts=2, grid=g)
            assert asp <= est.value * (1 + 1e-9)
        for p in (-0.5, -1.0, -3.0):
            asp = affine_surface_area_p(K, p, g)
            est = estimate_gp(K, p, restarts=2, grid=g)
            assert est.value <= asp * (1 + 1e-9)


def test_estimate_p_zero_exact():
    K = square()
    est = estimate_gp(K, 0.0)
    assert est.value == 2 * K.volume()
    assert est.direction == "upper"


def test_estimate_excluded_order_and_bad_dim():
    with pytest.raises(DomainError):
        estimate_gp(ball(2), -2.0)
    with pytest.raises(DomainError):
        estimate_gp(ball(3), -3.0000004)


def test_suspected_unbounded_flag(monkeypatch):
    # the supremum over increasingly eccentric candidates diverges for
    # polytopes at negative orders; a tiny growth limit must trip the flag
    monkeypatch.setattr(geominimal, "GROWTH_LIMIT", 1.5)
    est = estimate_gp(square(), -1.0, restarts=2, maxiter=600)
    assert est.suspected_unbounded
    assert est.direction == "lower"
    assert est.value >= est.objective_at_K * (1 - 1e-12)


def test_estimate_json_fields():
    est = estimate_gp(ball(2), 1.0, restarts=2)
    blob = est.to_json()
    assert set(blob) >= {"p", "value", "direction", "witness",
                         "objective_at_K", "objective_at_B", "restarts_used"}
    json.dumps(blob)   # serializable


def test_estimate_settable_parameters():
    # the benchmark tracer binds this signature and reads maxiter
    params = list(inspect.signature(estimate_gp).parameters)
    assert params == ["K", "p", "restarts", "seed", "grid", "maxiter"]


def test_estimate_skips_the_support_family_past_twelve_facets():
    K = random_body("polytope-hull", 3, seed=1)
    assert K.facet_data()[0].shape[0] > 12
    est = estimate_gp(K, 1.0, restarts=2, maxiter=50)
    skipped = [e for e in est.trace if "skipped" in e]
    assert len(skipped) == 1
    assert set(skipped[0]) == {"family", "skipped"}
    assert skipped[0]["family"] == "polytope-support"
    families = {e["family"] for e in est.trace if "restart" in e}
    assert families == {"ellipsoid"}


def test_estimate_trace_records_restarts():
    est = estimate_gp(square(), 1.0, restarts=3, seed=2)
    assert est.restarts_used == 3
    by_family = {}
    for entry in est.trace:
        if "restart" in entry:
            by_family.setdefault(entry["family"], []).append(entry)
            assert {"fun", "nit", "nfev"} <= set(entry)
    assert set(by_family) == {"ellipsoid", "polytope-support"}
    assert all(len(v) == 3 for v in by_family.values())


# ---------------------------------------------------------------------------
# shifted-ball bound
# ---------------------------------------------------------------------------

def test_gp_ball_shifted_centered_is_exact():
    for p in (0.5, -1.0):
        expected = TWO_PI  # r = 1
        assert gp_ball_shifted([0.0, 0.0], 1.0, p) == pytest.approx(expected, rel=1e-12)
    # radius scaling
    r, p, n = 1.3, 0.5, 2
    expected = n * unit_ball_volume(n) * r ** (n * (n - p) / (n + p))
    assert gp_ball_shifted([0.0, 0.0], r, p) == pytest.approx(expected, rel=1e-12)


def test_gp_ball_shifted_against_quadrature_oracle():
    # independent trapezoid evaluation of the objective at Q = B
    z, r, n = 0.5, 1.0, 2
    t = 2 * np.pi * np.arange(8192) / 8192
    h = r + z * np.cos(t)
    for p in (0.5, -1.0):
        vp = (2 * np.pi / 8192) * np.sum(h ** (1 - p)) / n
        expected = n * vp ** (n / (n + p)) * math.pi ** (p / (n + p))
        assert gp_ball_shifted([z, 0.0], r, p) == pytest.approx(expected, rel=1e-10)


def test_gp_ball_shifted_strict_directions():
    for mag in (0.1, 0.5, 0.9):
        for p in (0.25, 0.5, 0.75):
            assert gp_ball_shifted([mag, 0.0], 1.0, p) < TWO_PI - 1e-8
        for p in (-0.5, -1.0, -1.5):
            assert gp_ball_shifted([mag, 0.0], 1.0, p) > TWO_PI + 1e-8


def test_gp_ball_shifted_input_errors():
    with pytest.raises(InputError):
        gp_ball_shifted([0.5, 0.0], 1.0, 1.5)
    with pytest.raises(InputError):
        gp_ball_shifted([0.5, 0.0], 1.0, -2.5)
    with pytest.raises(InputError):
        gp_ball_shifted([1.2, 0.0], 1.0, 0.5)


# ---------------------------------------------------------------------------
# classical normalization conversion
# ---------------------------------------------------------------------------

def test_lutwak_conversion_ball_fixed_point():
    n = 2
    base = n * unit_ball_volume(n)
    for p in (1.0, 2.0, 5.0):
        assert lutwak_gp_from_tilde(base, p, n) == pytest.approx(base, rel=1e-12)


def test_lutwak_conversion_frozen_value():
    # value 6 at p = 1, n = 2: (6^3 / (2 pi))^{1/2}
    expected = math.sqrt(216.0 / TWO_PI)
    assert lutwak_gp_from_tilde(6.0, 1.0, 2) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.8632301, abs=1e-6)


def test_lutwak_round_trip():
    n, p = 3, 2.0
    value = 7.3
    g = lutwak_gp_from_tilde(value, p, n)
    back = (g ** n * (n * unit_ball_volume(n)) ** p) ** (1.0 / (n + p))
    assert back == pytest.approx(value, rel=1e-12)


def test_lutwak_rejects_small_order():
    with pytest.raises(InputError):
        lutwak_gp_from_tilde(5.0, 0.5, 2)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_non_finite_orders(p):
    with pytest.raises(InputError, match="not a finite number"):
        estimate_gp(ball(2), p)
    with pytest.raises(InputError, match="not a finite number"):
        gp_objective(ball(2), ball(2), p)


def test_estimate_rejects_negative_restarts():
    with pytest.raises(InputError, match="restarts"):
        estimate_gp(ball(2), 1.0, restarts=-1)
    assert estimate_gp(ball(2), 1.0, restarts=0).restarts_used == 0
