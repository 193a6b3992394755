"""Geominimal objective and one-sided estimation."""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geominima import (
    DomainError,
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    InputError,
    ShiftedBall,
    VPolytope,
    affine_surface_area_p,
    ball,
    default_grid,
    estimate_gp,
    geominimal,
    gp_ball_shifted,
    gp_objective,
    lutwak_gp_from_tilde,
    random_body,
    unit_ball_volume,
)
from geominima.harness import HarnessConfig, suite_bodies

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
    assert json.dumps(e1.witness.to_json()) == json.dumps(e2.witness.to_json())


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


def test_ellipsoids_stand_in_for_the_fan_past_twelve_facets():
    # a regular 16-gon of circumradius 1 centered 0.9 from the origin: past
    # the cap the ellipsoid search runs, and a centered ellipse beats K and B
    t = TWO_PI * np.arange(16) / 16
    K = VPolytope(np.column_stack([0.9 + np.cos(t), np.sin(t)]))
    est = estimate_gp(K, 2.0, restarts=3)
    assert est.restarts_used == 3
    assert isinstance(est.witness, Ellipsoid)
    assert est.value < 0.96 * min(est.objective_at_K, est.objective_at_B)
    assert est.value <= 9.522916540390094 * (1 + 1e-9)   # what the ellipsoid search reaches


def test_estimate_trace_records_restarts():
    est = estimate_gp(square(), 1.0, restarts=3, seed=2)
    assert est.restarts_used == 3
    by_family = {}
    for entry in est.trace:
        if "restart" in entry:
            by_family.setdefault(entry["family"], []).append(entry)
            assert {"fun", "nit", "nfev"} <= set(entry)
    # a polytope at p > 0 searches its normal fan only
    assert set(by_family) == {"polytope-support"}
    assert all(len(v) == 3 for v in by_family.values())


@pytest.mark.parametrize("make, family", [
    (lambda: random_body("fourier2d", 2, seed=5), geominimal.EllipsoidFamily),
    (lambda: random_body("polytope-hull", 2, seed=3), geominimal.PolytopeSupportFamily),
], ids=["fourier-ellipsoids", "polygon-fan"])
def test_each_restart_builds_its_witness_once(monkeypatch, make, family):
    # the objective, the finer-grid check and the new best share one body
    K, built = make(), []
    build = family.build

    def counted(self, x):
        built.append(build(self, x))
        return built[-1]

    monkeypatch.setattr(family, "build", counted)
    est = estimate_gp(K, 1.0, restarts=3, seed=2)
    assert len(built) == 3
    assert any(est.witness is Q for Q in built)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10_000), st.floats(1e-3, 4.0),
       st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12), st.booleans())
def test_fan_body_is_never_worse_than_the_ellipsoid_it_comes_from(n, seed, p, xs, shifted):
    # V_p(K, Q) sees h_Q only at the facet normals u of K, and the fan body
    # {<x, u_i> <= h_Q(u_i)} contains Q, so its polar is smaller: for p > 0 no
    # ellipsoid beats the fan family on a polytope
    K = random_body("polytope-hull", n, seed=seed)
    x = np.array(xs)
    L = np.tril(np.reshape(x[:n * n], (n, n)), k=-1) + np.diag(np.exp(x[:n]))
    w = x[-n:] / max(1.0, np.linalg.norm(x[-n:])) * 0.9
    Q = Ellipsoid(L, L @ w if shifted else None)     # the origin is -w in L's chart
    u = K.facet_data()[0]
    fan = HPolytope(u, Q.support(u))
    assert gp_objective(K, fan, p) <= gp_objective(K, Q, p) * (1 + 1e-12)


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


@pytest.mark.parametrize("value, p, n", [
    (math.nan, 1.0, 2), (math.inf, 1.0, 2), (-math.inf, 1.0, 2),
    (5.0, math.nan, 2), (5.0, math.inf, 2),
    (5.0, 1.0, 0), (5.0, 1.0, -1), (5.0, 1.0, 2.5)])
def test_lutwak_rejects_non_finite_input_and_bad_dimensions(value, p, n):
    with pytest.raises(InputError):
        lutwak_gp_from_tilde(value, p, n)


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


@pytest.mark.parametrize("seed", [-3, 1.5, True, "0"])
def test_estimate_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(InputError, match="seed"):
        estimate_gp(ball(2), 1.0, seed=seed)


@pytest.mark.parametrize("maxiter", [-1, 1.5, True, "400"])
def test_estimate_rejects_a_maxiter_that_is_not_a_non_negative_int(maxiter):
    with pytest.raises(InputError, match="maxiter"):
        estimate_gp(ball(2), 1.0, maxiter=maxiter)


# ---------------------------------------------------------------------------
# L-BFGS-B on exact gradients: descent for p > 0, ascent for smooth K at p < 0
# ---------------------------------------------------------------------------

def _small_hull(dim):
    # 8 facets in 2-D and 10 in 3-D, under the 12-facet cap of the support family
    return random_body("polytope-hull", dim, size=7, seed=4) if dim == 3 else \
        random_body("polytope-hull", 2, seed=4)


def _family_cases(dim, p, seed):
    """(family, evaluator, random chart point) for both families."""
    rng = np.random.default_rng(seed)
    K = _small_hull(dim)
    E = random_body("ellipsoid", dim, seed=2)
    g = default_grid(dim, 512)
    ell = geominimal.EllipsoidFamily(dim)
    sup = geominimal.PolytopeSupportFamily(K)
    return [(ell, geominimal._Evaluator(E, p, g), rng.normal(0.0, 0.4, ell.n_params)),
            (ell, geominimal._Evaluator(K, p, g), rng.normal(0.0, 0.4, ell.n_params)),
            (sup, geominimal._Evaluator(K, p, g), rng.normal(0.0, 0.4, sup.n_params))]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, -1.0, -4.0])
def test_family_gradients_match_central_differences(dim, p):
    step = 1e-6
    for fam, ev, x in _family_cases(dim, p, seed=abs(int(10 * p)) + dim):
        _, grad = fam.log_objective_and_gradient(x, ev)
        central = [(fam.log_objective_and_gradient(x + step * e, ev)[0]
                    - fam.log_objective_and_gradient(x - step * e, ev)[0]) / (2 * step)
                   for e in np.eye(fam.n_params)]
        np.testing.assert_allclose(grad, central, rtol=0, atol=1e-7)


@pytest.mark.parametrize("dim", [2, 3])
def test_descended_value_is_the_objective_evaluate_gives(dim):
    # both families descend the objective itself, not a stand-in for it
    for fam, ev, x in _family_cases(dim, 1.0, seed=dim):
        lj, _ = fam.log_objective_and_gradient(x, ev)
        assert lj == ev.log_objective(*fam.evaluate(x, ev.u))
        assert lj == pytest.approx(math.log(gp_objective(ev.K, fam.build(x), 1.0,
                                                         default_grid(dim, 512))), rel=1e-12)


def test_support_family_gradient_past_an_inactive_facet():
    # facet 1 pushed out no longer touches Q: its offset has no effect, and
    # the other offsets reach h_Q(u_1) through the vertex that attains it
    K = _small_hull(2)
    fam = geominimal.PolytopeSupportFamily(K)
    ev = geominimal._Evaluator(K, 1.0, None)
    x = np.zeros(fam.n_params)
    x[1] = 1.0
    log_hq, _ = fam.evaluate(x, ev.u)
    assert log_hq[1] < math.log(fam.h0[1]) + x[1] - 0.1
    _, grad = fam.log_objective_and_gradient(x, ev)
    assert grad[1] == 0.0
    step = 1e-6
    central = [(fam.log_objective_and_gradient(x + step * e, ev)[0]
                - fam.log_objective_and_gradient(x - step * e, ev)[0]) / (2 * step)
               for e in np.eye(fam.n_params)]
    np.testing.assert_allclose(grad, central, rtol=0, atol=1e-7)


def _suite_body(dim, name, polar=False):
    K = suite_bodies(HarnessConfig(), dim)[name]
    return K.polar() if polar else K


def _suite_estimate(K, p):
    # the default suite's call: restarts 2, seed 0, maxiter 250, 2048 nodes
    return estimate_gp(K, p, restarts=2, seed=0, maxiter=250,
                       grid=default_grid(K.dim, 2048))


# (dim, body, polar, p, value at the Nelder-Mead estimator) for p > 0
_NELDER_MEAD_VALUES = [
    (3, "random-polytope-hull-3d-0", True, 2.0, 11.848607711115225),   # 10 facets
    (3, "random-polytope-hull-3d-1", True, 0.5, 15.553019998406986),   # 10 facets
    (2, "random-polytope-hull-2d-1", False, 1.0, 6.5366475022443815),
    (2, "square", False, 0.5, 6.964404506368992),
    (3, "random-shifted-ball-3d-1", False, 2.0, 15.529957075767731),
    (2, "random-fourier2d-2d-1", False, 0.5, 6.263034979531912),
]


@pytest.mark.parametrize("dim, name, polar, p, before", _NELDER_MEAD_VALUES)
def test_descent_is_no_worse_than_nelder_mead_on_suite_bodies(dim, name, polar, p, before):
    est = _suite_estimate(_suite_body(dim, name, polar), p)
    assert est.value <= before * (1 + 1e-12)


@pytest.mark.parametrize("dim, name, p", [(3, "random-polytope-hull-3d-0", 2.0),
                                          (2, "random-polytope-hull-2d-1", 1.0)])
def test_support_family_winner_reports_its_exact_objective(dim, name, p):
    K = _suite_body(dim, name, polar=dim == 3)
    assert K.facet_data()[0].shape[0] <= 12
    est = _suite_estimate(K, p)
    assert isinstance(est.witness, HPolytope)
    assert est.value < est.objective_at_K
    assert est.value == pytest.approx(gp_objective(K, est.witness, p), rel=1e-12)


# ---------------------------------------------------------------------------
# the supremum side, p < 0
# ---------------------------------------------------------------------------

def _triangle():
    return suite_bodies(HarnessConfig(), 2)["triangle"]


def _hull3():
    return random_body("polytope-hull", 3, seed=42)


# (body, p, growth rate of the objective in eps along the thin ellipsoids):
# eps^{p(n-1)/(n+p)} for -n < p < 0, eps^{-p/(n+p)} for p < -n
_UNBOUNDED = [(square, -1.0, -1.0), (_triangle, -4.0, -2.0), (_triangle, -3.0, -3.0),
              (_hull3, -1.0, -1.0), (_hull3, -4.0, -4.0)]
_UNBOUNDED_IDS = ["square-1", "triangle-4", "triangle-3", "hull3-1", "hull3-4"]


@pytest.mark.parametrize("make, p, rate", _UNBOUNDED, ids=_UNBOUNDED_IDS)
def test_polytope_supremum_is_a_thin_ellipsoid_witness(make, p, rate):
    K = make()
    est = estimate_gp(K, p, restarts=2)
    assert isinstance(est.witness, Ellipsoid) and not est.witness.center.any()
    assert est.value == pytest.approx(gp_objective(K, est.witness, p), rel=1e-12)
    assert est.suspected_unbounded and est.to_json()["suspected_unbounded"]
    assert est.restarts_used == 0
    assert [set(e) for e in est.trace] == [{"note"}]
    assert est.value >= math.exp(5) * max(est.objective_at_K, est.objective_at_B)


@pytest.mark.parametrize("make, p, rate", _UNBOUNDED, ids=_UNBOUNDED_IDS)
def test_thin_ellipsoid_objective_grows_at_the_predicted_rate(make, p, rate):
    K = make()
    ev = geominimal._Evaluator(K, p, None)
    eps = [1e-2, 1e-4, 1e-6]
    logs = [math.log(gp_objective(K, geominimal._thin_ellipsoid(ev, e), p)) for e in eps]
    for i in range(2):
        slope = (logs[i + 1] - logs[i]) / (math.log(eps[i + 1]) - math.log(eps[i]))
        assert slope == pytest.approx(rate, abs=0.03)


def test_smooth_supremum_keeps_the_nelder_mead_value_as_a_floor():
    # the value the Nelder-Mead ascent gave in the default suite
    est = _suite_estimate(_suite_body(3, "random-shifted-ball-3d-1"), -1.0)
    assert est.value >= 46.943923390085146 * (1 - 1e-12)
    assert not est.suspected_unbounded


def test_ascent_witness_off_the_finer_grid_is_rejected():
    # on the default grid the ascent finds thin ellipsoids between the nodes
    # with objectives above e^80; the finer grid rejects them all and K remains
    K = ShiftedBall([0.8, 0.0, 0.0], 1.0)
    est = estimate_gp(K, -4.0)
    assert math.isfinite(est.value) and est.value == est.objective_at_K
    assert est.witness is K
    rejected = [e for e in est.trace if "rejected" in e]
    assert rejected and all("restart" not in e for e in rejected)
    assert all(abs(e["fine_fun"] - e["fun"]) > 1e-6 for e in rejected)
    assert len([e for e in est.trace if "restart" in e]) == 8


# ---------------------------------------------------------------------------
# quadrics are estimated in normal form
# ---------------------------------------------------------------------------

def _gp_ellipsoid(d, p):
    n = len(d)
    return n * unit_ball_volume(n) * abs(np.prod(d)) ** ((n - p) / (n + p))


@pytest.mark.parametrize("d, p", [((3.0, 1.0, 0.3), 0.5), ((10.0, 1.0, 0.1), -4.0)],
                         ids=["3-1-0.3-upper", "10-1-0.1-lower"])
def test_anisotropic_ellipsoid_meets_its_closed_form(d, p):
    # estimated on the grid directly these were 6.6e-5 below and 0.39 above
    # the closed form, both on the wrong side; in normal form they are exact
    est = estimate_gp(Ellipsoid(np.diag(d)), p)
    exact = _gp_ellipsoid(d, p)
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert (est.value - exact) * (1 if p > 0 else -1) >= -1e-12 * exact


def _objective_identity(K, Q, T, p):
    n = K.dim
    lhs = gp_objective(K.linear_map(T), Q.linear_map(T), p, default_grid(n, 32768))
    rhs = abs(np.linalg.det(T)) ** ((n - p) / (n + p)) * gp_objective(
        K, Q, p, default_grid(n, 32768))
    return lhs, rhs


@pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
def test_objective_transforms_with_the_body_and_the_candidate(p):
    # J(TK, TQ) = |det T|^{(n-p)/(n+p)} J(K, Q): a polytope's measure is
    # atomic, so any Q is exact; a shifted ellipsoid's grid is exact to
    # rounding for a smooth Q (a polytope Q's kinks leave 1e-6 at 32 768 nodes)
    T = np.array([[1.3, 0.4, 0.0], [-0.2, 0.9, 0.3], [0.1, 0.0, 0.7]])
    P = random_body("polytope-hull", 3, seed=4)
    E = Ellipsoid([[1.2, 0.1, 0.0], [0.0, 0.8, 0.2], [0.3, 0.0, 1.1]], [0.2, -0.1, 0.3])
    D = Ellipsoid(np.diag([1.4, 0.9, 0.6]))
    for K, Q in ((P, D), (P, P.polar()), (E, ball(3)), (E, D)):
        lhs, rhs = _objective_identity(K, Q, T, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0, -1.0]),
       st.booleans())
def test_quadric_estimates_are_one_sided_against_their_witness(n, seed, p, shifted):
    # axis ratio at most 10; the value is checked against its witness's
    # objective on a grid of 32 768 nodes, a quadrature the search never saw
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = q1 @ np.diag(np.exp(rng.uniform(0.0, math.log(10.0), n))) @ q2
    c = A @ (rng.uniform(0.0, 0.8) * q1[:, 0]) if shifted else None
    K = Ellipsoid(A, c)
    est = estimate_gp(K, p, restarts=2, seed=seed, grid=default_grid(n, 2048), maxiter=250)
    fine = gp_objective(K, est.witness, p, default_grid(n, 32768))
    sign = 1.0 if p > 0 else -1.0
    assert sign * (est.value - fine) >= -1e-12 * fine
    assert sign * (est.objective_at_B - est.value) >= 0
    assert sign * (est.objective_at_K - est.value) >= 0


def test_quadric_estimate_scales_its_normal_form():
    A = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.4], [0.1, 0.0, 0.5]])
    K = Ellipsoid(A, A @ [0.3, 0.0, -0.2])
    Kn = geominimal._normal_form(K)
    assert np.array_equal(Kn.matrix, np.eye(3)) and Kn.center == pytest.approx([0.3, 0.0, -0.2])
    assert geominimal._normal_form(Ellipsoid(A)) is ball(3)
    assert geominimal._normal_form(Kn) is Kn
    for p in (0.5, -1.0):
        est, est_n = estimate_gp(K, p, restarts=2), estimate_gp(Kn, p, restarts=2)
        scale = abs(np.linalg.det(A)) ** ((3 - p) / (3 + p))
        assert est.value == pytest.approx(scale * est_n.value, rel=1e-14)
        assert est.objective_at_K == pytest.approx(scale * est_n.objective_at_K, rel=1e-14)
        assert est.trace == est_n.trace and est.restarts_used == est_n.restarts_used
        # B is evaluated in K's own frame, the quadrature of p_surface_area
        assert est.objective_at_B == pytest.approx(gp_objective(K, ball(3), p), rel=1e-14)


@pytest.mark.parametrize("K, p", [(square(), 1.0), (_small_hull(3), 0.5),
                                  (Ellipsoid([[1.5, 0.3], [0.0, 0.7]]), 2.0)],
                         ids=["square", "hull3", "ellipse"])
def test_descent_trace_keeps_the_restart_entry(K, p):
    # the benchmark tracer reads nit >= maxiter as a restart at the cap, and nfev
    maxiter = 30
    est = estimate_gp(K, p, restarts=3, seed=1, maxiter=maxiter)
    entries = [e for e in est.trace if "restart" in e]
    assert len(entries) == 3     # one family per body
    for entry in entries:
        assert set(entry) == {"family", "restart", "fun", "nit", "nfev"}
        assert isinstance(entry["nit"], int) and 0 <= entry["nit"] <= maxiter
        assert isinstance(entry["nfev"], int) and entry["nfev"] >= 1
        assert isinstance(entry["fun"], float)
