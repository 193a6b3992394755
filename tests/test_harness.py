"""Inequality checks: verdict logic, canonical instances, suite behavior."""

import json
import math

import numpy as np
import pytest

from geominima import (
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    HarnessConfig,
    InputError,
    LinearImage,
    VPolytope,
    ball,
    canonical_bodies,
    check_blaschke_santalo,
    check_containment,
    check_cyclic_and_monotone,
    check_homogeneity,
    check_isoperimetric,
    check_p_surface_comparison,
    check_santalo_style,
    check_translation_balls,
    check_volume_product_bound,
    gp_ellipsoid_exact,
    random_body,
    replay_instance,
    run_suite,
    unit_ball_volume,
)
from geominima import harness
from geominima.grids import default_grid
from geominima.harness import _GpCache, _body_key, _center_at_centroid, _one_sided, suite_bodies

TWO_PI = 2 * math.pi


def small_config(**overrides):
    base = dict(seed=0, dims=(2,), p_grid=(-3.0, -1.0, 0.5, 1.0),
                n_random=1, mahler_count=12, restarts=2, grid_resolution=1024)
    base.update(overrides)
    return HarnessConfig(**base)


def square():
    return HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


def triangle():
    return VPolytope([[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]])


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------

def test_one_sided_soundness_matrix():
    tol = 1e-9
    # claim lhs <= rhs, lhs is an upper bound: satisfied -> proven pass
    assert _one_sided(True, True, 1.0, 2.0, tol, False)[1] == "pass"
    # violated with an upper bound: cannot refute
    assert _one_sided(True, True, 3.0, 2.0, tol, False)[1] == "inconclusive"
    # violated with a lower bound: refutation is sound
    assert _one_sided(True, False, 3.0, 2.0, tol, False)[1] == "fail"
    # satisfied with a lower bound only: not proven
    assert _one_sided(True, False, 1.0, 2.0, tol, False)[1] == "inconclusive"
    # tight estimates decide both ways
    assert _one_sided(True, True, 3.0, 2.0, tol, True)[1] == "fail"
    assert _one_sided(True, False, 1.0, 2.0, tol, True)[1] == "pass"
    # mirrored claim lhs >= rhs
    assert _one_sided(False, False, 2.0, 1.0, tol, False)[1] == "pass"
    assert _one_sided(False, False, 0.5, 1.0, tol, False)[1] == "inconclusive"
    assert _one_sided(False, True, 0.5, 1.0, tol, False)[1] == "fail"


# ---------------------------------------------------------------------------
# individual checks on canonical bodies
# ---------------------------------------------------------------------------

def test_homogeneity_ellipse_frozen():
    cfg = small_config()
    res = check_homogeneity(ball(2), np.diag([2.0, 1.0]), 1.0, cfg)
    assert res.verdict == "pass"
    assert res.lhs == pytest.approx(2.0 ** (1.0 / 3.0) * TWO_PI, rel=1e-5)


def test_homogeneity_rotation_invariant():
    cfg = small_config()
    a = math.radians(37)
    R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    res = check_homogeneity(Ellipsoid(np.diag([1.6, 0.7])), R, 0.5, cfg)
    assert res.verdict == "pass"
    assert res.lhs == pytest.approx(res.rhs, rel=1e-6)


def test_homogeneity_dilation_degenerate_exponent():
    # n = p makes the functional dilation invariant: factor 3^0 = 1
    cfg = small_config()
    res = check_homogeneity(ball(2), 3.0 * np.eye(2), 2.0, cfg)
    assert res.verdict == "pass"
    assert abs(np.linalg.det(3.0 * np.eye(2))) ** ((2 - 2.0) / 4.0) == 1.0


def test_homogeneity_polytope_identity():
    cfg = small_config()
    rng = np.random.default_rng(1)
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    res = check_homogeneity(square(), T, 0.5, cfg)
    assert res.verdict == "pass"


def test_translation_balls_check():
    cfg = small_config()
    for p in (0.25, 0.5, 0.75, -0.5, -1.0, -1.5):
        res = check_translation_balls(np.array([0.5, 0.0]), p, cfg)
        assert res.verdict == "pass"
        assert res.margin > 1e-8
    # the gap closes continuously as the shift vanishes
    near = check_translation_balls(np.array([1e-3, 0.0]), 0.5, cfg)
    assert near.verdict == "pass"
    assert 0 < near.margin < 1e-4


def test_volume_product_checks():
    cfg = small_config()
    for p in (-1.0, 0.5, 1.0):
        results = check_volume_product_bound(square(), p, cfg)
        assert [r.verdict for r in results] == ["pass", "pass"]
    res = check_volume_product_bound(ball(2), 1.0, cfg)[0]
    assert abs(res.margin) <= 1e-9 * res.rhs   # equality at the ball


def test_santalo_style_checks():
    cfg = small_config()
    res = check_santalo_style(ball(2), 1.0, cfg)
    assert res.verdict == "pass"
    assert abs(res.lhs - (TWO_PI) ** 2) <= 1e-6 * res.rhs

    res = check_santalo_style(square(), 1.0, cfg)
    assert res.verdict == "pass"
    assert res.lhs <= 4 * math.pi ** 2

    F = random_body("fourier2d", 2, seed=3)
    res = check_santalo_style(F, -1.0, cfg)
    assert res.verdict == "pass"


def test_santalo_style_aggressive_constant_fails_on_triangle():
    cfg = small_config(bm_constant=1.0)
    res = check_santalo_style(triangle(), -1.0, cfg)
    assert res.verdict == "fail"
    # the exact leg carries the violation: M(triangle) = 6.75 < pi^2
    assert res.lhs == pytest.approx(6.75, rel=1e-9)


def test_isoperimetric_checks():
    cfg = small_config()
    E = Ellipsoid(np.diag([2.0, 0.7]))
    for p in (-3.0, -1.0, 0.5, 1.0):
        res = check_isoperimetric(E, p, cfg)
        assert res.verdict == "pass"
        assert abs(res.margin) <= 1e-5 * max(abs(res.rhs), 1.0)   # equality case

    res = check_isoperimetric(square(), 0.5, cfg)
    assert res.verdict == "pass"
    assert res.rhs == pytest.approx((4 / math.pi) ** (1.5 / 2.5), rel=1e-12)

    res = check_isoperimetric(random_body("fourier2d", 2, seed=4), -1.0, cfg)
    assert res.verdict == "pass"

    res = check_isoperimetric(square(), 0.5, cfg, centered=False)
    assert res.verdict == "pass"
    with pytest.raises(InputError):
        check_isoperimetric(square(), 2.0, cfg, centered=False)


def test_containment_checks():
    cfg = small_config()
    E = Ellipsoid(np.diag([2.0, 2.0]))
    # equality when K is the reference ellipsoid itself
    for p in (0.5, -1.0, -3.0, 3.0):
        res = check_containment(E, E, p, cfg)
        assert res.verdict == "pass"
        assert abs(res.margin) <= 1e-4 * abs(res.rhs)

    # square inside the circumscribed ball, order in (0, n)
    outer = Ellipsoid(math.sqrt(2.0) * np.eye(2))
    res = check_containment(outer, square(), 1.0, cfg)
    assert res.verdict == "pass"
    assert res.rhs == pytest.approx(2.0 ** (1.0 / 3.0) * TWO_PI, rel=1e-12)

    # inscribed ball inside the square, negative order
    inner = Ellipsoid(np.eye(2))
    res = check_containment(inner, square(), -1.0, cfg)
    assert res.verdict == "pass"

    with pytest.raises(InputError):
        check_containment(inner, square(), 1.0, cfg)   # wrong side for the regime


def test_cyclic_and_monotone_exact_tier():
    cfg = small_config()
    E = Ellipsoid(np.diag([4.0, 1.0]))
    res = check_cyclic_and_monotone(E, {"kind": "cyclic", "r": 1.0, "s": 2.0, "t": -1.0}, cfg)
    assert res.verdict == "pass"
    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)   # chains are equalities here

    res = check_cyclic_and_monotone(E, {"kind": "monotone", "q": -1.0, "p": 0.5}, cfg)
    assert res.verdict == "pass"
    # normalized powers both equal det^{-2} = 1/16
    assert res.lhs == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert res.rhs == pytest.approx(1.0 / 16.0, rel=1e-12)

    res = check_cyclic_and_monotone(E, {"kind": "monotone", "q": -5.0, "p": 1.0}, cfg)
    assert res.verdict == "pass"

    with pytest.raises(InputError):
        check_cyclic_and_monotone(E, {"kind": "monotone", "q": 1.0, "p": 0.5}, cfg)
    with pytest.raises(InputError):
        check_cyclic_and_monotone(square(), {"kind": "cyclic", "r": 1, "s": 2, "t": -1}, cfg)


def test_cyclic_holder_tier():
    cfg = small_config()
    Q = Ellipsoid(np.diag([1.5, 0.8]))
    res = check_cyclic_and_monotone(
        square(), {"kind": "holder", "Q": Q, "r": 1.0, "s": 0.0, "t": 2.0}, cfg)
    assert res.verdict == "pass"
    assert res.margin >= 0.0


def test_blaschke_santalo_check():
    cfg = small_config()
    res = check_blaschke_santalo(square(), cfg)
    assert res.verdict == "pass"
    assert res.lhs == pytest.approx(8.0, rel=1e-12)
    res = check_blaschke_santalo(Ellipsoid(np.diag([2.0, 0.5])), cfg)
    assert res.verdict == "pass"
    assert abs(res.lhs - math.pi ** 2) <= 1e-6 * math.pi ** 2
    res = check_blaschke_santalo(triangle(), cfg)
    assert res.verdict == "pass"
    assert res.lhs == pytest.approx(6.75, rel=1e-10)


# ---------------------------------------------------------------------------
# configuration and suite
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InputError):
        HarnessConfig(bm_constant=1.2)
    with pytest.raises(InputError):
        HarnessConfig(dims=(2, 4))
    with pytest.raises(InputError):
        HarnessConfig(checks=("nonsense",))
    with pytest.raises(InputError):
        HarnessConfig(dims=(2,), p_grid=(-2.0, -1.9))
    with pytest.raises(InputError):
        HarnessConfig(tolerances={"nonsense": 1e-3})
    with pytest.raises(InputError):
        HarnessConfig(tolerances={"exact": 0.0})
    cfg = HarnessConfig()
    assert -3.0 in cfg.orders_for(2)
    assert -3.0 not in cfg.orders_for(3)
    partial = HarnessConfig(tolerances={"exact": 1e-8})
    assert partial.tolerances == {"exact": 1e-8, "quadrature": 1e-6, "estimator": 1e-4}


def test_canonical_bodies_fixed():
    assert set(canonical_bodies(2)) == {
        "ball2", "square", "cross2", "triangle",
        "ellipse-2-1", "ellipse-rot", "shifted-ball2"}
    assert set(canonical_bodies(3)) == {
        "ball3", "cube", "octahedron", "ellipsoid-3", "shifted-ball3"}


@pytest.fixture(scope="module")
def small_report():
    return run_suite(small_config())


def test_run_suite_small_clean(small_report):
    report = small_report
    assert report.exit_status == 0
    assert all(r.verdict in ("pass", "inconclusive") for r in report.results)
    assert report.summary
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "check_id,instance_id,lhs,rhs,margin,verdict"
    # equality detection: ellipsoid instances sit at equality in the product
    # and extremality checks, within the estimator tolerance
    tol = small_config().tolerances["estimator"]
    seen = 0
    for r in report.results:
        body = r.instance.get("body", {})
        if body.get("repr", {}).get("type") != "ellipsoid":
            continue
        if r.check_id == "isoperimetric" or (
                r.check_id == "santalo_style" and r.instance["params"]["p"] >= 0):
            assert abs(r.margin) <= tol * max(abs(r.rhs), 1.0), r.to_json()
            seen += 1
    assert seen > 0


def test_run_suite_deterministic_bytes():
    cfg = small_config(mahler_count=6, p_grid=(-1.0, 1.0))
    a = run_suite(cfg).to_json_bytes()
    b = run_suite(cfg).to_json_bytes()
    assert a == b


def test_run_suite_aggressive_constant_fails_and_replays():
    cfg = small_config(bm_constant=1.0, p_grid=(-1.0, 1.0), mahler_count=4,
                       checks=("santalo_style",))
    report = run_suite(cfg)
    assert report.exit_status == 1
    assert report.failures
    failing = report.failures[0]
    replayed = replay_instance(failing, cfg)
    assert replayed.verdict == "fail"
    assert replayed.margin == pytest.approx(failing["margin"], abs=1e-12)


def test_every_emitted_check_id_replays(small_report):
    last = {r.check_id: r for r in small_report.results}
    assert set(last) == {
        "homogeneity", "translation_balls", "volume_product_bound", "volume_product_pair",
        "santalo_style", "isoperimetric", "containment", "p_surface", "cyclic_exact",
        "monotone_exact", "cyclic_holder", "blaschke_santalo"}
    for check_id, original in last.items():
        replayed = replay_instance(original.to_json(), small_config())
        assert replayed.check_id == check_id
        assert replayed.instance == original.instance
        assert replayed.verdict == original.verdict
        assert replayed.margin == pytest.approx(original.margin, rel=1e-12, abs=0.0)


def test_replay_rejects_unknown_check_id():
    with pytest.raises(InputError):
        replay_instance({"check_id": "nonsense", "instance": {"params": {}}}, small_config())


def test_homogeneity_3d_suite_all_pass():
    # each 3-D ellipsoid image TK shares the normal form B with K and both
    # values scale the one estimate of B, so no result is left inconclusive
    report = run_suite(HarnessConfig(seed=21, dims=(3,), checks=("homogeneity",)))
    assert report.exit_status == 0
    assert report.summary["homogeneity"]["fail"] == 0
    assert report.summary["homogeneity"]["inconclusive"] == 0


def test_cache_does_not_reuse_a_freed_body_record():
    # a LinearImage has no JSON form, so the cache cannot key it on content;
    # built right after the first one is released, the second one would
    # usually take over the first one's memory address and id
    cfg = small_config()
    F = random_body("fourier2d", 2, seed=3)
    T1, T2 = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[2.0, 0.0], [0.3, 1.0]])
    cache = _GpCache(cfg)
    K = LinearImage(T1, F)
    first = cache.bound(K, 1.0)
    del K
    K = LinearImage(T2, F)
    second = cache.bound(K, 1.0)
    assert first.kind == second.kind == "volume-cap"
    assert second.value == _GpCache(cfg).bound(LinearImage(T2, F), 1.0).value
    assert second.value != first.value


def test_cache_keys_a_polytope_on_its_vertex_set():
    # the polar of the cross-polytope is the square, now as a VPolytope;
    # it shares the square's record, as its h-polytope JSON did before
    cache = _GpCache(small_config())
    cross = VPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    rec = cache.bound(square(), 0.5)
    assert cache.bound(cross.polar(), 0.5) is rec
    assert cache.bound(VPolytope(square().vertices[::-1]), 0.5) is rec
    assert cache.bound(square().linear_map(2.0 * np.eye(2)), 0.5) is not rec


def test_gp_ellipsoid_exact_helper():
    assert gp_ellipsoid_exact(1.0, 2, 1.0) == pytest.approx(TWO_PI, rel=1e-14)
    assert gp_ellipsoid_exact(2.0, 2, 1.0) == pytest.approx(
        2.0 ** (1.0 / 3.0) * TWO_PI, rel=1e-14)
    assert gp_ellipsoid_exact(4.0, 3, -1.0) == pytest.approx(
        3 * unit_ball_volume(3) * 4.0 ** 2.0, rel=1e-14)


def test_cache_keys_a_fourier_polar_on_its_parent(radial_solves):
    F = random_body("fourier2d", 2, seed=3)
    cache = _GpCache(small_config())
    assert _body_key(F.polar()) == _body_key(F.polar())
    assert radial_solves == []     # the key reads no support sample
    rec = cache.bound(F.polar(), 0.5)
    assert rec.kind == "volume-cap"
    assert cache.bound(F.polar(), 0.5) is rec
    assert cache.bound(FourierBody2D(F.a, F.b).polar(), 0.5) is rec
    assert cache.bound(random_body("fourier2d", 2, seed=4).polar(), 0.5) is not rec


def test_volume_cap_solves_a_fourier_polar_once_per_body(radial_solves):
    F = random_body("fourier2d", 2, seed=3)
    cfg = small_config()
    cache = _GpCache(cfg)
    records = [cache.bound(F.polar(), p) for p in cfg.p_grid]
    # the polar of F's polar is F, whose volume needs no radial solve
    assert F.polar().polar() is F
    assert radial_solves == []
    # each record is the cap that reads both volumes afresh
    n, P = 2, F.polar()
    for p, rec in zip(cfg.p_grid, records):
        log_j = math.log(n) + (n / (n + p)) * math.log(P.volume()) \
            + (p / (n + p)) * math.log(P.polar().volume())
        assert rec.value == math.exp(log_j)


def test_centered_body_is_kept_on_the_body():
    for K in (triangle(), square(), random_body("fourier2d", 2, seed=4)):
        assert _center_at_centroid(K) is _center_at_centroid(K)
    K = ball(2)
    assert _center_at_centroid(K) is K


def test_body_key_reads_signed_zeros_as_one_value():
    # the polars carry -0.0 where the canonical twins carry 0.0
    for dim, body, twin in ((2, "square", "cross2"), (3, "cube", "octahedron")):
        bodies = canonical_bodies(dim)
        P, Q = bodies[body].polar(), bodies[twin]
        assert np.signbit(P.vertices[P.vertices == 0]).any()
        assert _body_key(P) == _body_key(Q)
    # the JSON branch as well
    assert _body_key(Ellipsoid([[2.0, -0.0], [-0.0, 1.0]])) == \
        _body_key(Ellipsoid([[2.0, 0.0], [0.0, 1.0]]))
    assert _body_key(Ellipsoid(np.eye(2), [0.3, -0.0])) == \
        _body_key(Ellipsoid(np.eye(2), [0.3, 0.0]))
    assert _body_key(Ellipsoid(np.eye(2), [0.3, 0.0])) != \
        _body_key(Ellipsoid(np.eye(2), [0.3, 1e-300]))


def test_centroid_at_rounding_level_counts_as_centered():
    cfg = HarnessConfig()
    hulls = [K for dim in cfg.dims for name, K in suite_bodies(cfg, dim).items()
             if name.startswith("random-polytope-hull")]
    octahedron = canonical_bodies(3)["octahedron"]
    assert len(hulls) == 4 and octahedron.centroid().any()
    for K in hulls + [octahedron]:
        assert _center_at_centroid(K) is K


def test_off_centre_bodies_are_still_translated():
    cfg = HarnessConfig()
    hull = suite_bodies(cfg, 3)["random-polytope-hull-3d-0"].translate([1e-3, 0.0, 0.0])
    for K in (canonical_bodies(2)["shifted-ball2"],
              suite_bodies(cfg, 2)["random-fourier2d-2d-0"], hull):
        C = _center_at_centroid(K)
        assert C is not K
        assert np.linalg.norm(C.centroid()) <= 1e-12


def test_reduced_suite_estimates_each_body_once_per_order(monkeypatch):
    estimated, estimate = [], harness.estimate_gp

    def recorded(K, p, **kwargs):
        estimated.append((K, p))
        return estimate(K, p, **kwargs)

    monkeypatch.setattr(harness, "estimate_gp", recorded)
    cfg = HarnessConfig(dims=(3,), p_grid=(-4.0, 0.5), n_random=1, grid_resolution=512,
                        checks=("volume_product", "santalo_style", "isoperimetric"))
    assert run_suite(cfg).exit_status == 0
    # two bodies are one when their supports agree to 1e-12
    U = default_grid(3, 512).nodes

    def same(a, b):
        return a[1] == b[1] and np.max(np.abs(a[0].support(U) - b[0].support(U))) <= 1e-12

    assert len(estimated) > 0
    assert not any(same(a, b) for i, a in enumerate(estimated) for b in estimated[:i])


def test_santalo_style_solves_a_fourier_polar_once_across_orders(radial_solves):
    # each order with its own cache still reads the one centered body and its
    # one polar; the polar's polar is the centered body, so nothing is solved
    K = random_body("fourier2d", 2, seed=4)
    cfg = small_config()
    for p in (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        assert check_santalo_style(K, p, cfg, _GpCache(cfg)).verdict == "pass"
    C = _center_at_centroid(K)
    assert C.polar().polar() is C
    assert radial_solves == []


@pytest.mark.parametrize("restarts", [-1, 1.5, "2"])
def test_config_rejects_bad_restarts(restarts):
    with pytest.raises(InputError, match="restarts"):
        HarnessConfig(restarts=restarts)
    with pytest.raises(InputError, match="restarts"):
        HarnessConfig.from_dict({"restarts": restarts})


@pytest.mark.parametrize("order", [math.inf, math.nan])
def test_config_rejects_non_finite_orders(order):
    with pytest.raises(InputError, match="finite"):
        HarnessConfig(p_grid=(order, 1.0))


def test_reduced_suite_estimates_each_normal_form_once_per_order(monkeypatch):
    # a quadric c + A B is estimated through A^{-1} c + B, so every centered
    # ellipsoid of a dimension shares one search of the unit ball per order
    estimated, estimate = [], harness.estimate_gp

    def recorded(K, p, **kwargs):
        estimated.append((K, p))
        return estimate(K, p, **kwargs)

    monkeypatch.setattr(harness, "estimate_gp", recorded)
    cfg = HarnessConfig(dims=(2, 3), p_grid=(-1.0, 0.5), n_random=1, grid_resolution=512,
                        checks=("homogeneity", "volume_product", "isoperimetric"))
    assert run_suite(cfg).exit_status == 0
    keys = [(_body_key(K), p) for K, p in estimated]
    assert len(keys) == len(set(keys))
    quadrics = [(K, p) for K, p in estimated if isinstance(K, Ellipsoid)]
    assert all(np.array_equal(K.matrix, np.eye(K.dim)) for K, _ in quadrics)
    for n in cfg.dims:
        balls = [p for K, p in quadrics if K.dim == n and not K.center.any()]
        assert sorted(balls) == sorted(cfg.orders_for(n))
    assert any(K.center.any() for K, _ in quadrics)
    # no estimate outlives its suite: a second suite does the same work
    first = len(estimated)
    assert run_suite(cfg).exit_status == 0
    assert len(estimated) == 2 * first
