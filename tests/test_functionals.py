"""Mixed volumes, surface areas, volume products, curvature images."""

import gc
import math
import sys
import threading
import weakref

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
    StarBody,
    affine_surface_area_p,
    affine_surface_area_p_variational,
    ball,
    curvature_image,
    default_grid,
    holder_cyclic_check,
    in_vp,
    mahler,
    mixed_volume_p,
    mixed_volume_p_star,
    p_surface_area,
    SphericalGrid,
    UnsupportedError,
    VPolytope,
    estimate_gp,
    gp_objective,
    random_body,
    star_body_is_convex,
    surface_measure,
    unit_ball_volume,
)
from geominima.measures import _grid_samples

P_GRID = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0)


def square():
    return HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# p-mixed volumes
# ---------------------------------------------------------------------------

def test_vp_ball_ball_is_omega():
    B = ball(2)
    for p in P_GRID:
        assert mixed_volume_p(B, B, p) == pytest.approx(math.pi, rel=1e-9)


def test_vp_square_ball_is_four():
    # every facet of the square has unit support and unit ball support
    K = square()
    for p in P_GRID:
        assert mixed_volume_p(K, ball(2), p) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_vp_self_is_volume(dim):
    for seed in range(4):
        K = random_body("polytope-hull", dim, seed=seed)
        vol = K.volume()
        for p in P_GRID:
            assert mixed_volume_p(K, K, p) == pytest.approx(vol, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_v0_is_volume_of_first_body(dim):
    for seed in range(3):
        K = random_body("polytope-hull", dim, seed=seed)
        Q = random_body("polytope-hull", dim, seed=seed + 50)
        assert mixed_volume_p(K, Q, 0.0) == pytest.approx(K.volume(), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_vp_linear_transform_rule(dim):
    rng = np.random.default_rng(31)
    K = random_body("polytope-hull", dim, seed=9)
    Q = random_body("polytope-hull", dim, seed=59)
    T = rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
    det = abs(np.linalg.det(T))
    for p in (-1.0, 0.5, 2.0):
        lhs = dim * mixed_volume_p(K.linear_map(T), Q.linear_map(T), p)
        rhs = det * dim * mixed_volume_p(K, Q, p)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_vp_smooth_body_path():
    E = Ellipsoid(np.diag([2.0, 1.0]))
    assert mixed_volume_p(E, E, 1.5) == pytest.approx(E.volume(), rel=1e-9)


# ---------------------------------------------------------------------------
# star-body mixed volumes
# ---------------------------------------------------------------------------

def test_star_unit_radial_matches_ball():
    g = default_grid(2)
    L = StarBody(g, np.ones(g.n_nodes))
    K = square()
    for p in (-1.0, 0.5, 2.0):
        assert mixed_volume_p_star(K, L, p) == pytest.approx(
            mixed_volume_p(K, ball(2), p), rel=1e-12)


def test_star_p_zero_collapses_to_volume():
    g = default_grid(2)
    F = random_body("fourier2d", 2, seed=2)
    L = StarBody(g, 1.0 + 0.3 * np.cos(3 * g.thetas))
    assert mixed_volume_p_star(F, L, 0.0, g) == pytest.approx(F.volume(), rel=1e-9)


def test_star_dual_evaluation_consistency():
    # sampling the radial function of a convex body E makes the star form
    # agree with the body form evaluated at the polar of E
    g = default_grid(2)
    E = Ellipsoid([[1.4, 0.2], [0.0, 0.9]])
    F = random_body("fourier2d", 2, seed=6)
    L = StarBody(g, E.radial(g.nodes))
    for p in (-1.0, 0.75, 2.0):
        star = mixed_volume_p_star(F, L, p, g)
        body = mixed_volume_p(F, E.polar(), p, g)
        assert star == pytest.approx(body, rel=1e-9)
    # polytope path goes through planar interpolation of the radial samples
    K = square()
    assert mixed_volume_p_star(K, L, 1.0) == pytest.approx(
        mixed_volume_p(K, E.polar(), 1.0), rel=1e-5)


def test_star_grid_mismatch_rejected():
    g = default_grid(2)
    other = default_grid(2, 512)
    L = StarBody(other, np.ones(other.n_nodes))
    F = random_body("fourier2d", 2, seed=2)
    with pytest.raises(InputError):
        mixed_volume_p_star(F, L, 1.0, g)


# ---------------------------------------------------------------------------
# p-surface area, volume product
# ---------------------------------------------------------------------------

def test_p_surface_area_values():
    assert p_surface_area(square(), 1.0) == pytest.approx(8.0, rel=1e-13)
    for p in (-1.0, 0.5, 3.0):
        assert p_surface_area(ball(2), p) == pytest.approx(2 * math.pi, rel=1e-9)
    assert p_surface_area(ball(3), 1.0) == pytest.approx(4 * math.pi, rel=1e-9)


def test_mahler_values():
    assert mahler(square()) == pytest.approx(8.0, rel=1e-13)
    assert mahler(ball(2)) == pytest.approx(math.pi ** 2, rel=1e-12)
    assert mahler(ball(3)) == pytest.approx(unit_ball_volume(3) ** 2, rel=1e-12)


def test_mahler_linear_invariance():
    rng = np.random.default_rng(12)
    K = random_body("polytope-hull", 2, seed=21)
    g = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    T = g / abs(np.linalg.det(g)) ** 0.5    # unit determinant
    assert mahler(K.linear_map(T)) == pytest.approx(mahler(K), rel=1e-8)


# ---------------------------------------------------------------------------
# affine surface area
# ---------------------------------------------------------------------------

def test_asp_ball_all_orders():
    for p in P_GRID:
        if abs(p + 2) < 0.25:
            continue
        assert affine_surface_area_p(ball(2), p) == pytest.approx(2 * math.pi, rel=1e-10)
    assert affine_surface_area_p(ball(3), 1.0) == pytest.approx(4 * math.pi, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_asp_ellipsoid_closed_form(dim):
    for seed in (1, 2):
        E = random_body("ellipsoid", dim, seed=seed)
        det = abs(np.linalg.det(E.matrix))
        omega = unit_ball_volume(dim)
        for p in (-1.0, 0.5, 2.0):
            expected = dim * omega * det ** ((dim - p) / (dim + p))
            assert affine_surface_area_p(E, p) == pytest.approx(expected, rel=1e-9)


def test_asp_zero_is_n_volume():
    for seed in (3, 4):
        F = random_body("fourier2d", 2, seed=seed)
        assert affine_surface_area_p(F, 0.0) == pytest.approx(2 * F.volume(), rel=1e-10)


def test_asp_guards():
    with pytest.raises(DomainError):
        affine_surface_area_p(ball(2), -2.0)
    with pytest.raises(DomainError):
        affine_surface_area_p(square(), 1.0)


def test_variational_form_matches_integral_and_is_optimal():
    g = default_grid(2)
    F = random_body("fourier2d", 2, seed=8)
    for p in (-3.0, -1.0, 0.5, 1.0, 2.0):
        integral = affine_surface_area_p(F, p, g)
        res = affine_surface_area_p_variational(F, p, g, trials=100, seed=5)
        assert res.value == pytest.approx(integral, rel=1e-7)
        if p > 0:
            assert np.all(res.trial_values >= res.value * (1 - 1e-12))
        else:
            assert np.all(res.trial_values <= res.value * (1 + 1e-12))


def test_variational_ball_optimizer_is_ball():
    g = default_grid(2)
    res = affine_surface_area_p_variational(ball(2), 1.0, g)
    np.testing.assert_allclose(res.optimizer.rho, 1.0, atol=1e-12)
    assert res.value == pytest.approx(2 * math.pi, rel=1e-10)


# ---------------------------------------------------------------------------
# curvature image
# ---------------------------------------------------------------------------

def test_curvature_image_ball_fixed_point():
    g = default_grid(2)
    for p in (-3.0, -1.0, 0.5, 1.0, 2.0):
        lam = curvature_image(ball(2), p, g)
        np.testing.assert_allclose(lam.rho, 1.0, atol=1e-12)


def test_curvature_image_scaling_fixed_point():
    g = default_grid(2)
    omega = unit_ball_volume(2)
    for seed in (2, 6):
        F = random_body("fourier2d", 2, seed=seed)
        for p in (-1.0, 1.0, 2.0):
            lam = curvature_image(F, p, g)
            # the defining relation: f_p = (omega / |image|) rho^{n+p}
            from geominima import lp_curvature
            fp = lp_curvature(F, p, g.nodes)
            np.testing.assert_allclose(
                fp, omega / lam.volume() * lam.rho ** (2 + p), rtol=1e-8)


def test_curvature_image_power_identity_on_ellipsoids():
    g = default_grid(2)
    omega = unit_ball_volume(2)
    E = Ellipsoid([[2.0, 0.0], [0.3, 1.0]])
    for p in (-1.0, 0.5, 1.0, 2.0):
        lam = curvature_image(E, p, g)
        lhs = affine_surface_area_p(E, p, g) ** (2 + p)
        rhs = 2 ** (2 + p) * omega ** 2 * lam.volume() ** p
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_curvature_image_rejects_p_zero():
    with pytest.raises(DomainError):
        curvature_image(ball(2), 0.0)


# ---------------------------------------------------------------------------
# membership test
# ---------------------------------------------------------------------------

def test_in_vp_ball_and_ellipsoid():
    g = default_grid(2)
    res = in_vp(ball(2), 1.0, g)
    assert res.member
    np.testing.assert_allclose(res.witness_support, 1.0, atol=1e-12)
    for p in (-1.0, 0.5, 3.0):
        assert in_vp(Ellipsoid([[3.0, 0.1], [0.0, 1.0]]), p, g).member


def test_in_vp_mild_fourier_body_is_member():
    from geominima import FourierBody2D
    g = default_grid(2)
    F = FourierBody2D([1.0, 0.0, 0.05])
    assert in_vp(F, 1.0, g).member


def test_in_vp_matches_curvature_image_convexity():
    g = default_grid(2)
    for seed in (1, 5, 9):
        F = random_body("fourier2d", 2, seed=seed)
        for p in (-1.0, 1.0, 2.0):
            member = in_vp(F, p, g).member
            assert member == star_body_is_convex(curvature_image(F, p, g))


def test_planar_convexity_tests_need_the_uniform_circle_grid():
    g = default_grid(2, 256)
    custom = SphericalGrid(2, g.nodes, g.weights)
    F = random_body("fourier2d", 2, seed=3)
    for call in (lambda: in_vp(F, 1.0, custom),
                 lambda: in_vp(ShiftedBall([0.1, 0.2, 0.0], 1.0), 1.0),
                 lambda: star_body_is_convex(StarBody(custom, np.ones(256)))):
        with pytest.raises(UnsupportedError, match="uniform circle grid"):
            call()


def test_in_vp_typical_random_bodies_fail():
    # strongly oscillating curvature is not a reciprocal support power
    g = default_grid(2)
    F = random_body("fourier2d", 2, seed=1)
    assert not in_vp(F, 1.0, g).member


# ---------------------------------------------------------------------------
# cyclic interpolation bound
# ---------------------------------------------------------------------------

def test_holder_equality_on_ball():
    res = holder_cyclic_check(ball(2), ball(2), 1.0, 0.0, 2.0)
    assert abs(res.margin) <= 1e-12 * res.rhs


def test_holder_frozen_square_vs_ellipse():
    # atoms: +-e1 (support 2), +-e2 (support 1), each mass 2
    # nV_r = 4 * 2^r + 4; at (r,s,t) = (1,0,2): rhs = sqrt(8 * 20)
    K = square()
    Q = Ellipsoid(np.diag([2.0, 1.0]))
    res = holder_cyclic_check(K, Q, 1.0, 0.0, 2.0)
    assert res.lhs == pytest.approx(12.0, rel=1e-14)
    assert res.rhs == pytest.approx(math.sqrt(160.0), rel=1e-14)
    assert res.margin == pytest.approx(math.sqrt(160.0) - 12.0, rel=1e-12)


def test_holder_exponent_constraint():
    with pytest.raises(InputError):
        holder_cyclic_check(square(), ball(2), 3.0, 0.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.5, 5.5), st.floats(-3.5, 5.5), st.floats(-3.5, 5.5))
def test_holder_margin_nonnegative_random_orders(r, s, t):
    if not (abs(t - s) > 1e-6 and 0.01 < (t - r) / (t - s) < 0.99):
        return
    K = random_body("polytope-hull", 2, seed=33)
    Q = random_body("polytope-hull", 2, seed=77)
    res = holder_cyclic_check(K, Q, r, s, t)
    assert res.margin >= -1e-9 * res.rhs


def test_extreme_support_span_rejected():
    # support values spanning more than 12 decades are refused outright
    Q = Ellipsoid(np.diag([1e7, 1e-6]))
    with pytest.raises(DomainError):
        mixed_volume_p(square(), Q, 2.0)


def test_jensen_direction_for_shifted_balls():
    omega = math.pi
    for mag in (0.2, 0.6):
        K = ShiftedBall([mag, 0.0], 1.0)
        for p in (0.25, 0.5, 0.75):
            assert mixed_volume_p(K, ball(2), p) < omega
        for p in (-0.5, -1.0, -1.5):
            assert mixed_volume_p(K, ball(2), p) > omega


# ---------------------------------------------------------------------------
# non-finite orders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_orders_are_input_errors(p):
    E, F = Ellipsoid(np.diag([1.5, 0.8])), random_body("fourier2d", 2, seed=5)
    for call in (lambda: mixed_volume_p(square(), ball(2), p),
                 lambda: mixed_volume_p(F, ball(2), p),
                 lambda: p_surface_area(E, p),
                 lambda: affine_surface_area_p(F, p),
                 lambda: in_vp(E, p),
                 lambda: in_vp(F, p),
                 lambda: curvature_image(E, p),
                 lambda: mixed_volume_p_star(E, curvature_image(E, 1.0), p)):
        with pytest.raises(InputError, match="not a finite number"):
            call()


# ---------------------------------------------------------------------------
# grid samples: f_K and log h_K are sampled once per body and grid
# ---------------------------------------------------------------------------

COMPUTE_ORDERS = (-4.0, -1.5, -0.5, 0.0, 1.0, 2.0)


def _compute_all(make, grid):
    """The seven quantities of ``geominima compute`` at COMPUTE_ORDERS, each
    computed on the body make() returns."""
    out = [make().volume(), make().polar().volume(), mahler(make())]
    for p in COMPUTE_ORDERS:
        out += [mixed_volume_p(make(), ball(grid.dim), p, grid),
                p_surface_area(make(), p, grid),
                affine_surface_area_p(make(), p, grid),
                in_vp(make(), p, grid).member]
    return out


def test_compute_samples_a_fourier_body_once_per_grid(calls):
    F = random_body("fourier2d", 2, seed=5)
    curvature = calls(FourierBody2D, "curvature_values")
    support = calls(FourierBody2D, "support")
    grid = default_grid(2)
    _compute_all(lambda: F, grid)
    _compute_all(lambda: F, grid)
    assert curvature == [4096] and support == [4096]


@pytest.mark.parametrize("make", [
    lambda: random_body("fourier2d", 2, seed=5),
    lambda: ShiftedBall([0.3, -0.2], 1.1),
    lambda: Ellipsoid(np.diag([2.0, 1.0, 0.75])),
], ids=["fourier2d", "shifted-ball2", "ellipsoid3"])
def test_kept_samples_give_the_values_of_a_fresh_body_bit_for_bit(make):
    K = make()
    grid = default_grid(K.dim)
    fresh = _compute_all(make, grid)
    assert _compute_all(lambda: K, grid) == fresh
    assert _compute_all(lambda: K, grid) == fresh


def test_a_second_grid_gets_its_own_samples(calls):
    F = random_body("fourier2d", 2, seed=5)
    support = calls(FourierBody2D, "support")
    g1, g2 = default_grid(2, 512), default_grid(2, 1024)
    # same grid id as g1, other nodes: keyed on the grid object, not its id
    g3 = SphericalGrid(2, g1.nodes[::-1].copy(), g1.weights, kind=g1.kind,
                       thetas=g1.thetas[::-1].copy())
    values = [affine_surface_area_p(F, 0.5, g) for g in (g1, g2, g3)]
    assert support == [512, 1024, 512]
    assert [affine_surface_area_p(F, 0.5, g) for g in (g1, g2, g3)] == values
    assert support == [512, 1024, 512]
    assert values == [affine_surface_area_p(FourierBody2D(F.a, F.b), 0.5, g)
                      for g in (g1, g2, g3)]


def test_failed_curvature_sample_raises_on_every_call(calls):
    F = FourierBody2D([1.0, 0.0, 1.0 / 3.0])   # curvature touches zero
    curvature = calls(FourierBody2D, "curvature_values")
    support = calls(FourierBody2D, "support")
    for _ in range(2):
        for call in (lambda: affine_surface_area_p(F, 1.0),
                     lambda: mixed_volume_p(F, ball(2), 1.0),
                     lambda: surface_measure(F)):
            with pytest.raises(DomainError, match="curvature"):
                call()
    # curvature is checked first, so no support value is sampled
    assert curvature == [4096] * 6 and support == []


def test_failed_support_sample_raises_on_every_call(calls, monkeypatch):
    F = random_body("fourier2d", 2, seed=5)
    monkeypatch.setattr(FourierBody2D, "support", lambda self, u: -np.ones(len(u)))
    curvature = calls(FourierBody2D, "curvature_values")
    support = calls(FourierBody2D, "support")
    for _ in range(2):
        with pytest.raises(DomainError, match="support values"):
            affine_surface_area_p(F, 1.0)
    # the curvature samples passed and are kept; the support samples are not
    assert curvature == [4096] and support == [4096, 4096]
    with pytest.raises(DomainError, match="support values"):
        surface_measure(F)


def test_kept_samples_are_read_only():
    F = random_body("fourier2d", 2, seed=5)
    grid = default_grid(2)
    _, f, log_h = _grid_samples(F, grid)
    assert surface_measure(F, grid).log_support is log_h
    assert _grid_samples(F, grid)[1] is f
    for arr in (log_h, f):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_one_body_and_grid_share_one_sample_of_f_and_h(calls):
    F = random_body("fourier2d", 2, seed=5)
    grid = default_grid(2, 512)
    curvature = calls(FourierBody2D, "curvature_values")
    support = calls(FourierBody2D, "support")
    surface_measure(F, grid)
    mixed_volume_p(F, ball(2), 0.5, grid)
    p_surface_area(F, -1.0, grid)
    affine_surface_area_p(F, 2.0, grid)
    in_vp(F, 1.0, grid)
    assert curvature == [512] and support == [512]
    estimate_gp(F, 0.5, restarts=2, grid=grid)
    # estimate_gp reads the kept samples too, also h_Q at the fixed candidate
    # Q = K, which is not resampled; it adds only the samples of its witness
    # check on the grid with four times the nodes
    assert curvature == [512, 2048] and support == [512, 2048]


def test_mixed_volumes_at_all_orders_sample_h_q_once(calls):
    F = random_body("fourier2d", 2, seed=5)
    # a fresh ellipsoid: the shared ball(2) may already hold its samples
    Q = Ellipsoid([[1.5, 0.0], [0.0, 0.8]])
    support = calls(Ellipsoid, "support")
    grid = default_grid(2)
    values = [mixed_volume_p(F, Q, p, grid) for p in COMPUTE_ORDERS]
    assert support == [4096]
    fresh = Ellipsoid([[1.5, 0.0], [0.0, 0.8]])
    assert values == [mixed_volume_p(F, fresh, p, grid) for p in COMPUTE_ORDERS]
    assert support == [4096, 4096]


def test_the_shared_ball_keeps_no_grid_alive():
    # ball(2) lives as long as the process; its sample on a grid must not
    # keep the grid alive after the caller has dropped it
    g = default_grid(2, 256)
    grid = SphericalGrid(2, g.nodes.copy(), g.weights, kind=g.kind, thetas=g.thetas)
    p_surface_area(random_body("fourier2d", 2, seed=5), 2.0, grid)
    kept = weakref.ref(grid)
    del grid
    gc.collect()
    assert kept() is None


def test_a_polytope_samples_h_q_once_at_its_facet_normals(calls):
    K = random_body("polytope-hull", 3, seed=1)
    assert isinstance(K, VPolytope)
    # a fresh ellipsoid: the shared ball(3) may already hold its samples
    Q = Ellipsoid(np.diag([1.5, 0.8, 1.1]))
    support = calls(Ellipsoid, "support")
    values = [mixed_volume_p(K, Q, p) for p in COMPUTE_ORDERS]
    objective = gp_objective(K, Q, 1.0)
    assert support == [K.facet_data()[0].shape[0]]
    fresh = Ellipsoid(np.diag([1.5, 0.8, 1.1]))
    assert values == [mixed_volume_p(K, fresh, p) for p in COMPUTE_ORDERS]
    assert objective == gp_objective(K, fresh, 1.0)


def test_the_shared_ball_keeps_no_polytope_alive():
    # ball(3) keeps its samples at K's facet normals; they must not keep K alive
    K = random_body("polytope-hull", 3, seed=1)
    p_surface_area(K, 1.0)
    kept = weakref.ref(K)
    del K
    gc.collect()
    assert kept() is None


def test_threads_share_the_ball_and_its_samples():
    # a grid the shared ball has never seen, so the threads race to sample it
    g = default_grid(2, 256)
    grid = SphericalGrid(2, g.nodes.copy(), g.weights, kind=g.kind, thetas=g.thetas)
    F = random_body("fourier2d", 2, seed=5)
    want = [p_surface_area(FourierBody2D(F.a, F.b), p, g) for p in COMPUTE_ORDERS]
    results = {}

    def work(i):
        results[i] = [p_surface_area(F, p, grid) for p in COMPUTE_ORDERS]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(8)] == [want] * 8


@pytest.mark.parametrize("make", [
    lambda: random_body("fourier2d", 2, seed=5).polar(),
], ids=["fourier-polar"])
def test_a_body_without_a_surface_measure_is_unsupported(make):
    K = make()
    for call in (lambda: surface_measure(K),
                 lambda: mixed_volume_p(K, ball(2), 0.5),
                 lambda: p_surface_area(K, 1.0),
                 lambda: gp_objective(K, ball(2), 0.5)):
        with pytest.raises(UnsupportedError, match="no surface-area measure"):
            call()
