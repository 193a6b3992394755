"""Grids, surface-area measures, curvature densities."""

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
    SurfaceMeasure,
    ball,
    curvature_values,
    lp_curvature,
    make_grid,
    random_body,
    sphere_area,
    surface_measure,
    unit_ball_volume,
)


def square():
    return HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_total_weights():
    g2 = make_grid(2, 4096)
    assert g2.integrate(np.ones(g2.n_nodes)) == pytest.approx(2 * math.pi, abs=1e-12)
    g3 = make_grid(3, 4096)
    assert g3.integrate(np.ones(g3.n_nodes)) == pytest.approx(4 * math.pi, abs=1e-10)
    g4 = make_grid(4, 512)
    assert g4.integrate(np.ones(g4.n_nodes)) == pytest.approx(sphere_area(4), rel=1e-12)


def test_grid_moment_oracle_3d():
    # closed form: the integral of <u, e1>^2 over the sphere is 4*pi/3
    g3 = make_grid(3, 4096)
    assert g3.integrate(g3.nodes[:, 0] ** 2) == pytest.approx(4 * math.pi / 3, abs=1e-8)


def test_grid_trig_exactness_2d():
    g2 = make_grid(2, 256)
    for k in (1, 3, 5, 13):
        vals = np.cos(k * g2.thetas) ** 2
        assert g2.integrate(vals) == pytest.approx(math.pi, abs=1e-12)


def test_grid_rejects_tiny_resolution():
    with pytest.raises(InputError):
        make_grid(2, 4)
    with pytest.raises(InputError):
        make_grid(1, 64)


# ---------------------------------------------------------------------------
# surface measures
# ---------------------------------------------------------------------------

def test_square_atoms():
    sm = surface_measure(square())
    assert isinstance(sm, SurfaceMeasure) and sm.grid is None
    assert sm.total_mass == pytest.approx(8.0, abs=1e-13)
    np.testing.assert_allclose(sm.log_support, 0.0, atol=1e-15)   # every offset is 1
    atoms = sorted(zip(map(tuple, np.round(sm.directions, 12)), sm.masses))
    assert [a[0] for a in atoms] == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    assert all(m == pytest.approx(2.0, abs=1e-13) for _, m in atoms)


def test_ball_density_is_one():
    g = make_grid(3, 512)
    sm = surface_measure(ball(3), g)
    assert isinstance(sm, SurfaceMeasure) and sm.grid is g
    assert sm.directions is g.nodes
    np.testing.assert_allclose(sm.masses, g.weights, atol=1e-14)
    np.testing.assert_allclose(sm.log_support, 0.0, atol=1e-14)
    assert sm.total_mass == pytest.approx(4 * math.pi, abs=1e-10)


def test_ellipsoid_density_value_and_finite_difference_oracle():
    E = Ellipsoid(np.diag([2.0, 1.0]))
    assert E.curvature_values(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-14)

    # cross-check against h + h'' of h(t) = |A^T u(t)| by 5-point stencil
    def h(t):
        return np.hypot(2.0 * np.cos(t), np.sin(t))

    for t0 in (0.0, 0.4, 1.1, 2.7):
        d = 1e-3
        stencil = (-h(t0 + 2 * d) + 16 * h(t0 + d) - 30 * h(t0)
                   + 16 * h(t0 - d) - h(t0 - 2 * d)) / (12 * d * d)
        u = np.array([math.cos(t0), math.sin(t0)])
        assert E.curvature_values(u) == pytest.approx(h(t0) + stencil, abs=1e-8)


def test_measure_volume_identity():
    # (1/n) integral of h dS equals the volume
    K = random_body("polytope-hull", 3, seed=17)
    sm = surface_measure(K)
    vol = float(np.dot(K.support(sm.directions), sm.masses)) / 3.0
    assert vol == pytest.approx(K.volume(), rel=1e-12)

    g = make_grid(2, 4096)
    F = random_body("fourier2d", 2, seed=18)
    smf = surface_measure(F, g)
    quad = float(np.dot(np.exp(smf.log_support), smf.masses)) / 2.0
    assert quad == pytest.approx(F.volume(), rel=1e-9)


def test_surface_measure_translation_invariant():
    K = square()
    Kt = K.translate(np.array([0.4, -0.2]))
    a = surface_measure(K)
    b = surface_measure(Kt)
    key = lambda sm: sorted(zip(map(tuple, np.round(sm.directions, 10)), np.round(sm.masses, 10)))
    assert key(a) == key(b)


def test_shifted_ball_density_constant():
    sb = ShiftedBall([0.2, 0.1, -0.1], 1.3)
    g = make_grid(3, 512)
    np.testing.assert_allclose(curvature_values(sb, g), 1.3 ** 2, atol=1e-12)


def test_density_positivity_guard():
    # h = 1 + cos(2t)/3 is convex but its curvature touches zero
    F = FourierBody2D([1.0, 0.0, 1.0 / 3.0])
    g = make_grid(2, 512)
    with pytest.raises(DomainError):
        curvature_values(F, g)


def test_polytope_has_no_density():
    with pytest.raises(DomainError):
        curvature_values(square(), make_grid(2, 512))


def test_surface_measure_unsupported_representation():
    from geominima import UnsupportedError, random_body
    sampled = random_body("fourier2d", 2, seed=1).polar()
    with pytest.raises(UnsupportedError):
        surface_measure(sampled, make_grid(2, 512))


# ---------------------------------------------------------------------------
# Lp curvature
# ---------------------------------------------------------------------------

def test_lp_curvature_ball_is_one():
    u = np.array([0.6, 0.8])
    for p in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.0):
        assert lp_curvature(ball(2), p, u) == pytest.approx(1.0, abs=1e-14)


def test_lp_curvature_ellipsoid_algebraic_form():
    E = Ellipsoid([[2.0, 0.5], [0.0, 1.0]])
    det = abs(np.linalg.det(E.matrix))
    g = make_grid(2, 128)
    for p in (-2.5, -1.0, 0.5, 2.0):
        expected = det ** 2 * E.support(g.nodes) ** (-2 - p)
        np.testing.assert_allclose(lp_curvature(E, p, g.nodes), expected, rtol=1e-12)


def test_lp_curvature_fourier_example():
    # h = 1 + 0.1 cos(2t): curvature at t = 0 is 1.1 - 0.4 = 0.7
    F = FourierBody2D([1.0, 0.0, 0.1])
    u = np.array([1.0, 0.0])
    assert lp_curvature(F, 1.0, u) == pytest.approx(0.7, abs=1e-14)
    # p = 3 weighs by h^{-2}
    assert lp_curvature(F, 3.0, u) == pytest.approx(0.7 / 1.1 ** 2, abs=1e-14)


def test_lp_curvature_requires_curvature():
    with pytest.raises(DomainError):
        lp_curvature(square(), 1.0, np.array([1.0, 0.0]))


def test_surface_measure_serialization_shapes():
    sm = surface_measure(square())
    blob = sm.to_json()
    assert blob["type"] == "discrete"
    assert all(len(atom) == 3 for atom in blob["atoms"])   # u_x, u_y, mass
    g = make_grid(2, 128)
    smd = surface_measure(ball(2), g)
    blobd = smd.to_json()
    assert blobd["type"] == "density"
    assert blobd["grid_id"] == g.grid_id
    assert len(blobd["values"]) == g.n_nodes


def test_ellipsoid_density_integrates_to_polar_identity():
    # integral of |A^T u|^{-n} equals n omega_n / det(A)
    E = Ellipsoid(np.diag([1.7, 0.8, 1.1]))
    g = make_grid(3, 4096)
    det = abs(np.linalg.det(E.matrix))
    val = g.integrate(E.support(g.nodes) ** -3.0)
    assert val == pytest.approx(3 * unit_ball_volume(3) / det, rel=1e-9)
