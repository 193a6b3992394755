"""Body representations: supports, radials, polarity, volumes, transforms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from geominima import (
    DomainError,
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    InputError,
    SampledBody2D,
    ShiftedBall,
    UnsupportedError,
    VPolytope,
    ball,
    body_from_json,
    random_body,
)
from geominima.bodies import _grid_trig, _trig
from geominima.harness import HarnessConfig, suite_bodies

SQ2 = math.sqrt(2.0)


def square():
    return HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


def circle_dirs(n=256):
    t = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(t), np.sin(t)])


def sphere_dirs(m=200, seed=0):
    g = np.random.default_rng(seed).standard_normal((m, 3))
    return g / np.linalg.norm(g, axis=1)[:, None]


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# support / radial
# ---------------------------------------------------------------------------

def test_support_examples():
    assert ball(2).support(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert Ellipsoid(np.diag([2.0, 1.0])).support(np.array([1.0, 0.0])) == pytest.approx(2.0)
    u = np.array([1.0, 1.0]) / SQ2
    assert square().support(u) == pytest.approx(SQ2, abs=1e-14)


def test_support_rejects_non_unit():
    with pytest.raises(InputError):
        square().support(np.array([1.0, 1.0]))


def test_radial_examples():
    assert ball(2).radial(np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert square().radial(np.array([1.0, 0.0])) == pytest.approx(1.0)
    # ray-edge intersection: t*(cos45, sin45) hits x = 1 at t = sqrt(2)
    u = np.array([1.0, 1.0]) / SQ2
    assert square().radial(u) == pytest.approx(SQ2, abs=1e-14)


# ---------------------------------------------------------------------------
# polar duality
# ---------------------------------------------------------------------------

def test_polar_square_is_cross_polytope():
    cross = square().polar()
    assert isinstance(cross, VPolytope)
    verts = sorted(map(tuple, np.round(cross.vertices, 12).tolist()))
    assert verts == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_polar_ball_self_dual():
    u = circle_dirs()
    np.testing.assert_allclose(ball(2).polar().support(u), 1.0, atol=1e-14)


def test_polar_ellipsoid_inverse_axes():
    E = Ellipsoid(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(E.polar().matrix, np.diag([0.5, 1.0]), atol=1e-14)


@pytest.mark.parametrize("K", [
    square(),
    square().polar(),
    Ellipsoid([[2.0, 0.3], [0.0, 1.0]]),
    ShiftedBall([0.3, -0.2], 1.1),
    Ellipsoid([[1.5, 0.2], [0.0, 0.9]], [0.2, 0.1]),
], ids=["h-poly", "v-poly", "ellipsoid", "shifted-ball", "shifted-ellipsoid"])
def test_duality_product_and_bipolar_2d(K):
    u = circle_dirs()
    Kp = K.polar()
    np.testing.assert_allclose(K.radial(u) * Kp.support(u), 1.0, atol=1e-10)
    np.testing.assert_allclose(Kp.polar().support(u), K.support(u), atol=1e-9)


def test_duality_product_and_bipolar_3d():
    u = sphere_dirs()
    for K in (VPolytope(np.vstack([np.eye(3), -np.eye(3)])),
              Ellipsoid(np.diag([2.0, 1.0, 0.75])),
              ShiftedBall([0.2, -0.1, 0.1], 1.0)):
        Kp = K.polar()
        np.testing.assert_allclose(K.radial(u) * Kp.support(u), 1.0, atol=1e-10)
        np.testing.assert_allclose(Kp.polar().support(u), K.support(u), atol=1e-9)


def _support_from_radial(radial_fn, phi, refine=60):
    """Independent support oracle: maximize rho(t) cos(t - phi) over t."""
    t = np.linspace(phi - np.pi / 2, phi + np.pi / 2, 721)
    vals = radial_fn(t) * np.cos(t - phi)
    i = int(np.argmax(vals))
    lo, hi = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(refine):
        fc = radial_fn(np.array([c]))[0] * math.cos(c - phi)
        fd = radial_fn(np.array([d]))[0] * math.cos(d - phi)
        if fc > fd:
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    m = 0.5 * (a + b)
    return radial_fn(np.array([m]))[0] * math.cos(m - phi)


def test_fourier_duality_against_independent_oracle():
    F = random_body("fourier2d", 2, seed=3)
    Fp = F.polar()
    # polar radial is 1/h in closed form; maximize it independently
    for phi in (0.0, 0.7, 2.1, 4.0):
        u = np.array([math.cos(phi), math.sin(phi)])
        h_poly = _support_from_radial(lambda t: 1.0 / F.support_angle(t), phi)
        assert F.radial(u) * h_poly == pytest.approx(1.0, abs=1e-10)
        # off grid nodes the sampled polar interpolates; on nodes it is exact
        assert Fp.support(u) == pytest.approx(h_poly, abs=1e-6)
    node_u = np.column_stack([np.cos(Fp.thetas), np.sin(Fp.thetas)])
    np.testing.assert_allclose(F.radial(node_u) * Fp.support(node_u), 1.0, atol=1e-10)


def test_fourier_bipolar_node_exact(radial_solves):
    # K polar polar = K: the bipolar is the body itself, exact everywhere,
    # and taking it solves no radial sample
    F = random_body("fourier2d", 2, seed=5)
    assert F.polar().polar() is F
    assert radial_solves == []
    # the polar of a plain sampled body is sampled, and exact at its nodes
    Sp = _eager_fourier_polar(F).polar()
    u = np.column_stack([np.cos(Sp.thetas), np.sin(Sp.thetas)])
    np.testing.assert_allclose(Sp.h_values, F.support(u), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
def test_duality_square_any_direction(phi):
    u = np.array([math.cos(phi), math.sin(phi)])
    u /= np.linalg.norm(u)
    K = square()
    assert K.radial(u) * K.polar().support(u) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def test_volume_examples():
    assert ball(2).volume() == pytest.approx(math.pi, rel=1e-15)
    assert square().volume() == pytest.approx(4.0, abs=1e-13)
    cross = square().polar()
    assert cross.volume() == pytest.approx(shoelace(cross.vertices), abs=1e-13)
    assert cross.volume() == pytest.approx(2.0, abs=1e-13)


def test_volume_3d_cube_and_octahedron():
    cube = HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    assert cube.volume() == pytest.approx(8.0, abs=1e-12)
    assert cube.polar().volume() == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_volume_quadrature_consistency_polygon():
    K = random_body("polytope-hull", 2, seed=11)
    t = 2 * np.pi * np.arange(8192) / 8192
    u = np.column_stack([np.cos(t), np.sin(t)])
    rho = K.radial(u)
    quad = 0.5 * (2 * np.pi / 8192) * np.sum(rho ** 2)
    assert quad == pytest.approx(K.volume(), rel=1e-6)


def test_fourier_volume_matches_boundary_quadrature():
    F = random_body("fourier2d", 2, seed=7)
    t = 2 * np.pi * np.arange(4096) / 4096
    h = F.support_angle(t)
    fk = h + F.support_angle(t, order=2)
    quad = 0.5 * (2 * np.pi / 4096) * np.sum(h * fk)
    assert F.volume() == pytest.approx(quad, rel=1e-12)


def test_polytope_4d_volume_unsupported():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    K = VPolytope(pts)
    with pytest.raises(UnsupportedError):
        K.volume()


# ---------------------------------------------------------------------------
# linear maps and translations
# ---------------------------------------------------------------------------

def test_linear_map_identity_and_ball_image():
    K = square()
    u = circle_dirs()
    np.testing.assert_allclose(K.linear_map(np.eye(2)).support(u), K.support(u), atol=1e-12)
    img = ball(2).linear_map(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(img.support(u), Ellipsoid(np.diag([2.0, 1.0])).support(u),
                               atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_map_volume_scaling(dim):
    rng = np.random.default_rng(4)
    K = random_body("polytope-hull", dim, seed=13)
    T = rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
    assert K.linear_map(T).volume() == pytest.approx(
        abs(np.linalg.det(T)) * K.volume(), rel=1e-10)


def test_linear_map_support_rule():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    u = circle_dirs(64)
    for K in (square(), Ellipsoid([[1.5, 0.2], [0.0, 0.8]])):
        TK = K.linear_map(T)
        w = u @ T
        lens = np.linalg.norm(w, axis=1)
        expected = lens * K.support(w / lens[:, None])
        np.testing.assert_allclose(TK.support(u), expected, atol=1e-10)


def test_linear_map_rejects_singular():
    with pytest.raises(InputError):
        square().linear_map(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_translate_examples():
    K = square()
    u = circle_dirs(32)
    np.testing.assert_allclose(K.translate(np.zeros(2)).support(u), K.support(u), atol=1e-14)
    shifted = ball(2).translate(np.array([0.5, 0.0]))
    rep = shifted.to_json()["repr"]
    assert rep["type"] == "shifted-ball" and rep["radius"] == 1.0
    np.testing.assert_allclose(rep["center"], [-0.5, 0.0])
    np.testing.assert_allclose(shifted.support(u), 1.0 - 0.5 * u[:, 0], atol=1e-14)
    sq_shift = K.translate(np.array([0.5, 0.0]))
    assert sq_shift.support(np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert sq_shift.support(np.array([-1.0, 0.0])) == pytest.approx(1.5)


def test_translate_out_of_body_raises():
    with pytest.raises(DomainError):
        square().translate(np.array([1.5, 0.0]))
    with pytest.raises(DomainError):
        ball(2).translate(np.array([0.9999999999, 0.0]))


def test_fourier_translate_is_exact_coefficient_shift():
    F = random_body("fourier2d", 2, seed=9)
    z = np.array([0.1, -0.05])
    G = F.translate(z)
    t = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    np.testing.assert_allclose(
        G.support_angle(t),
        F.support_angle(t) - z[0] * np.cos(t) - z[1] * np.sin(t), atol=1e-14)


# ---------------------------------------------------------------------------
# centroid and Santalo point
# ---------------------------------------------------------------------------

def test_centroid_examples():
    assert np.allclose(Ellipsoid([[2.0, 0.4], [0.0, 1.0]]).centroid(), 0.0)
    assert np.allclose(square().centroid(), 0.0, atol=1e-14)
    tri = VPolytope([[-1, -1], [3, -1], [-1, 3]])
    np.testing.assert_allclose(tri.centroid(), [1 / 3, 1 / 3], atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_centroid_equivariance(dim):
    rng = np.random.default_rng(6)
    for seed in (21, 22, 23):
        K = random_body("polytope-hull", dim, seed=seed)
        T = rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
        np.testing.assert_allclose(K.linear_map(T).centroid(), T @ K.centroid(), atol=1e-8)


def _centroid_3d_loop(vs):
    """Reference: the 3-D centroid as a sum over the hull's simplices, one at a time."""
    total, acc = 0.0, np.zeros(3)
    for simplex in ConvexHull(vs).simplices:
        a, b, c = vs[simplex]
        vol = np.linalg.det(np.stack([a, b, c])) / 6.0
        if vol < 0:
            b, c = c, b
            vol = -vol
        total += vol
        acc += vol * (a + b + c) / 4.0
    return acc / total


def test_centroid_3d_matches_simplex_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for count in (4, 12, 60, 250):
        K = VPolytope(rng.standard_normal((count, 3)) * rng.uniform(0.01, 100) + 0.1)
        np.testing.assert_array_equal(K.centroid(), _centroid_3d_loop(K.vertices))
    K = random_body("polytope-hull", 3, seed=42)
    np.testing.assert_array_equal(K.polar().centroid(), _centroid_3d_loop(K.polar().vertices))


def test_centroid_3d_reuses_the_hull_of_construction(calls):
    import geominima.bodies as bodies
    K = random_body("polytope-hull", 3, seed=42)
    P = K.polar()
    hulls = calls(bodies, "ConvexHull", arg=0)
    K.centroid(), P.centroid()
    assert hulls == []
    # points inside the hull: the centroid takes the hull of the vertices
    rng = np.random.default_rng(3)
    V = VPolytope(np.vstack([rng.standard_normal((30, 3)), 0.01 * np.eye(3)]))
    assert len(V.vertices) < 33
    hulls.clear()
    V.centroid()
    assert hulls == [len(V.vertices)]


def test_support_angle_reads_an_int_as_an_angle():
    F = random_body("fourier2d", 2, seed=5)
    for theta in (0, 1, 2):
        assert F.support_angle(theta) == F.support_angle(float(theta))
    assert F.support_angle(1) != F.support_angle(0)


@pytest.mark.parametrize("n_nodes", [8, 2048, 4096, 8192])
@pytest.mark.parametrize("seed", [0, 5])
def test_grid_trig_is_trig_at_the_uniform_nodes(n_nodes, seed):
    # 11 coefficients: on 8 nodes the frequencies past 4 fold onto their aliases
    F = random_body("fourier2d", 2, seed=seed)
    thetas = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    for want, got in zip(_trig(F.a, F.b, thetas, 0, 1, 2), _grid_trig(F.a, F.b, n_nodes, 0, 1, 2)):
        assert got.shape == (n_nodes,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# random bodies and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,dim", [
    ("polytope-hull", 2), ("polytope-hull", 3),
    ("ellipsoid", 2), ("ellipsoid", 3),
    ("fourier2d", 2), ("shifted-ball", 2), ("shifted-ball", 3),
])
def test_random_body_deterministic_and_valid(kind, dim):
    K1 = random_body(kind, dim, seed=42)
    K2 = random_body(kind, dim, seed=42)
    assert json.dumps(K1.to_json()) == json.dumps(K2.to_json())


def test_random_polytope_recentered_offsets_positive():
    K = random_body("polytope-hull", 2, size=12, seed=3)
    _, offsets, _ = K.facet_data()
    assert np.all(offsets > 0)
    assert np.allclose(K.centroid(), 0.0, atol=1e-12)


def test_random_ellipsoid_nonsingular():
    E = random_body("ellipsoid", 3, seed=8)
    assert abs(np.linalg.det(E.matrix)) > 1e-6


def test_random_fourier_convexity_floor():
    F = random_body("fourier2d", 2, seed=12)
    t = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    h = F.support_angle(t)
    fk = h + F.support_angle(t, order=2)
    assert np.min(fk) >= 0.01 * np.min(h) - 1e-12


@pytest.mark.parametrize("maker", [
    lambda: square(),
    lambda: VPolytope([[1.1, 0], [0, 0.9], [-1, 0.1], [-0.1, -1.2]]),
    lambda: Ellipsoid([[2.0, 0.3], [-0.1, 1.0]]),
    lambda: random_body("fourier2d", 2, seed=4),
    lambda: ShiftedBall([0.25, -0.3], 1.0),
], ids=["h-poly", "v-poly", "ellipsoid", "fourier", "shifted-ball"])
def test_json_round_trip_bit_exact(maker):
    K = maker()
    blob = json.dumps(K.to_json())
    K2 = body_from_json(json.loads(blob))
    assert json.dumps(K2.to_json()) == blob


def test_degenerate_bodies_rejected():
    with pytest.raises(DomainError):
        VPolytope([[1e-9, 1e-9], [1, 0], [0, 1]])   # origin on the boundary
    with pytest.raises(InputError):
        HPolytope([[1, 0], [0, 1]], [1, 1])         # unbounded
    with pytest.raises(InputError):
        HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 1, 1])
    with pytest.raises(DomainError):
        ShiftedBall([1.0, 0.0], 1.0)
    with pytest.raises(InputError):
        FourierBody2D([1.0, 0.0, 0.8])               # h + h'' < 0


# ---------------------------------------------------------------------------
# quadrics: one class, three JSON type names
# ---------------------------------------------------------------------------

# files written before the quadric classes were merged, one per type name
PARENT_JSON = [
    '{"dim": 2, "repr": {"type": "h-polytope", "normals": [[1.0, 0.0], [-1.0, 0.0], '
    '[0.0, 1.0], [0.0, -1.0], [0.6, 0.8]], "offsets": [1.0, 1.0, 1.0, 1.0, 1.1]}}',
    '{"dim": 2, "repr": {"type": "v-polytope", "vertices": [[-1.0, -1.0], [2.0, -1.0], '
    '[-1.0, 2.0]]}}',
    '{"dim": 3, "repr": {"type": "ellipsoid", "matrix": [[0.8874756101963623, '
    '0.03446119450464961, 0.20952978757934138], [0.03446119450464965, 1.2284805115476054, '
    '-0.12201435533578585], [0.2095297875793413, -0.12201435533578588, 0.916504467813676]]}}',
    '{"dim": 2, "repr": {"type": "fourier2d", "a": [1.0, -0.032589557630584486, '
    '0.062389649677169874, -0.027356621576410778, -0.005844972571766188], "b": [0.0, '
    '-0.008735864616288858, 0.024718040618709563, -8.672106953219962e-05, '
    '0.0013934205304877469]}}',
    '{"dim": 3, "repr": {"type": "shifted-ball", "center": [-0.049765743785631505, '
    '-0.009332742022500975, 0.015799167795536747], "radius": 1.4050029237453803}}',
    '{"dim": 2, "repr": {"type": "shifted-ellipsoid", "matrix": [[1.0012052662510902, '
    '-0.025969878401142572], [-0.02596987840114255, 0.9795637009168048]], "center": '
    '[-0.27777777777777773, 0.18518518518518517]}}',
    '{"dim": 2, "repr": {"type": "shifted-ellipsoid", "matrix": [[1.5, 0.2], [0.0, 0.9]], '
    '"center": [-0.1, 0.2]}}',
    '{"dim": 2, "repr": {"type": "sampled2d", "support": [1.0366221118067558, '
    '0.9176592593563242, 0.8605866227484651, 0.9898050108636662, 1.2120899583214206, '
    '1.1587212821916457, 0.9715186233463787, 1.055583011820854], "radial": '
    '[1.0269020958908623, 0.9100370385507055, 0.8605575652658116, 0.9446163680822512, '
    '1.1980345837488326, 1.122591168931261, 0.9713834554242481, 1.050733004006488]}}',
]


def test_json_round_trip_all_type_names():
    names = {json.loads(blob)["repr"]["type"] for blob in PARENT_JSON}
    assert len(names) == 7
    # every body the harness meets is keyed and reported by its JSON form
    suite = [K for dim in (2, 3) for K in suite_bodies(HarnessConfig(), dim).values()]
    blobs = PARENT_JSON + [json.dumps(K.to_json()) for K in suite + [_fourier().polar()]]
    for blob in blobs:
        assert json.dumps(body_from_json(json.loads(blob)).to_json()) == blob


def test_a_fourier_body_has_no_linear_image():
    with pytest.raises(UnsupportedError, match="no linear image"):
        _fourier().linear_map(np.eye(2))


def test_quadric_type_name_follows_content():
    def kind(K):
        return K.to_json()["repr"]["type"]

    assert kind(ShiftedBall([0.0, 0.0], 2.0)) == "ellipsoid"
    assert kind(Ellipsoid(np.diag([2.0, 2.0]), [0.1, 0.0])) == "shifted-ball"
    assert kind(Ellipsoid(np.diag([2.0, 1.0]), [0.1, 0.0])) == "shifted-ellipsoid"
    assert kind(Ellipsoid(-np.eye(2), [0.1, 0.0])) == "shifted-ellipsoid"
    assert kind(ShiftedBall([0.2, 0.1], 1.0).polar()) == "shifted-ellipsoid"
    assert ShiftedBall([0.3, -0.2], 1.1).to_json()["repr"] == {
        "type": "shifted-ball", "center": [0.3, -0.2], "radius": 1.1}


def test_shifted_ball_is_an_ellipsoid_with_closed_forms():
    K = ShiftedBall([0.3, -0.2], 1.1)
    u = circle_dirs()
    np.testing.assert_allclose(K.support(u), 1.1 + u @ [0.3, -0.2], rtol=1e-15)
    s = u @ [0.3, -0.2]
    np.testing.assert_allclose(K.radial(u), s + np.sqrt(s ** 2 + 1.1 ** 2 - 0.13), rtol=1e-14)
    np.testing.assert_allclose(K.curvature_values(u), 1.1, rtol=1e-14)
    assert K.volume() == pytest.approx(math.pi * 1.1 ** 2, rel=1e-15)
    np.testing.assert_allclose(K.centroid(), [0.3, -0.2])
    with pytest.raises(InputError, match="radius must be positive"):
        ShiftedBall([0.0, 0.0], -1.0)
    with pytest.raises(DomainError):
        Ellipsoid(np.diag([2.0, 1.0]), [0.0, 1.0])   # origin on the boundary


@pytest.mark.parametrize("make", [
    lambda: Ellipsoid("abc"),
    lambda: Ellipsoid([[math.nan, 0.0], [0.0, 1.0]]),
    lambda: Ellipsoid([[1e200, 0.0], [0.0, 1e200]]),
    lambda: Ellipsoid(np.eye(2), [0.1]),
    lambda: ShiftedBall([0.1, 0.0], [1.0, 2.0]),
    lambda: HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, math.nan, 1, 1]),
    lambda: HPolytope([[1, 0], [-1, 0]], 1.0),
    lambda: VPolytope([[1, 0], [0, 1], [-1, "x"]]),
    lambda: VPolytope([[1, 0], [0, 1], [-1, -1, 0]]),
    lambda: FourierBody2D([]),
    lambda: FourierBody2D([1.0, math.inf]),
    lambda: body_from_json({"repr": {"type": "ellipsoid"}}),
    lambda: body_from_json({"repr": ["ellipsoid"]}),
    lambda: body_from_json({"repr": {"type": ["ellipsoid"]}}),
    lambda: body_from_json({"repr": {"type": "fourier2d", "a": [1.0], "b": {}}}),
])
def test_malformed_input_is_an_input_error(make):
    with pytest.raises(InputError):
        make()


# the per-row loops that the array versions replaced, kept as references

def _normal_merge_reference(normals, offsets):
    keep_n, keep_h = [], []
    for u, h in zip(normals, offsets):
        for i, v in enumerate(keep_n):
            if np.dot(u, v) >= 1.0 - 1e-12:
                keep_h[i] = min(keep_h[i], h)
                break
        else:
            keep_n.append(u)
            keep_h.append(h)
    return np.array(keep_n), np.array(keep_h)


def _facet_merge_reference(vertices):
    # merges by tolerance, not by equal qhull planes: distinct planes through
    # lattice points are far apart, so on lattice points both rules must agree
    hull = ConvexHull(vertices)
    reps, offs, areas = [], [], []
    for simplex, eq in zip(hull.simplices, hull.equations):
        normal, offset = eq[:3], -eq[3]
        a, b, c = vertices[simplex]
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        for i, rep in enumerate(reps):
            if np.dot(rep, normal) >= 1.0 - 1e-10 and \
                    abs(offs[i] - offset) <= 1e-9 * (1 + abs(offset)):
                areas[i] += area
                break
        else:
            reps.append(normal)
            offs.append(offset)
            areas.append(area)
    return np.array(reps), np.array(offs), np.array(areas)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-6]))
def test_normal_merge_matches_reference(seed, dim, eps):
    rng = np.random.default_rng(seed)
    base = np.vstack([np.eye(dim), -np.eye(dim), rng.standard_normal((4, dim))])
    normals = np.repeat(base, 3, axis=0) + eps * rng.standard_normal((3 * len(base), dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    order = rng.permutation(len(normals))
    normals, offsets = normals[order], rng.uniform(0.5, 1.5, len(normals))
    K = HPolytope(normals, offsets)
    ref_n, ref_h = _normal_merge_reference(normals, offsets)
    np.testing.assert_array_equal(K.normals, ref_n)
    np.testing.assert_array_equal(K.offsets, ref_h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(8, 60))
def test_facet_merge_matches_reference(seed, m):
    rng = np.random.default_rng(seed)
    # lattice points give many coplanar simplices; the cube keeps 0 inside
    pts = np.vstack([rng.integers(-3, 4, (m, 3)), [[s, t, u] for s in (-1, 1)
                     for t in (-1, 1) for u in (-1, 1)]]).astype(float)
    K = VPolytope(pts)
    for got, want in zip(K.facet_data(), _facet_merge_reference(pts)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("lift, facets", [([0.0, 0.0, 1e-9], 7), ([1e-9] * 3, 9)],
                         ids=["along-z", "along-diagonal"])
def test_nearly_coplanar_triangles_stay_separate_facets(lift, facets):
    # lifting the cube vertex (1, 1, 1) by 1e-9 bends each cube face whose
    # plane it leaves into two triangles, whose planes differ by about 1e-9
    V = np.array([[s, t, u] for s in (-1.0, 1.0) for t in (-1.0, 1.0) for u in (-1.0, 1.0)])
    V[-1] += lift
    K = VPolytope(V)
    assert len(K.facet_data()[0]) == facets
    hull = ConvexHull(K.vertices)
    assert abs(K.volume() - hull.volume) <= 1e-12
    duals = hull.equations[:, :3] / -hull.equations[:, 3:]
    assert abs(K.polar().volume() - ConvexHull(duals).volume) <= 1e-12


# ---------------------------------------------------------------------------
# non-finite and huge input
# ---------------------------------------------------------------------------

def _fourier():
    return random_body("fourier2d", 2, seed=3)


BODY_MAKERS = {
    "h-poly": square,
    "v-poly": lambda: square().polar(),
    "ellipsoid": lambda: Ellipsoid([[2.0, 0.3], [0.0, 1.0]]),
    "shifted-ball": lambda: ShiftedBall([0.3, -0.2], 1.1),
    "fourier": _fourier,
    "sampled": lambda: _fourier().polar(),
}


@pytest.mark.parametrize("name", BODY_MAKERS)
@pytest.mark.parametrize("u", [[math.nan, math.nan], [math.nan, 0.0],
                               [[1.0, 0.0], [math.inf, 0.0]]],
                         ids=["nan-nan", "nan-zero", "batch-inf"])
def test_non_finite_directions_are_input_errors(name, u):
    K = BODY_MAKERS[name]()
    methods = [K.support, K.radial]
    if hasattr(K, "curvature_values"):
        methods.append(K.curvature_values)
    for method in methods:
        with pytest.raises(InputError):
            method(u)


@pytest.mark.parametrize("name", ["h-poly", "v-poly", "ellipsoid"])
def test_non_finite_transform_is_an_input_error(name):
    K = BODY_MAKERS[name]()
    with pytest.raises(InputError):
        K.linear_map([[math.nan, 0.0], [0.0, 1.0]])


def test_huge_planar_bodies_are_input_errors():
    with pytest.raises(InputError):
        FourierBody2D([1e160, 0.0, 1e158])      # the area overflows
    with pytest.raises(InputError):
        SampledBody2D([1e200] * 8, [1e200] * 8)   # volume inf, polar volume 0
    with pytest.raises(InputError):
        SampledBody2D([1e-200] * 8, [1e-200] * 8)  # volume 0, polar volume inf
    K = SampledBody2D([1e100] * 8, [1e100] * 8)
    assert K.volume() == pytest.approx(math.pi * 1e200)


# ---------------------------------------------------------------------------
# polytope duality: the polar's vertices are the facet duals u_i / h_i
# ---------------------------------------------------------------------------

def _halfspaces(rng, dim, extra):
    N = np.vstack([np.eye(dim), -np.eye(dim), rng.standard_normal((extra, dim))])
    N /= np.linalg.norm(N, axis=1)[:, None]
    return N, rng.uniform(0.5, 1.5, len(N))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.integers(0, 12))
def test_hpolytope_is_the_polar_of_its_facet_duals(seed, dim, extra):
    N, h = _halfspaces(np.random.default_rng(seed), dim, extra)
    K = HPolytope(N, h)
    P = VPolytope(N / h[:, None]).polar()
    np.testing.assert_array_equal(K.vertices, P.vertices)
    for got, want in zip(K.facet_data(), P.facet_data()):
        np.testing.assert_array_equal(got, want)
    # every vertex satisfies all constraints and is tight on at least dim
    slack = h - K.vertices @ N.T
    assert np.all(slack >= -1e-12)
    assert np.all(np.sum(np.abs(slack) <= 1e-9, axis=1) >= dim)


def test_redundant_half_spaces_drop_out():
    K = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1], [0.6, 0.8]], [1, 1, 1, 1, 5])
    assert K.normals.shape == (5, 2)          # the input stays for JSON
    assert len(K.facet_data()[1]) == 4
    assert sorted(map(tuple, K.vertices.tolist())) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    diag = np.ones(3) / math.sqrt(3.0)
    cube = HPolytope(np.vstack([np.eye(3), -np.eye(3), diag]), [1, 1, 1, 1, 1, 1, 2])
    assert len(cube.vertices) == 8 and len(cube.facet_data()[1]) == 6
    assert cube.volume() == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("name", ["cube", "cross"])
def test_polar_and_bipolar_support_4d(name):
    if name == "cube":
        K = HPolytope(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
    else:
        K = VPolytope(np.vstack([np.eye(4), -np.eye(4)]))
    g = np.random.default_rng(5).standard_normal((300, 4))
    u = g / np.linalg.norm(g, axis=1)[:, None]
    l1, linf = np.abs(u).sum(axis=1), np.abs(u).max(axis=1)
    h, h_polar = (l1, linf) if name == "cube" else (linf, l1)
    Kp = K.polar()
    assert len(Kp.vertices) == (8 if name == "cube" else 16)
    np.testing.assert_allclose(K.support(u), h, rtol=1e-14)
    np.testing.assert_allclose(Kp.support(u), h_polar, rtol=1e-14)
    np.testing.assert_allclose(Kp.polar().support(u), h, rtol=1e-14)
    np.testing.assert_allclose(K.radial(u) * Kp.support(u), 1.0, rtol=1e-14)


# the normal-based maps that the vertex-based ones replaced, kept as references

def _h_linear_map_reference(K, T):
    w = np.linalg.solve(T.T, K.normals.T).T
    lens = np.linalg.norm(w, axis=1)
    return HPolytope(w / lens[:, None], K.offsets / lens)


def _h_translate_reference(K, z):
    return HPolytope(K.normals, K.offsets - K.normals @ z)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
def test_hpolytope_maps_match_normal_formulas(seed, dim):
    rng = np.random.default_rng(seed)
    N, h = _halfspaces(rng, dim, 6)
    K = HPolytope(N, h)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    T = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    z = 0.2 * np.min(h) * rng.uniform(-1.0, 1.0, dim)
    u = sphere_dirs(200, seed)[:, :dim] if dim == 3 else circle_dirs()
    for got, want in ((K.linear_map(T), _h_linear_map_reference(K, T)),
                      (K.translate(z), _h_translate_reference(K, z))):
        assert isinstance(got, VPolytope)
        np.testing.assert_allclose(got.support(u), want.support(u), rtol=1e-12)
        assert got.volume() == pytest.approx(want.volume(), rel=1e-12)


def test_unbounded_and_near_boundary_h_polytopes():
    with pytest.raises(InputError, match="does not bound"):
        HPolytope([[1, 0], [0, 1], [0.6, 0.8]], [1, 1, 1])
    with pytest.raises(InputError):
        HPolytope(np.eye(3), [1, 1, 1])             # too few for a hull
    with pytest.raises(DomainError, match="origin too close"):
        HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1e-9, 1, 1])


@pytest.mark.parametrize("normals, offsets", [
    (np.eye(3), [1.0, 1.0, 1.0]),
    ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),
], ids=["three-normals-3d", "opposite-pair-2d"])
def test_half_space_family_too_small_for_a_hull(normals, offsets):
    with pytest.raises(InputError, match="does not bound a body") as exc:
        HPolytope(normals, offsets)
    assert "QH" not in str(exc.value) and "\n" not in str(exc.value)


# ---------------------------------------------------------------------------
# translate reads z as a finite vector of the body's dimension
# ---------------------------------------------------------------------------

TRANSLATE_MAKERS = {
    "polytope": square,
    "ellipsoid": lambda: Ellipsoid([[2.0, 0.3], [0.0, 1.0]]),
    "fourier": _fourier,
}


@pytest.mark.parametrize("name", TRANSLATE_MAKERS)
@pytest.mark.parametrize("z", [0.5, [0.1, 0.0, 0.0], [math.nan, 0.0], [0.0, math.inf],
                               [[0.1, 0.0]], [], "ab"],
                         ids=["scalar", "3-vector", "nan", "inf", "row-matrix", "empty",
                              "string"])
def test_translate_rejects_anything_but_a_finite_vector(name, z):
    with pytest.raises(InputError, match="translation"):
        TRANSLATE_MAKERS[name]().translate(z)


@pytest.mark.parametrize("name", TRANSLATE_MAKERS)
def test_translate_takes_a_list(name):
    K = TRANSLATE_MAKERS[name]()
    u = circle_dirs(16)
    np.testing.assert_allclose(K.translate([0.1, -0.2]).support(u),
                               K.support(u) - u @ [0.1, -0.2], atol=1e-13)


# ---------------------------------------------------------------------------
# the Fourier polar: radial samples from one trig pass, support samples
# solved on first read
# ---------------------------------------------------------------------------

def _eager_fourier_polar(F):
    """The polar as it was built before its support samples became lazy:
    both legs at once, the support samples from the radial solve and the
    radial samples from the uniform-grid trig pass."""
    thetas = 2.0 * math.pi * np.arange(4096) / 4096
    rho = np.atleast_1d(F.radial_angle(thetas))
    return SampledBody2D(1.0 / rho, 1.0 / _grid_trig(F.a, F.b, 4096, 0)[0])


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_fourier_polar_makes_no_radial_solve(radial_solves, seed):
    F = random_body("fourier2d", 2, seed=seed)
    P = F.polar()
    assert isinstance(P, SampledBody2D)
    # volume, centroid and radial read only the radial samples
    assert P.volume() > 0 and np.all(np.isfinite(P.centroid()))
    assert np.all(P.radial(circle_dirs(32)) > 0)
    assert radial_solves == []
    np.testing.assert_array_equal(P.rho_values, 1.0 / _grid_trig(F.a, F.b, 4096, 0)[0])
    np.testing.assert_allclose(P.rho_values, 1.0 / F.support_angle(P.thetas), rtol=1e-15, atol=0)


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_fourier_polar_support_samples_match_the_eager_polar(radial_solves, seed):
    F = random_body("fourier2d", 2, seed=seed)
    ref = _eager_fourier_polar(F)
    radial_solves.clear()
    P = F.polar()
    np.testing.assert_array_equal(P.h_values, ref.h_values)
    np.testing.assert_array_equal(P.rho_values, ref.rho_values)
    assert json.dumps(P.to_json()) == json.dumps(ref.to_json())
    u = circle_dirs(64)
    np.testing.assert_array_equal(P.support(u), ref.support(u))
    assert P.polar() is F
    assert radial_solves == [4096]    # solved once, on the first read, and kept


def test_fourier_polar_checks_the_support_leg_when_solved(monkeypatch):
    P = _fourier().polar()
    monkeypatch.setattr(FourierBody2D, "radial_angle", lambda self, phi: -np.ones(np.size(phi)))
    with pytest.raises(DomainError, match="must be positive"):
        P.support([1.0, 0.0])


def test_polar_of_a_linear_image_and_the_bipolar_of_a_fourier_body():
    # (TK)° = T^{-T} K° for the bodies that have linear images
    T = np.array([[1.0, 0.5], [0.0, 1.2]])
    u = circle_dirs(64)
    for K in (square(), Ellipsoid([[1.5, 0.2], [0.0, 0.8]], [0.1, -0.2])):
        want = K.polar().linear_map(np.linalg.inv(T).T)
        np.testing.assert_allclose(K.linear_map(T).polar().support(u), want.support(u),
                                   rtol=1e-12)
    F = _fourier()
    ref = _eager_fourier_polar(F)
    assert F.polar().polar() is F
    # read back from JSON the polar is a plain sampled body, whose polar is
    # the eager polar's polar and exact at the nodes
    bipolar = body_from_json(F.polar().to_json()).polar()
    assert json.dumps(bipolar.to_json()) == json.dumps(ref.polar().to_json())
    np.testing.assert_allclose(bipolar.h_values, F.support(
        np.column_stack([np.cos(bipolar.thetas), np.sin(bipolar.thetas)])), atol=1e-12)


# ---------------------------------------------------------------------------
# the polar is computed once per body
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BODY_MAKERS)
def test_polar_is_the_same_object_on_every_call(name):
    K = BODY_MAKERS[name]()
    P = K.polar()
    assert K.polar() is P
    assert P.polar() is P.polar()


def test_ball_is_one_read_only_instance_per_dimension():
    B = ball(3)
    assert ball(3) is B and B.polar() is B and ball(2) is not B
    with pytest.raises(ValueError):
        B.matrix[0, 0] = 2.0
    with pytest.raises(ValueError):
        B.center[0] = 1.0
    np.testing.assert_array_equal(B.matrix, np.eye(3))


def test_fourier_polar_is_kept_per_resolution():
    F = _fourier()
    assert F.polar() is F.polar()


def test_fourier_polar_solves_its_support_samples_once_across_polar_calls(radial_solves):
    F = _fourier()
    u = circle_dirs(16)
    first = F.polar().support(u)
    for _ in range(3):
        np.testing.assert_array_equal(F.polar().support(u), first)
        F.polar().polar()
        F.polar().to_json()
    assert radial_solves == [4096]


def test_fourier_polar_keeps_its_support_samples_off_its_attributes(radial_solves):
    P = _fourier().polar()
    before = dict(vars(P))
    u = circle_dirs(16)
    first = P.support(u)
    assert vars(P).keys() == before.keys()
    assert all(vars(P)[k] is v for k, v in before.items())
    np.testing.assert_array_equal(P.support(u), first)
    assert radial_solves == [4096]


def test_kept_polar_is_not_an_attribute_of_the_body():
    F = _fourier()
    before = dict(vars(F))
    F.polar()
    assert vars(F).keys() == before.keys()
    assert json.dumps(F.to_json()) == json.dumps(FourierBody2D(F.a, F.b).to_json())


@pytest.mark.parametrize("seed", [-1, 2.5, False])
def test_random_body_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(InputError, match="seed"):
        random_body("ellipsoid", 2, seed=seed)
