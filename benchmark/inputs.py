"""Seeded inputs for the benchmark workloads.

Bodies are generated here with numpy and scipy alone, so the program under
test receives only finished body files.  Every op draws fresh bodies from
``SeedSequence([seed, workload id, op index])``; the make-up of an op (body
kinds, dimensions, orders) is the same in every op, only the random draws
differ.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull

WORKLOAD_IDS = {"estimate": 2, "compute": 3}

# estimate: one op is one round over these slots, at the CLI's defaults
# (8 restarts, maxiter 400, 4096-node grid).  Orders cover p > 0,
# -n < p < 0 and p < -n in both dimensions.
ESTIMATE_SLOTS = (
    ("poly2-few-facets", 2.0),     # <= 7 edges: support family runs
    ("poly3-few-facets", -1.0),    # <= 12 facets: support family runs
    ("poly3-many-facets", -4.0),   # > 12 facets: support family skipped
    ("ellipsoid2", -3.0),
    ("ellipsoid3", 0.5),
    ("shifted-ball2", -0.5),
)

# compute: one op is one round over these bodies; each is asked only the
# quantities defined for it.
COMPUTE_ORDERS = (-4.0, -1.5, -0.5, 0.0, 1.0, 2.0)
_ALL_QUANTITIES = ("volume", "polar_volume", "mahler", "vp", "sp", "asp", "in_vp")
_POLYTOPE_QUANTITIES = ("volume", "polar_volume", "mahler", "vp", "sp")
COMPUTE_SLOTS = (
    ("vpoly3-large", _POLYTOPE_QUANTITIES),
    ("fourier2d", _ALL_QUANTITIES),
    ("hpoly2", _POLYTOPE_QUANTITIES),
    ("ellipsoid3", _ALL_QUANTITIES),
    ("shifted-ball2", _ALL_QUANTITIES),
)
COMPUTE_MIN_VERTICES = 100


def op_rng(seed, workload, op):
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_IDS[workload], op]))


def _unit_rows(g):
    return g / np.linalg.norm(g, axis=1)[:, None]


def _hull_centroid(points, hull):
    """Centroid of the hull, from simplices coned to an interior point."""
    o = points[hull.vertices].mean(axis=0)
    n = points.shape[1]
    vols, cents = [], []
    for simplex in hull.simplices:
        verts = points[simplex]
        vols.append(abs(np.linalg.det(verts - o)) / math.factorial(n))
        cents.append((o + verts.sum(axis=0)) / (n + 1))
    vols = np.array(vols)
    return (vols[:, None] * np.array(cents)).sum(axis=0) / vols.sum()


def vpolytope_points(rng, n, size, rmin=0.5, rmax=1.5, facets=None):
    """Hull vertices of random points, shifted to their centroid, with the
    origin well inside.  ``facets`` is an optional (lo, hi) bound on the
    number of facets."""
    while True:
        pts = _unit_rows(rng.standard_normal((size, n))) * rng.uniform(rmin, rmax, size)[:, None]
        hull = ConvexHull(pts)
        pts = pts[hull.vertices] - _hull_centroid(pts, hull)[None, :]
        hull = ConvexHull(pts)
        inradius = float(np.min(-hull.equations[:, -1]))
        if inradius < 0.2 * float(np.max(np.linalg.norm(pts, axis=1))):
            continue
        if facets is not None and not facets[0] <= len(hull.simplices) <= facets[1]:
            continue
        return pts


def ellipsoid_matrix(rng, n):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


def shifted_ball(rng, n):
    r = rng.uniform(0.6, 1.6)
    center = _unit_rows(rng.standard_normal((1, n)))[0] * rng.uniform(0.1, 0.7) * r
    return center, r


def fourier_coefficients(rng, kmax=8):
    """Support expansion h = sum a_k cos(kt) + b_k sin(kt) with
    h + h'' >= 0.05 min h on a dense grid (shrinking the tail until so)."""
    a = np.zeros(kmax + 1)
    b = np.zeros(kmax + 1)
    a[0] = 1.0
    a[1], b[1] = rng.normal(0.0, 0.05, 2)
    k = np.arange(2, kmax + 1)
    a[2:] = rng.normal(0.0, 0.15 / k ** 2)
    b[2:] = rng.normal(0.0, 0.15 / k ** 2)
    t = 2.0 * math.pi * np.arange(4096) / 4096
    ks = np.arange(kmax + 1)
    ct, st = np.cos(np.outer(t, ks)), np.sin(np.outer(t, ks))
    while True:
        h = ct @ a + st @ b
        curv = h - ct @ (ks ** 2 * a) - st @ (ks ** 2 * b)
        if h.min() > 0 and curv.min() >= 0.05 * h.min():
            return a, b
        a[2:] *= 0.8
        b[2:] *= 0.8


def hpolygon(rng, m=9):
    step = 2.0 * math.pi / m
    angles = step * np.arange(m) + rng.uniform(-0.25, 0.25, m) * step
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    return normals, rng.uniform(0.7, 1.3, m)


def body_json(kind, data):
    """Body file contents in the program's JSON format."""
    if kind == "v-polytope":
        return {"dim": data.shape[1], "repr": {"type": "v-polytope", "vertices": data.tolist()}}
    if kind == "h-polytope":
        normals, offsets = data
        return {"dim": normals.shape[1],
                "repr": {"type": "h-polytope", "normals": normals.tolist(),
                         "offsets": offsets.tolist()}}
    if kind == "ellipsoid":
        return {"dim": data.shape[0], "repr": {"type": "ellipsoid", "matrix": data.tolist()}}
    if kind == "shifted-ball":
        center, r = data
        return {"dim": center.shape[0],
                "repr": {"type": "shifted-ball", "center": center.tolist(), "radius": float(r)}}
    if kind == "fourier2d":
        a, b = data
        return {"dim": 2, "repr": {"type": "fourier2d", "a": a.tolist(), "b": b.tolist()}}
    raise ValueError(kind)


def estimate_bodies(seed, op):
    """[(slot name, body JSON, order)] for one estimate op."""
    rng = op_rng(seed, "estimate", op)
    makers = {
        "poly2-few-facets": lambda: body_json("v-polytope", vpolytope_points(rng, 2, 7)),
        "poly3-few-facets": lambda: body_json("v-polytope", vpolytope_points(rng, 3, 8)),
        "poly3-many-facets": lambda: body_json(
            "v-polytope", vpolytope_points(rng, 3, 20, facets=(13, 10 ** 6))),
        "ellipsoid2": lambda: body_json("ellipsoid", ellipsoid_matrix(rng, 2)),
        "ellipsoid3": lambda: body_json("ellipsoid", ellipsoid_matrix(rng, 3)),
        "shifted-ball2": lambda: body_json("shifted-ball", shifted_ball(rng, 2)),
    }
    return [(slot, makers[slot](), p) for slot, p in ESTIMATE_SLOTS]


def compute_bodies(seed, op):
    """[(slot name, body JSON, quantities)] for one compute op."""
    rng = op_rng(seed, "compute", op)
    makers = {
        "vpoly3-large": lambda: body_json("v-polytope", _many_vertex_points(rng)),
        "fourier2d": lambda: body_json("fourier2d", fourier_coefficients(rng)),
        "hpoly2": lambda: body_json("h-polytope", hpolygon(rng)),
        "ellipsoid3": lambda: body_json("ellipsoid", ellipsoid_matrix(rng, 3)),
        "shifted-ball2": lambda: body_json("shifted-ball", shifted_ball(rng, 2)),
    }
    return [(slot, makers[slot](), quantities) for slot, quantities in COMPUTE_SLOTS]


def _many_vertex_points(rng, size=120):
    """Points near the unit sphere, at least COMPUTE_MIN_VERTICES on the hull."""
    while True:
        pts = _unit_rows(rng.standard_normal((size, 3))) * rng.uniform(0.97, 1.03, size)[:, None]
        if len(ConvexHull(pts).vertices) >= COMPUTE_MIN_VERTICES:
            return pts
