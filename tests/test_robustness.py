"""Robustness on degenerate and malformed input: every case gives finite
values or refuses with a GeominimaError subclass, never a raw numpy or qhull
error, a NaN or an infinity."""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geominima import (
    GeominimaError,
    HPolytope,
    ShiftedBall,
    VPolytope,
    ball,
    body_from_json,
    mahler,
    p_surface_area,
)

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _finite_or_refused(make):
    """Build a body and evaluate its basic quantities.  Either all of them
    are finite or the library refuses with one of its own errors."""
    try:
        K = make()
        values = [K.volume(), K.polar().volume(), mahler(K), p_surface_area(K, 1.0)]
    except GeominimaError:
        return None
    assert np.all(np.isfinite(values)), values
    return K


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


@FAST
@given(st.sampled_from([2, 3]), directions,
       st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-16, 1e-6)),
       st.sampled_from(["cube", "cross", "ball", "shifted-ball"]))
def test_origin_near_the_boundary(dim, direction, gap, kind):
    d = _unit(direction[:dim]) if np.linalg.norm(direction[:dim]) > 1e-3 else np.eye(dim)[0]
    if kind == "cube":
        K0 = HPolytope(np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim))
        reach = 1.0 / np.max(np.abs(d))
    elif kind == "cross":
        K0 = VPolytope(np.vstack([np.eye(dim), -np.eye(dim)]))
        reach = 1.0 / np.sum(np.abs(d))
    else:
        K0 = ball(dim) if kind == "ball" else ShiftedBall(0.5 * np.eye(dim)[0], 1.5)
        reach = float(K0.radial(d))
    _finite_or_refused(lambda: K0.translate((1.0 - gap) * reach * d))


@FAST
@given(st.sampled_from([2, 3]), st.floats(1.0, 1e6), st.floats(1e-9, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_needle_polytopes(dim, length, width, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    axes = np.diag([length] + [width] * (dim - 1)) @ q.T
    pts = np.vstack([axes, -axes])
    _finite_or_refused(lambda: VPolytope(pts))
    _finite_or_refused(lambda: VPolytope(pts).polar())


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3]), st.integers(220, 400), st.floats(0.0, 0.05),
       st.integers(0, 2 ** 32 - 1))
def test_hulls_with_many_vertices(dim, count, jitter, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim))
    radii = rng.uniform(1 - jitter, 1 + jitter, count)
    pts = g / np.linalg.norm(g, axis=1)[:, None] * radii[:, None]
    K = _finite_or_refused(lambda: VPolytope(pts))
    if K is not None:
        assert len(K.vertices) >= (200 if jitter == 0 else 1)
        _finite_or_refused(lambda: K.polar())


@FAST
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6]))
def test_near_duplicate_normals(dim, seed, eps):
    rng = np.random.default_rng(seed)
    base = np.vstack([np.eye(dim), -np.eye(dim)])
    copies = base + eps * rng.standard_normal(base.shape)
    normals = np.vstack([base, copies])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(0.5, 1.5, len(normals))
    K = _finite_or_refused(lambda: HPolytope(normals, offsets))
    if K is not None and eps <= 1e-12:
        # exact and angularly indistinguishable copies merge into the first,
        # keeping the smaller offset
        assert len(K.normals) == 2 * dim
        np.testing.assert_array_equal(K.offsets, np.minimum(offsets[:2 * dim], offsets[2 * dim:]))


_VALID = {
    "h-polytope": {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]], "offsets": [1, 1, 1, 1]},
    "v-polytope": {"vertices": [[-1, -1], [2, -1], [-1, 2]]},
    "ellipsoid": {"matrix": [[2.0, 0.3], [0.0, 1.0]]},
    "shifted-ball": {"center": [0.3, -0.2], "radius": 1.1},
    "shifted-ellipsoid": {"matrix": [[1.5, 0.2], [0.0, 0.9]], "center": [0.2, 0.1]},
    "fourier2d": {"a": [1.0, 0.05, 0.02], "b": [0.0, -0.03, 0.01]},
    "sampled2d": {"support": [1.0] * 8, "radial": [1.0] * 8},
}
_numbers = st.one_of(st.floats(-1e3, 1e3), st.integers(-5, 5),
                     st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300]))
_values = st.recursive(
    st.one_of(_numbers, st.none(), st.booleans(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=20)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_VALID)), st.data())
def test_fuzzed_body_json(kind, data):
    """Valid body files with up to three random edits: a field dropped or
    replaced by junk, one number changed, a list cut short, another type."""
    rep = json.loads(json.dumps({"type": kind, **_VALID[kind]}))
    for _ in range(data.draw(st.integers(0, 3))):
        if not rep:
            break
        field = data.draw(st.sampled_from(sorted(rep)))
        edit = data.draw(st.sampled_from(["drop", "replace", "number", "cut", "type"]))
        if edit == "drop":
            del rep[field]
        elif edit == "replace":
            rep[field] = data.draw(_values)
        elif edit == "type":
            rep["type"] = data.draw(st.sampled_from(sorted(_VALID) + ["cube"]))
        elif isinstance(rep[field], list) and rep[field]:
            if edit == "cut":
                rep[field] = rep[field][:data.draw(st.integers(0, len(rep[field]) - 1))]
                continue
            # descend through non-empty lists to one entry, which may be junk
            # from an earlier edit, and set it to a number
            node = rep[field]
            i = data.draw(st.integers(0, len(node) - 1))
            while isinstance(node[i], list) and node[i]:
                node = node[i]
                i = data.draw(st.integers(0, len(node) - 1))
            node[i] = data.draw(_numbers)
    K = _finite_or_refused(lambda: body_from_json({"dim": 2, "repr": rep}))
    if K is not None:
        assert body_from_json(json.loads(json.dumps(K.to_json()))).to_json() == K.to_json()
