"""Convex body representations with exact support functions and polar duality.

Every body is immutable after construction and strictly contains the origin.
The representations are half-space and vertex polytopes, quadrics
c + A * B (one class, ``Ellipsoid``, for centered ellipsoids, balls and their
shifts), cosine/sine support expansions in the plane, and the sampled planar
bodies and lazy linear images that ``polar`` and ``linear_map`` produce from
smooth planar bodies; the polar of a Fourier body solves its support samples
only when they are read.  A quadric is written to JSON under one of three type
names, chosen from its content: ``ellipsoid`` (center at the origin),
``shifted-ball`` (matrix r * I) or ``shifted-ellipsoid``.

Polytope facet data (normals, offsets, facet areas, vertices) is computed
once at construction, exactly, for n in {2, 3}; every polytope quantity
downstream (volume, surface measure, mixed volumes) is a finite exact sum.
Polytopes follow one duality rule: the vertices of the polar are the facet
duals u_i / h_i of the facets <x, u_i> <= h_i.  So ``polar``, ``linear_map``
and ``translate`` work on vertices and return a ``VPolytope``, and an
``HPolytope`` takes its vertices from the facets of conv{u_i / h_i}; it
differs from a ``VPolytope`` only in its input and its JSON.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    ConvergenceError,
    DomainError,
    GenerationError,
    InputError,
    UnsupportedError,
)
from .grids import circle_interp, unit_ball_volume

_UNIT_TOL = 1e-9
_BOUNDARY_RATIO = 1e-8   # reject bodies whose min support is this fraction of the max


def _directions(u, dim):
    """Validate a direction argument: one unit vector or a row matrix of them.

    Returns (matrix, was_single).
    """
    arr = np.asarray(u, dtype=float)
    single = arr.ndim == 1
    mat = np.atleast_2d(arr)
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise InputError(f"expected direction(s) of dimension {dim}, got shape {arr.shape}")
    norms = np.linalg.norm(mat, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-12):   # NaN fails too
        raise InputError("directions must be unit vectors (|u| = 1 within 1e-12)")
    return mat, single


def _ret(values, single):
    values = np.asarray(values, dtype=float)
    return float(values[0]) if single else values


def _floats(x, what):
    """x as a float array; non-numeric or non-finite input is an InputError."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def _vector(x, dim, what):
    """x as a finite float vector of shape (dim,); anything else is an InputError."""
    x = _floats(x, what)
    if x.shape != (dim,):
        raise InputError(f"{what} must be a vector of dimension {dim}, got shape {x.shape}")
    return x


def _check_transform(T, dim):
    T = _floats(T, "transform")
    if T.shape != (dim, dim):
        raise InputError(f"transform must be {dim}x{dim}, got {T.shape}")
    if abs(np.linalg.det(T)) <= 1e-12:
        raise InputError("transform is singular (|det| <= 1e-12)")
    return T


class ConvexBody:
    """Base class.  Subclasses are immutable value objects."""

    dim: int

    def support(self, u):
        """h(u) = max over the body of <x, u>, for unit u (single or batch)."""
        raise NotImplementedError

    def radial(self, u):
        """rho(u) = max {t >= 0 : t*u in the body}."""
        raise NotImplementedError

    def polar(self):
        """The polar dual {y : <x, y> <= 1 for all x in the body}."""
        raise NotImplementedError

    def volume(self):
        raise NotImplementedError

    def linear_map(self, T):
        """Image of the body under an invertible linear transform."""
        raise NotImplementedError

    def translate(self, z):
        """The body minus the vector z.  Support drops by <z, u>."""
        raise NotImplementedError

    def centroid(self):
        raise NotImplementedError

    def to_json(self):
        raise UnsupportedError(f"{type(self).__name__} has no JSON form")

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

def _first_occurrences(m, near):
    """For each of m rows, the index of the kept row it merges into.  Rows
    are kept in order: row i joins the first kept row j < i it is near, and
    is kept itself when there is none.  near(j) tests the rows j, j+1, ...
    against row j in one array operation."""
    owner = np.full(m, -1)
    for j in range(m):
        if owner[j] < 0:
            owner[j:][near(j) & (owner[j:] < 0)] = j
            owner[j] = j
    return owner


def _facet_table(vertices):
    """Hull vertices and facet (normal, offset, area) data; the areas are
    exact for n in {2, 3} and None beyond."""
    vertices = np.asarray(vertices, dtype=float)
    dim = vertices.shape[1]
    try:
        hull = ConvexHull(vertices)
    except (QhullError, ValueError) as exc:
        raise InputError(f"degenerate vertex set: {exc}") from exc
    if dim == 2:
        vs = vertices[hull.vertices]            # counterclockwise
        edges = np.roll(vs, -1, axis=0) - vs
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths <= 0):
            raise InputError("repeated vertices in polygon")
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, vs)
        return vs, normals, offsets, lengths
    if dim == 3:
        normals, offsets = hull.equations[:, :3], -hull.equations[:, 3]
        a, b, c = (vertices[hull.simplices[:, i]] for i in range(3))
        areas = np.array([0.5 * np.linalg.norm(w) for w in np.cross(b - a, c - a)])

        def coplanar(j):
            return (normals[j:] @ normals[j] >= 1.0 - 1e-10) & (
                np.abs(offsets[j] - offsets[j:]) <= 1e-9 * (1 + np.abs(offsets[j:])))

        # coplanar simplices join the first facet on their plane
        owner = _first_occurrences(len(offsets), coplanar)
        keep = owner == np.arange(len(owner))
        # areas add up in simplex order
        areas = np.bincount(owner, weights=areas, minlength=len(owner))[keep]
        return vertices[hull.vertices], normals[keep], offsets[keep], areas
    # beyond three dimensions there are no exact facet areas
    return vertices[hull.vertices], hull.equations[:, :-1], -hull.equations[:, -1], None


class _Polytope(ConvexBody):
    """Shared exact kernel for both polytope representations."""

    _verts: np.ndarray
    _fnormals: np.ndarray
    _foffsets: np.ndarray
    _fareas: np.ndarray

    def _install_facets(self, vertices):
        vs, normals, offsets, areas = _facet_table(vertices)
        scale = np.max(np.linalg.norm(vs, axis=1))
        if np.min(offsets) <= _BOUNDARY_RATIO * scale:
            raise DomainError("origin too close to the boundary (or outside)")
        self._verts = vs
        self._fnormals = normals
        self._foffsets = offsets
        self._fareas = areas

    def polar(self):
        # the vertices of the polar are the facet duals u_i / h_i
        return VPolytope(self._fnormals / self._foffsets[:, None])

    def linear_map(self, T):
        T = _check_transform(T, self.dim)
        return VPolytope(self._verts @ T.T)

    def translate(self, z):
        return VPolytope(self._verts - _vector(z, self.dim, "translation"))

    @property
    def vertices(self):
        return self._verts

    def facet_data(self):
        """(unit outward normals, offsets, facet areas); exact for n in {2,3}."""
        if self._fareas is None:
            raise UnsupportedError("exact facet areas require dimension 2 or 3")
        return self._fnormals, self._foffsets, self._fareas

    def support(self, u):
        mat, single = _directions(u, self.dim)
        return _ret(np.max(mat @ self._verts.T, axis=1), single)

    def radial(self, u):
        mat, single = _directions(u, self.dim)
        dots = mat @ self._fnormals.T
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = np.where(dots > 1e-15, self._foffsets[None, :] / dots, np.inf)
        return _ret(np.min(ratios, axis=1), single)

    def volume(self, monte_carlo_samples=None, seed=0):
        if self._fareas is not None:
            return float(np.dot(self._foffsets, self._fareas)) / self.dim
        if monte_carlo_samples is None:
            raise UnsupportedError(
                "exact polytope volume requires dimension 2 or 3; "
                "pass monte_carlo_samples to opt into an estimate"
            )
        rng = np.random.default_rng(seed)
        lo, hi = self._verts.min(axis=0), self._verts.max(axis=0)
        pts = rng.uniform(lo, hi, size=(int(monte_carlo_samples), self.dim))
        inside = np.all(pts @ self._fnormals.T <= self._foffsets[None, :], axis=1)
        return float(np.prod(hi - lo) * inside.mean())

    def centroid(self):
        vs = self._verts
        if self.dim == 2:
            x, y = vs[:, 0], vs[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            area = 0.5 * np.sum(cross)
            cx = np.sum((x + xn) * cross) / (6.0 * area)
            cy = np.sum((y + yn) * cross) / (6.0 * area)
            return np.array([cx, cy])
        if self.dim == 3:
            hull = ConvexHull(vs)
            total = 0.0
            acc = np.zeros(3)
            for simplex in hull.simplices:
                a, b, c = vs[simplex]
                vol = np.linalg.det(np.stack([a, b, c])) / 6.0
                if vol < 0:
                    b, c = c, b
                    vol = -vol
                total += vol
                acc += vol * (a + b + c) / 4.0
            return acc / total
        raise UnsupportedError("exact centroid requires dimension 2 or 3")


class HPolytope(_Polytope):
    """Intersection of half-spaces <x, u_i> <= h_i with unit normals u_i and
    positive offsets h_i.  Duplicate normals (angular distance below 1e-10)
    are merged, keeping the smallest offset."""

    def __init__(self, normals, offsets):
        normals = _floats(normals, "half-space normals")
        offsets = _floats(offsets, "half-space offsets")
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.shape[0]:
            raise InputError("normals must be (m, n) with matching offsets (m,)")
        if normals.shape[1] < 2:
            raise InputError("dimension must be at least 2")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise InputError("half-space normals must be unit vectors")
        if np.any(offsets <= 0):
            raise InputError("half-space offsets must be positive")
        # a normal within 1e-12 of an earlier kept one merges into it
        owner = _first_occurrences(
            len(offsets), lambda j: normals[j:] @ normals[j] >= 1.0 - 1e-12)
        merged = offsets.copy()
        np.minimum.at(merged, owner, offsets)
        keep = owner == np.arange(len(owner))
        self.normals = normals[keep]
        self.offsets = merged[keep]
        self.dim = self.normals.shape[1]
        # the vertices are the facet duals of conv{u_i / h_i}; redundant u_i
        # drop out, and a family whose duals span no hull bounds nothing
        try:
            _, w, b, _ = _facet_table(self.normals / self.offsets[:, None])
            bounded = np.min(b) > 1e-12
        except InputError:
            bounded = False
        if not bounded:
            raise InputError(
                "half-space family does not bound a body (normals must positively span)")
        self._install_facets(w / b[:, None])

    def to_json(self):
        return {
            "dim": self.dim,
            "repr": {
                "type": "h-polytope",
                "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist(),
            },
        }


class VPolytope(_Polytope):
    """Convex hull of a finite point set containing the origin strictly."""

    def __init__(self, vertices):
        vertices = _floats(vertices, "vertices")
        if vertices.ndim != 2 or vertices.shape[1] < 2:
            raise InputError("vertices must be an (m, n) array with n >= 2")
        self.dim = vertices.shape[1]
        self._install_facets(vertices)

    def to_json(self):
        return {
            "dim": self.dim,
            "repr": {"type": "v-polytope", "vertices": self._verts.tolist()},
        }


# ---------------------------------------------------------------------------
# quadric bodies
# ---------------------------------------------------------------------------

class Ellipsoid(ConvexBody):
    """The quadric c + A * B, with support h(u) = <c, u> + |A^T u| and the
    center c at the origin by default.  Balls and shifted balls are
    ellipsoids; polars and translates of quadrics stay quadrics."""

    def __init__(self, matrix, center=None):
        A = _floats(matrix, "ellipsoid matrix")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("ellipsoid matrix must be square")
        if A.shape[0] < 2:
            raise InputError("dimension must be at least 2")
        c = (np.zeros(A.shape[0]) if center is None
             else _vector(center, A.shape[0], "ellipsoid center"))
        with np.errstate(over="ignore"):
            det = np.linalg.det(A)
        if not 1e-12 < abs(det) < math.inf:
            raise InputError("ellipsoid matrix is singular (or its determinant overflows)")
        self.matrix = A
        self.center = c
        self.dim = A.shape[0]
        self._det = abs(det)
        self._inv = np.linalg.inv(A)
        self._q = self._inv @ c
        if np.linalg.norm(self._q) >= 1.0 - _BOUNDARY_RATIO:
            raise DomainError("origin too close to the boundary (or outside)")

    def support(self, u):
        mat, single = _directions(u, self.dim)
        return _ret(mat @ self.center + np.linalg.norm(mat @ self.matrix, axis=1), single)

    def radial(self, u):
        mat, single = _directions(u, self.dim)
        w = mat @ self._inv.T
        wq = w @ self._q
        w2 = np.einsum("ij,ij->i", w, w)
        disc = wq ** 2 - w2 * (self._q @ self._q - 1.0)
        return _ret((wq + np.sqrt(disc)) / w2, single)

    def polar(self):
        A, c = self.matrix, self.center
        if not c.any():
            return Ellipsoid(self._inv.T)
        # {y : y^T M y + 2<c,y> <= 1} with M = AA^T - cc^T; completing the
        # square gives the ellipsoid sqrt(s) M^{-1/2} B centered at -M^{-1}c
        M = A @ A.T - np.outer(c, c)
        Minv = np.linalg.inv(M)
        s = 1.0 + c @ Minv @ c
        evals, evecs = np.linalg.eigh(M)
        if np.any(evals <= 0):
            raise DomainError("polar dual degenerates; origin not strictly interior")
        inv_root = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
        return Ellipsoid(math.sqrt(s) * inv_root, -Minv @ c)

    def volume(self):
        return self._det * unit_ball_volume(self.dim)

    def linear_map(self, T):
        T = _check_transform(T, self.dim)
        return Ellipsoid(T @ self.matrix, T @ self.center)

    def translate(self, z):
        return Ellipsoid(self.matrix, self.center - _vector(z, self.dim, "translation"))

    def centroid(self):
        return self.center.copy()

    def curvature_values(self, u):
        """f(u) = det(A)^2 / |A^T u|^{n+1}, the surface-area density (the
        surface-area measure is translation invariant)."""
        mat, single = _directions(u, self.dim)
        h = np.linalg.norm(mat @ self.matrix, axis=1)
        return _ret(self._det ** 2 / h ** (self.dim + 1), single)

    def to_json(self):
        A, c = self.matrix, self.center
        if not c.any():
            rep = {"type": "ellipsoid", "matrix": A.tolist()}
        elif A[0, 0] > 0 and np.array_equal(A, A[0, 0] * np.eye(self.dim)):
            rep = {"type": "shifted-ball", "center": c.tolist(), "radius": float(A[0, 0])}
        else:
            rep = {"type": "shifted-ellipsoid", "matrix": A.tolist(), "center": c.tolist()}
        return {"dim": self.dim, "repr": rep}


def is_centered_ellipsoid(K: ConvexBody) -> bool:
    """True for an ellipsoid centered at the origin (balls included)."""
    return isinstance(K, Ellipsoid) and not K.center.any()


def ball(n: int) -> Ellipsoid:
    """The unit Euclidean ball as an ellipsoid with identity matrix."""
    return Ellipsoid(np.eye(n))


def ShiftedEllipsoid(matrix, center) -> Ellipsoid:
    """The ellipsoid center + matrix * B."""
    return Ellipsoid(matrix, center)


def ShiftedBall(center, radius) -> Ellipsoid:
    """The ball center + radius * B, which must contain the origin strictly."""
    c, r = _floats(center, "center"), _floats(radius, "radius")
    if c.ndim != 1 or r.ndim != 0:
        raise InputError("center must be a vector and radius a number")
    if r <= 0:
        raise InputError("radius must be positive")
    return Ellipsoid(float(r) * np.eye(c.shape[0]), c)


# ---------------------------------------------------------------------------
# smooth planar bodies
# ---------------------------------------------------------------------------

def _trig(a, b, theta, *orders):
    """[h^(order) for each order in orders], at most second derivatives, of
    h(t) = sum_k a_k cos(kt) + b_k sin(kt) at the angle(s) theta, from one
    cos/sin evaluation."""
    k = np.arange(a.shape[0], dtype=float)
    ang = np.multiply.outer(np.asarray(theta, dtype=float), k)
    ct, st = np.cos(ang), np.sin(ang)
    out = []
    for order in orders:
        if order == 0:
            out.append(ct @ a + st @ b)
        elif order == 1:
            out.append((-st * k) @ a + (ct * k) @ b)
        else:
            out.append(-(ct * k ** 2) @ a - (st * k ** 2) @ b)
    return out


class FourierBody2D(ConvexBody):
    """Planar body given by a trigonometric support expansion
    h(t) = sum_k a_k cos(kt) + b_k sin(kt).

    Convexity means h + h'' >= 0; the constructor verifies this on a dense
    angle grid.  All derivatives come exactly from the coefficients.
    """

    _CHECK_N = 2048

    def __init__(self, a, b=None):
        a = np.atleast_1d(_floats(a, "coefficients a"))
        b = np.zeros_like(a) if b is None else np.atleast_1d(_floats(b, "coefficients b"))
        if a.shape != b.shape or a.ndim != 1 or a.shape[0] == 0:
            raise InputError("coefficient arrays a and b must be equal-length nonempty vectors")
        b = b.copy()
        b[0] = 0.0
        self.a = a
        self.b = b
        self.dim = 2
        thetas = 2.0 * math.pi * np.arange(self._CHECK_N) / self._CHECK_N
        h, h2 = _trig(a, b, thetas, 0, 2)
        if np.min(h) <= 0 or np.min(h) <= _BOUNDARY_RATIO * np.max(h):
            raise DomainError("origin too close to the boundary (support nearly vanishes)")
        if np.min(h + h2) < -1e-9 * np.max(np.abs(h)):
            raise InputError("coefficients do not describe a convex body (h + h'' < 0)")
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(self.volume()):
                raise InputError("coefficients are too large: the area is not finite")

    def support_angle(self, theta, order=0):
        """Support value (or derivative) at angle(s) theta."""
        out = _trig(self.a, self.b, theta, order)[0]
        return float(out) if np.isscalar(theta) else out

    def support(self, u):
        mat, single = _directions(u, 2)
        return _ret(self.support_angle(np.arctan2(mat[:, 1], mat[:, 0])), single)

    def radial(self, u):
        mat, single = _directions(u, 2)
        return _ret(self.radial_angle(np.arctan2(mat[:, 1], mat[:, 0])), single)

    def radial_angle(self, phi):
        """Radial function at polar angle(s) phi.

        Solves for the boundary parameter t with x(t) = h u(t) + h' u'(t)
        pointing along phi; the polar angle of x(t) is monotone in t, so
        bisection is guaranteed.
        """
        scalar = np.ndim(phi) == 0
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        lo = phi - math.pi / 2 + 1e-12
        hi = phi + math.pi / 2 - 1e-12
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            h, hp = _trig(self.a, self.b, mid, 0, 1)
            pos = mid + np.arctan2(hp, h) - phi > 0
            hi = np.where(pos, mid, hi)
            lo = np.where(pos, lo, mid)
        h, hp = _trig(self.a, self.b, 0.5 * (lo + hi), 0, 1)
        out = np.sqrt(h ** 2 + hp ** 2)
        return float(out[0]) if scalar else out

    def polar(self, resolution=4096):
        return _FourierPolar(self, resolution)

    def volume(self):
        # Parseval: area = pi*a0^2 + (pi/2) * sum_k (1 - k^2)(a_k^2 + b_k^2)
        k = np.arange(1, self.a.shape[0], dtype=float)
        tail = np.sum((1.0 - k ** 2) * (self.a[1:] ** 2 + self.b[1:] ** 2))
        return math.pi * self.a[0] ** 2 + 0.5 * math.pi * tail

    def linear_map(self, T):
        T = _check_transform(T, 2)
        return LinearImage(T, self)

    def translate(self, z):
        z = _vector(z, 2, "translation")
        a, b = self.a.copy(), self.b.copy()
        if a.shape[0] < 2:
            a = np.append(a, 0.0)
            b = np.append(b, 0.0)
        a[1] -= z[0]
        b[1] -= z[1]
        return FourierBody2D(a, b)

    def centroid(self, resolution=4096):
        thetas = 2.0 * math.pi * np.arange(resolution) / resolution
        h, hp, h2 = _trig(self.a, self.b, thetas, 0, 1, 2)
        fk = h + h2
        u = np.column_stack([np.cos(thetas), np.sin(thetas)])
        up = np.column_stack([-np.sin(thetas), np.cos(thetas)])
        x = h[:, None] * u + hp[:, None] * up
        w = 2.0 * math.pi / resolution
        area = 0.5 * w * np.sum(h * fk)
        moment = (w / 3.0) * (x * (h * fk)[:, None]).sum(axis=0)
        return moment / area

    def curvature_values(self, u):
        mat, single = _directions(u, 2)
        theta = np.arctan2(mat[:, 1], mat[:, 0])
        h, h2 = _trig(self.a, self.b, theta, 0, 2)
        return _ret(h + h2, single)

    def to_json(self):
        return {"dim": 2, "repr": {"type": "fourier2d", "a": self.a.tolist(), "b": self.b.tolist()}}


def _sampled_area(rho):
    """The area 1/2 * w * sum rho_i^2 of radial samples on the uniform grid."""
    return 0.5 * (2.0 * math.pi / rho.shape[0]) * np.sum(rho ** 2)


def _sample_leg(x, n_nodes, radial):
    """x checked as one leg of a sampled body: n_nodes >= 8 positive samples
    whose area (the volume for radial samples, the polar volume 1/2 * w *
    sum h_i^-2 for support samples) is positive and finite."""
    if x.shape != (n_nodes,) or n_nodes < 8:
        raise InputError("need matching support/radial sample vectors (>= 8 nodes)")
    if np.any(x <= 0):
        raise DomainError("support and radial samples must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        area = _sampled_area(x if radial else 1.0 / x)
    if not 0 < area < math.inf:
        raise InputError("the volume or polar volume of the samples is not positive and finite")
    return x


class SampledBody2D(ConvexBody):
    """Planar convex body known through support and radial samples on the
    uniform angle grid.  Arises as the polar dual of smooth planar bodies.

    Values are exact at the nodes; between nodes both functions are
    interpolated periodically (piecewise linear)."""

    def __init__(self, support_values, radial_values):
        h = _floats(support_values, "support samples")
        self._set_radial(_floats(radial_values, "radial samples"))
        self.h_values = _sample_leg(h, self.n_nodes, radial=False)

    def _set_radial(self, rho):
        """Check the radial samples and lay the node grid out from them."""
        self.dim = 2
        self.rho_values = _sample_leg(rho, rho.size, radial=True)
        self.n_nodes = rho.shape[0]
        self.thetas = 2.0 * math.pi * np.arange(self.n_nodes) / self.n_nodes

    def support(self, u):
        mat, single = _directions(u, 2)
        return _ret(circle_interp(mat, self.thetas, self.h_values), single)

    def radial(self, u):
        mat, single = _directions(u, 2)
        return _ret(circle_interp(mat, self.thetas, self.rho_values), single)

    def polar(self):
        return SampledBody2D(1.0 / self.rho_values, 1.0 / self.h_values)

    def volume(self):
        return _sampled_area(self.rho_values)

    def centroid(self):
        w = 2.0 * math.pi / self.n_nodes
        u = np.column_stack([np.cos(self.thetas), np.sin(self.thetas)])
        return (w / 3.0) * (u * (self.rho_values ** 3)[:, None]).sum(axis=0) / self.volume()

    def linear_map(self, T):
        raise UnsupportedError("apply linear maps before polarizing a smooth body")

    def translate(self, z):
        raise UnsupportedError("translate before polarizing a smooth body")

    def to_json(self):
        return {
            "dim": 2,
            "repr": {
                "type": "sampled2d",
                "support": self.h_values.tolist(),
                "radial": self.rho_values.tolist(),
            },
        }


class _FourierPolar(SampledBody2D):
    """The polar of a ``FourierBody2D`` on the uniform grid of ``resolution``
    nodes.  Its radial samples 1/h of the body come from one trig pass.  Its
    support samples 1/rho of the body need the body's radial solve, so they
    are solved, checked and kept on first read."""

    def __init__(self, body, resolution):
        self.body = body
        thetas = 2.0 * math.pi * np.arange(resolution) / resolution
        self._set_radial(1.0 / body.support_angle(thetas))

    @cached_property
    def h_values(self):
        return _sample_leg(1.0 / self.body.radial_angle(self.thetas), self.n_nodes, radial=False)


class LinearImage(ConvexBody):
    """Lazy linear image T * K of a smooth base body.

    Support: h(v) = |T^T v| * h_base(T^T v / |T^T v|).  Used where the image
    has no closed coefficient form (e.g. sheared planar bodies)."""

    def __init__(self, T, base):
        self.T = _check_transform(T, base.dim)
        self.base = base
        self.dim = base.dim
        self._inv = np.linalg.inv(self.T)

    def support(self, u):
        mat, single = _directions(u, self.dim)
        w = mat @ self.T          # rows are T^T u
        lens = np.linalg.norm(w, axis=1)
        return _ret(lens * self.base.support(w / lens[:, None]), single)

    def radial(self, u):
        mat, single = _directions(u, self.dim)
        w = mat @ self._inv.T     # rows are T^{-1} u
        lens = np.linalg.norm(w, axis=1)
        return _ret(self.base.radial(w / lens[:, None]) / lens, single)

    def volume(self):
        return abs(np.linalg.det(self.T)) * self.base.volume()

    def polar(self):
        return LinearImage(self._inv.T, self.base.polar())

    def linear_map(self, T):
        T = _check_transform(T, self.dim)
        return LinearImage(T @ self.T, self.base)

    def translate(self, z):
        raise UnsupportedError("translate the base body before mapping")

    def centroid(self):
        return self.T @ self.base.centroid()


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def polar(K: ConvexBody) -> ConvexBody:
    return K.polar()


def volume(K: ConvexBody) -> float:
    return K.volume()


def support(K: ConvexBody, u):
    return K.support(u)


def radial(K, u):
    return K.radial(u)


def linear_map(K: ConvexBody, T) -> ConvexBody:
    return K.linear_map(T)


def translate(K: ConvexBody, z) -> ConvexBody:
    return K.translate(z)


def centroid(K: ConvexBody):
    return K.centroid()


def _dense_directions(dim, count=512, seed=1234):
    if dim == 2:
        t = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(t), np.sin(t)])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1)[:, None]


def _interior_step_bound(K, z, direction):
    """Largest t with z + t*direction still interior, from support slack."""
    if isinstance(K, _Polytope):
        U = K._fnormals
        slack = K._foffsets - U @ z
    else:
        U = _dense_directions(K.dim, 1024)
        slack = K.support(U) - U @ z
    comp = U @ direction
    with np.errstate(divide="ignore"):
        pos = np.where(comp > 1e-14, slack / comp, np.inf)
        neg = np.where(comp < -1e-14, slack / comp, -np.inf)
    return float(np.max(neg)), float(np.min(pos))


def _golden_section(f, lo, hi, tol=1e-10, max_iter=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def santalo_point(K: ConvexBody, objective_tol=1e-8, gradient_tol=1e-6, max_sweeps=200):
    """The translation z* minimizing the polar volume of K - z.

    Solved by damped coordinate descent with golden-section line searches;
    returns z* once the finite-difference gradient norm is below
    ``gradient_tol``.  For centrally symmetric representations the center is
    returned directly.
    """
    if isinstance(K, Ellipsoid):
        return K.centroid()
    if isinstance(K, _Polytope) and K.dim not in (2, 3):
        raise UnsupportedError("Santalo point solve requires dimension 2 or 3")

    def objective(z):
        return K.translate(z).polar().volume()

    z = K.centroid()
    scale = max(1.0, float(np.max(np.abs(z))) + 1.0)
    f_cur = objective(z)
    for _ in range(max_sweeps):
        f_prev = f_cur
        for k in range(K.dim):
            e = np.zeros(K.dim)
            e[k] = 1.0
            t_lo, t_hi = _interior_step_bound(K, z, e)
            t_lo *= 0.95
            t_hi *= 0.95
            t_best = _golden_section(lambda t: objective(z + t * e), t_lo, t_hi)
            z = z + t_best * e
        f_cur = objective(z)
        if abs(f_prev - f_cur) <= objective_tol * abs(f_cur):
            step = 1e-6 * scale
            grad = np.zeros(K.dim)
            for k in range(K.dim):
                e = np.zeros(K.dim)
                e[k] = step
                grad[k] = (objective(z + e) - objective(z - e)) / (2 * step)
            if np.linalg.norm(grad) <= gradient_tol:
                return z
    raise ConvergenceError("Santalo point solve did not certify a stationary point", best=z)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodyClassTag:
    """Membership flags for the standard body classes."""

    in_K0: bool        # origin strictly interior
    in_Kc: bool        # centroid at the origin (tolerance-checked)
    in_Ks: bool        # Santalo point at the origin (tolerance-checked)
    in_F0plus: bool    # positive continuous curvature function available


def has_curvature(K: ConvexBody) -> bool:
    return isinstance(K, (Ellipsoid, FourierBody2D))


def classify(K: ConvexBody, tol=1e-8, check_santalo=True) -> BodyClassTag:
    dirs = _dense_directions(K.dim)
    h = K.support(dirs)
    in_k0 = bool(np.min(h) > 0)
    scale = float(np.max(h))
    in_kc = in_k0 and bool(np.linalg.norm(K.centroid()) <= tol * scale)
    in_ks = False
    if in_k0 and check_santalo:
        try:
            in_ks = bool(np.linalg.norm(santalo_point(K)) <= 1e-6 * scale)
        except (UnsupportedError, ConvergenceError):
            in_ks = False
    return BodyClassTag(in_K0=in_k0, in_Kc=in_kc, in_Ks=in_ks, in_F0plus=has_curvature(K))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def _random_polytope(n, size, rng):
    for _ in range(100):
        g = rng.standard_normal((size, n))
        dirs = g / np.linalg.norm(g, axis=1)[:, None]
        radii = rng.uniform(0.5, 1.5, size)
        pts = dirs * radii[:, None]
        try:
            body = VPolytope(pts)
            return VPolytope(body.vertices - body.centroid()[None, :])
        except (InputError, DomainError):
            continue
    raise GenerationError("could not build a valid random polytope")


def _random_ellipsoid(n, rng):
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lams = rng.uniform(0.5, 2.0, n)   # condition number at most 4
    return Ellipsoid(q @ np.diag(lams) @ q.T)


def _random_fourier(n, size, rng):
    if n != 2:
        raise InputError("fourier2d bodies exist only in the plane")
    kmax = max(2, min(int(size), 10))
    a = np.zeros(kmax + 1)
    b = np.zeros(kmax + 1)
    a[0] = 1.0
    a[1] = rng.normal(0.0, 0.05)
    b[1] = rng.normal(0.0, 0.05)
    for k in range(2, kmax + 1):
        a[k] = rng.normal(0.0, 0.15 / k ** 2)
        b[k] = rng.normal(0.0, 0.15 / k ** 2)
    thetas = 2.0 * math.pi * np.arange(2048) / 2048
    for _ in range(100):
        h, h2 = _trig(a, b, thetas, 0, 2)
        if np.min(h) > 0 and np.min(h + h2) >= 0.01 * np.min(h):
            return FourierBody2D(a, b)
        a[2:] *= 0.8
        b[2:] *= 0.8
    raise GenerationError("convexity projection failed for fourier2d body")


def _random_shifted_ball(n, rng):
    r = rng.uniform(0.6, 1.6)
    g = rng.standard_normal(n)
    direction = g / np.linalg.norm(g)
    return ShiftedBall(direction * rng.uniform(0.0, 0.7) * r, r)


def random_body(kind: str, n: int, size: int = 12, seed: int = 0, rng=None) -> ConvexBody:
    """Seeded random body generator.

    kind is one of ``polytope-hull``, ``ellipsoid``, ``fourier2d``,
    ``shifted-ball``.  The same (kind, n, size, seed) always produces the
    same body.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if kind == "polytope-hull":
        return _random_polytope(n, size, rng)
    if kind == "ellipsoid":
        return _random_ellipsoid(n, rng)
    if kind == "fourier2d":
        return _random_fourier(n, size, rng)
    if kind == "shifted-ball":
        return _random_shifted_ball(n, rng)
    raise InputError(f"unknown body kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def body_to_json(K: ConvexBody) -> dict:
    return K.to_json()


_JSON_READERS = {
    "h-polytope": lambda rep: HPolytope(rep["normals"], rep["offsets"]),
    "v-polytope": lambda rep: VPolytope(rep["vertices"]),
    "ellipsoid": lambda rep: Ellipsoid(rep["matrix"]),
    "shifted-ball": lambda rep: ShiftedBall(rep["center"], rep["radius"]),
    "shifted-ellipsoid": lambda rep: Ellipsoid(rep["matrix"], rep["center"]),
    "fourier2d": lambda rep: FourierBody2D(rep["a"], rep.get("b")),
    "sampled2d": lambda rep: SampledBody2D(rep["support"], rep["radial"]),
}


def body_from_json(data: dict) -> ConvexBody:
    """The body a ``to_json`` dict describes; a missing or mistyped field is
    an InputError."""
    try:
        rep = data["repr"]
        read = _JSON_READERS.get(rep["type"])
        if read is None:
            raise InputError(f"unknown body type {rep['type']!r}")
        return read(rep)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed body JSON: {exc!r}") from exc
