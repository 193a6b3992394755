"""Per-layer tracing of geominima from outside the package.

``Tracer.install`` wraps every public function and public class method of
the layer modules (and the constructors of the body classes) in place, and
rebinds every reference the package holds to them, so calls between modules
are seen too.  Each call records a span: name, start, end and parent.  Spans
are kept in flat in-memory arrays and reduced to per-layer metrics once the
traced work is done.  Nothing under ``src/`` is edited; ``uninstall`` puts
every original back.
"""

import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "geominimal", "functionals", "measures", "bodies", "grids")

CHECK_FUNCTIONS = (
    "check_homogeneity",
    "check_translation_balls",
    "check_volume_product_bound",
    "check_santalo_style",
    "check_isoperimetric",
    "check_containment",
    "check_p_surface_comparison",
    "check_cyclic_and_monotone",
    "check_blaschke_santalo",
)

# span categories, as bits
_CONSTRUCT, _POLAR, _MEASURES, _ESTIMATE, _HARNESS, _CHECK = 1, 2, 4, 8, 16, 32


def body_key(K):
    """Content key of a body: its type and every attribute, arrays hashed."""
    parts = [type(K).__name__]
    for name, val in sorted(vars(K).items()):
        if isinstance(val, np.ndarray):
            digest = hashlib.sha1(np.ascontiguousarray(val).tobytes()).hexdigest()
            parts.append(f"{name}{val.shape}{digest}")
        elif hasattr(val, "support"):
            parts.append(f"{name}[{body_key(val)}]")
        else:
            parts.append(f"{name}={val!r}")
    return "|".join(parts)


class Tracer:
    def __init__(self):
        self._name_ids = {}
        self.names = []             # name of each name id
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.polar_keys = {}        # span -> body key
        self.estimates = []         # (span, GpEstimate or None, maxiter, (body key, p))
        self.hulls = {}             # calling layer -> ConvexHulls built
        self._patches = []
        self._make_grid = None
        self._hook_s = [0.0]        # time spent in the hooks below

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack, hook_s = (
            self.span_name, self.start, self.end, self.parent, self._stack, self._hook_s)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            token = None
            if before:
                t_hook = clock()
                token = before(idx, args, kwargs)
                hook_s[0] += clock() - t_hook
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after:
                after(token, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- hooks -------------------------------------------------------------

    def _polar_before(self, idx, args, kwargs):
        self.polar_keys[idx] = body_key(args[0])

    def _estimate_before(self, idx, args, kwargs):
        bound = self._estimate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (body_key(bound.arguments["K"]), float(bound.arguments["p"]))
        entry = [idx, None, bound.arguments["maxiter"], key]
        self.estimates.append(entry)
        return entry

    @staticmethod
    def _estimate_after(entry, result):
        entry[1] = result

    # -- install / uninstall -----------------------------------------------

    def install(self):
        import scipy.spatial

        import geominima
        from geominima import bodies, geominimal, grids

        modules = [sys.modules[f"geominima.{layer}"] for layer in LAYERS]
        self._make_grid = grids.make_grid
        self._estimate_sig = inspect.signature(geominimal.estimate_gp)
        replaced = {}
        seen_methods = set()
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, seen_methods, bodies.ConvexBody)
                elif callable(obj):
                    hooks = {}
                    if obj is geominimal.estimate_gp:
                        hooks = {"before": self._estimate_before, "after": self._estimate_after}
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj, **hooks)
        for mod in modules + [geominima]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, name, replaced[id(obj)])

        real_hull = scipy.spatial.ConvexHull
        hulls = self.hulls

        def counting_hull(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            layer = caller.rsplit(".", 1)[1] if caller.startswith("geominima.") else "other"
            hulls[layer] = hulls.get(layer, 0) + 1
            return real_hull(*args, **kwargs)

        self._patch(bodies, "ConvexHull", counting_hull)
        self._patch(scipy.spatial, "ConvexHull", counting_hull)

    def _wrap_class(self, cls, seen, body_base):
        is_body = issubclass(cls, body_base)
        for klass in cls.__mro__:
            if not klass.__module__.startswith("geominima."):
                continue
            layer = klass.__module__.rsplit(".", 1)[1]
            for name, attr in list(vars(klass).items()):
                if (klass, name) in seen or not inspect.isfunction(attr):
                    continue
                if name.startswith("_") and not (is_body and name == "__init__"):
                    continue
                seen.add((klass, name))
                hooks = {"before": self._polar_before} if is_body and name == "polar" else {}
                self._patch(klass, name, self._wrap(f"{layer}.{klass.__name__}.{name}", attr,
                                                    **hooks))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- reduction ---------------------------------------------------------

    @staticmethod
    def per_call_cost(calls=20_000, batches=7):
        """Median wall cost of one wrapped call over a plain call, timed on a
        no-op function with a throwaway tracer."""
        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop)
        costs = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(costs)[batches // 2]

    def metrics(self):
        """Per-layer metrics of everything recorded since install."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        children = np.zeros(len(dur))
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_time = dur - children

        # every traced op enters through cli.main, so there is at least one span
        layer = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)[names]
        bits = np.zeros(len(self.names), dtype=np.int64)
        for nid, name in enumerate(self.names):
            parts = name.split(".")
            if parts[0] == "bodies" and len(parts) == 3 and parts[2] == "__init__":
                bits[nid] |= _CONSTRUCT
            if parts[0] == "bodies" and len(parts) == 3 and parts[2] == "polar":
                bits[nid] |= _POLAR
            if parts[0] == "measures":
                bits[nid] |= _MEASURES
            if name == "geominimal.estimate_gp":
                bits[nid] |= _ESTIMATE
            if parts[0] == "harness":
                bits[nid] |= _HARNESS
            if parts[0] == "harness" and parts[-1] in CHECK_FUNCTIONS:
                bits[nid] |= _CHECK
        own = bits[names]
        # categories held by some ancestor; parents precede children
        above = [0] * len(own)
        own_list = own.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                above[i] = above[p] | own_list[p]
        above = np.array(above, dtype=np.int64)

        def outer(cat):
            return ((own & cat) != 0) & ((above & cat) == 0)

        def nid_mask(name):
            return names == self._name_ids.get(name, -1)

        polar_outer = outer(_POLAR)
        polar_spans = np.flatnonzero(polar_outer).tolist()
        distinct_polars = len({self.polar_keys[i] for i in polar_spans})
        fourier = nid_mask("bodies.FourierBody2D.polar")

        restarts = at_cap = evals = skipped = unbounded = 0
        for _, est, maxiter, _ in self.estimates:
            if est is None:
                continue
            unbounded += bool(est.suspected_unbounded)
            for entry in est.trace:
                if "skipped" in entry:
                    skipped += 1
                if "restart" in entry:
                    restarts += 1
                    at_cap += entry["nit"] >= maxiter
                    evals += entry["nfev"]
        estimate_self = float(self_time[(own & _ESTIMATE) != 0].sum())
        from_harness = [e for e in self.estimates if above[e[0]] & _HARNESS]

        cache = self._make_grid.cache_info()
        out = {
            "bodies.construct_s": float(dur[outer(_CONSTRUCT)].sum()),
            "bodies.construct_calls": int(((own & _CONSTRUCT) != 0).sum()),
            "bodies.hulls": self.hulls.get("bodies", 0),
            "bodies.polar_s": float(dur[polar_outer].sum()),
            "bodies.polar_calls": len(polar_spans),
            "bodies.polar_fourier_s": float(dur[fourier].sum()),
            "bodies.polar_fourier_calls": int(fourier.sum()),
            "bodies.polar_distinct_ratio": distinct_polars / len(polar_spans) if polar_spans else 0.0,
            "grids.make_grid_hits": cache.hits,
            "grids.make_grid_misses": cache.misses,
            "measures.curvature_s": float(dur[outer(_MEASURES)].sum()),
            "functionals.self_s": float(self_time[(layer == "functionals")].sum()),
            "functionals.calls": int((layer == "functionals").sum()),
            "geominimal.estimate_s": float(dur[outer(_ESTIMATE)].sum()),
            "geominimal.estimate_calls": int(((own & _ESTIMATE) != 0).sum()),
            "geominimal.objective_evals": evals,
            "geominimal.objective_us": 1e6 * estimate_self / evals if evals else 0.0,
            "geominimal.restarts": restarts,
            "geominimal.restarts_at_cap": at_cap,
            "geominimal.converged_ratio": (restarts - at_cap) / restarts if restarts else 0.0,
            "geominimal.hulls": self.hulls.get("geominimal", 0),
            "geominimal.family_skipped": skipped,
            "geominimal.suspected_unbounded": unbounded,
            "harness.self_s": float(self_time[(layer == "harness")].sum()),
        }
        for fn in CHECK_FUNCTIONS:
            out[f"harness.check_s.{fn}"] = float(dur[nid_mask(f"harness.{fn}") & outer(_CHECK)].sum())
        out["harness.estimates_computed"] = len(from_harness)
        out["harness.estimates_distinct"] = len({e[3] for e in from_harness})
        out["cli.self_s"] = float(self_time[(layer == "cli")].sum())
        out["trace.spans"] = len(dur)
        out["trace.overhead_s"] = len(dur) * self.per_call_cost() + self._hook_s[0]
        return out
