"""Command-line interface.

Subcommands:

* ``compute``  - evaluate functionals on a body file
* ``estimate`` - one-sided geominimal estimate for a body and order
* ``verify``   - run the inequality suite, write report files
* ``generate`` - seeded random body generation

Exit codes: 0 success, 1 at least one check failed, 2 usage or input error.
Plain output rounds to 9 significant digits; json output keeps full
precision.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .bodies import ball, body_from_json, random_body
from .errors import GeominimaError, InputError
from .functionals import (
    _finite_order,
    affine_surface_area_p,
    in_vp,
    mahler,
    mixed_volume_p,
    p_surface_area,
)
from .geominimal import estimate_gp
from .grids import default_grid
from .harness import HarnessConfig, run_suite

QUANTITIES = ("volume", "polar_volume", "mahler", "vp", "sp", "asp", "in_vp")


def _load_body(path):
    try:
        with open(path) as fh:
            return body_from_json(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read body file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"malformed body file {path}: {exc}") from exc


def _parse_orders(text, n):
    try:
        orders = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad order list {text!r}") from exc
    if not orders:
        raise InputError(f"no orders in {text!r}")
    for p in orders:
        _finite_order(p)
        if abs(p + n) < 1e-6:
            raise InputError(f"order p = {p} equals the excluded value -n for n = {n}")
    return orders


def _emit(payload, fmt, out):
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    elif fmt == "csv":
        lines = ["key,value"]
        for key, value in _flatten(payload):
            lines.append(f"{key},{value}")
        text = "\n".join(lines)
    else:
        lines = []
        for key, value in _flatten(payload):
            if isinstance(value, float):
                lines.append(f"{key} = {value:.9g}")
            else:
                lines.append(f"{key} = {value}")
        text = "\n".join(lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(payload, prefix=""):
    items = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            items.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    else:
        items.append((prefix.rstrip("."), payload))
    return items


def _cmd_compute(args):
    K = _load_body(args.body)
    n = K.dim
    orders = _parse_orders(args.p, n) if args.p else [1.0]
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    if not quantities:
        raise InputError(f"no quantities in {args.quantities!r}")
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise InputError(f"unknown quantities: {sorted(unknown)}")
    Q = _load_body(args.q_body) if args.q_body else ball(n)
    if Q.dim != n:
        raise InputError(f"--q-body has dimension {Q.dim}, the body {n}")
    grid = default_grid(n, args.grid)
    out = {}
    errors = 0
    for quantity in quantities:
        try:
            if quantity == "volume":
                out["volume"] = K.volume()
            elif quantity == "polar_volume":
                out["polar_volume"] = K.polar().volume()
            elif quantity == "mahler":
                out["mahler"] = mahler(K)
            elif quantity == "vp":
                out["vp"] = {str(p): mixed_volume_p(K, Q, p, grid) for p in orders}
            elif quantity == "sp":
                out["sp"] = {str(p): p_surface_area(K, p, grid) for p in orders}
            elif quantity == "asp":
                out["asp"] = {str(p): affine_surface_area_p(K, p, grid) for p in orders}
            elif quantity == "in_vp":
                out["in_vp"] = {str(p): bool(in_vp(K, p, grid).member) for p in orders}
        except GeominimaError as exc:
            out[quantity] = {"error": str(exc)}
            errors += 1
    _emit(out, args.format, args.out)
    return 1 if errors == len(quantities) else 0


def _cmd_estimate(args):
    K = _load_body(args.body)
    orders = _parse_orders(str(args.p), K.dim)
    est = estimate_gp(K, orders[0], restarts=args.restarts, seed=args.seed,
                      grid=default_grid(K.dim, args.grid))
    payload = est.to_json()
    payload["tolerance_note"] = "one-sided bound; see direction"
    _emit(payload, args.format, args.out)
    return 0


def _cmd_verify(args):
    if args.config:
        try:
            with open(args.config) as fh:
                config = HarnessConfig.from_dict(json.load(fh))
        except OSError as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise InputError(f"malformed config {args.config}: {exc}") from exc
    else:
        config = HarnessConfig()
    if args.seed is not None:
        config = HarnessConfig.from_dict({**config.to_dict(), "seed": args.seed})
    if args.checks is not None:
        wanted = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        config = HarnessConfig.from_dict({**config.to_dict(), "checks": wanted})
    report = run_suite(config)
    with open(args.out, "wb") as fh:
        fh.write(report.to_json_bytes())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    totals = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in report.results:
        totals[r.verdict] += 1
    print(f"checks: {len(report.results)}  pass: {totals['pass']}  "
          f"fail: {totals['fail']}  inconclusive: {totals['inconclusive']}")
    print(f"report written to {args.out}")
    return report.exit_status


def _cmd_generate(args):
    K = random_body(args.kind, args.n, size=args.size, seed=args.seed)
    _emit(K.to_json(), "json", args.out)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; only a process that
    calls ``main`` more than once gains from that."""
    parser = argparse.ArgumentParser(
        prog="geominima",
        description="convex-geometry functionals, geominimal estimates, and "
                    "inequality verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate functionals on a body")
    p_compute.add_argument("--body", required=True)
    p_compute.add_argument("--quantities", default="volume,polar_volume,mahler")
    p_compute.add_argument("--p", default="", help="comma-separated orders")
    p_compute.add_argument("--q-body", default=None, help="second body for vp")
    p_compute.add_argument("--grid", type=int, default=4096)
    p_compute.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_compute.add_argument("--out", default=None)
    p_compute.set_defaults(func=_cmd_compute)

    p_est = sub.add_parser("estimate", help="one-sided geominimal estimate")
    p_est.add_argument("--body", required=True)
    p_est.add_argument("--p", type=float, required=True)
    p_est.add_argument("--restarts", type=int, default=8)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--grid", type=int, default=4096)
    p_est.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=_cmd_estimate)

    p_verify = sub.add_parser("verify", help="run the inequality suite")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--checks", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default="report.json")
    p_verify.add_argument("--csv", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="seeded random body")
    p_gen.add_argument("--kind", required=True,
                       choices=("polytope-hull", "ellipsoid", "fourier2d", "shifted-ball"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--size", type=int, default=12)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        # --p always takes one value, but argparse reads "--p -4,1" or
        # "--p -inf" as two options; pass it on as "--p=-4,1"
        if argv[i - 1] == "--p" and argv[i].startswith("-"):
            argv[i - 1:i + 1] = [f"--p={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeominimaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
