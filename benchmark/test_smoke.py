"""Smoke test of the benchmark itself.

    python3 -m pytest -q benchmark/test_smoke.py

Runs one op of each workload with its checks (the verify op is a full
default suite, about a minute), shows that every check fails when the value
it checks is perturbed, and that two traced runs give the same counts.
Working files go to ``.bench_out/smoke`` under the checkout root.
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from geominima import cli  # noqa: E402

OUT = ROOT / ".bench_out" / "smoke"
SEED = 5


def _workload(name):
    return workloads.make(name, cli, OUT, ROOT / "src" / "geominima")


def _run_op(name):
    wl = _workload(name)
    op = wl.make_op(SEED, 0)
    wl.run(op)
    return wl, op


@pytest.fixture(scope="module")
def estimate_op():
    return _run_op("estimate")


@pytest.fixture(scope="module")
def compute_op():
    return _run_op("compute")


def _outputs(op):
    return [(item, json.loads(item[-1].read_text())) for item in op.items]


def _scaled(value, factor=1.001):
    return value * factor


def test_verify_op_passes_its_checks():
    wl, op = _run_op("verify")
    assert wl.outcome(op) == (False, [])


def test_estimate_op_passes_its_checks(estimate_op):
    wl, op = estimate_op
    assert wl.outcome(op) == (False, [])
    assert len(op.calls) == len(inputs.ESTIMATE_SLOTS)


def test_compute_op_passes_its_checks(compute_op):
    wl, op = compute_op
    assert wl.outcome(op) == (False, [])
    vpoly = json.loads(op.items[0][-1].read_text())
    assert vpoly["volume"] > 0


def test_estimate_checks_catch_perturbations(estimate_op):
    _, op = estimate_op
    missed = []
    for (body, p, out), result in _outputs(op):
        cases = {
            "value": lambda r: r.update(value=_scaled(r["value"])),
            "objective_at_K": lambda r: r.update(objective_at_K=_scaled(r["objective_at_K"])),
            "objective_at_B": lambda r: r.update(objective_at_B=_scaled(r["objective_at_B"])),
            "direction": lambda r: r.update(direction="lower" if r["direction"] == "upper"
                                            else "upper"),
            "p": lambda r: r.update(p=r["p"] + 0.25),
        }
        if body["repr"]["type"].endswith("polytope"):
            cases["witness"] = _perturb_witness
        for label, perturb in cases.items():
            bad = copy.deepcopy(result)
            perturb(bad)
            if not checks.check_estimate(body, p, bad):
                missed.append(f"{out.name}: {label}")
    assert missed == []


def _perturb_witness(result):
    rep = result["witness"]["repr"]
    key = {"ellipsoid": "matrix", "h-polytope": "offsets", "v-polytope": "vertices"}[rep["type"]]
    rep[key] = _nested_scale(rep[key], 1.01)


def _nested_scale(value, factor):
    if isinstance(value, list):
        # scale only the first entry, so the witness changes shape, not just size
        return [_nested_scale(value[0], factor)] + value[1:]
    return value * factor


def test_estimate_side_check_catches_a_crossed_bound(estimate_op):
    _, op = estimate_op
    (body, p, _), result = _outputs(op)[0]
    bad = dict(result)
    bound = min if p > 0 else max
    bad["value"] = bound(result["objective_at_K"], result["objective_at_B"]) * (1.01 if p > 0 else 0.99)
    assert any("fixed candidate" in e for e in checks.check_estimate(body, p, bad))


def test_compute_checks_catch_perturbations(compute_op):
    _, op = compute_op
    missed = []
    for (body, quantities, out), result in _outputs(op):
        targets = [(q, None) for q in ("volume", "polar_volume", "mahler")]
        for q in ("vp", "sp", "asp"):
            if q in quantities:
                targets += [(q, key) for key in result[q]]
        for q, key in targets:
            bad = copy.deepcopy(result)
            if key is None:
                bad[q] = _scaled(bad[q])
            else:
                bad[q][key] = _scaled(bad[q][key])
            if not checks.check_compute(body, quantities, inputs.COMPUTE_ORDERS, bad):
                missed.append(f"{out.name}: {q}[{key}]")
        if "in_vp" in quantities:
            for key in result["in_vp"]:
                bad = copy.deepcopy(result)
                bad["in_vp"][key] = not bad["in_vp"][key]
                if not checks.check_compute(body, quantities, inputs.COMPUTE_ORDERS, bad):
                    missed.append(f"{out.name}: in_vp[{key}]")
    assert missed == []


def test_compute_error_entry_fails_the_op(compute_op):
    wl, op = compute_op
    body, quantities, out = op.items[1]
    result = json.loads(out.read_text())
    result["asp"] = {"error": "simulated"}
    broken = out.with_name("broken-" + out.name)
    broken.write_text(json.dumps(result))
    op_copy = workloads.Op(op.calls, [(body, quantities, broken)])
    op_copy.codes = [0]
    failed, errs = wl.outcome(op_copy)
    assert failed and "simulated" in errs[0]


def test_nonzero_exit_fails_the_op(compute_op):
    wl, op = compute_op
    op_copy = workloads.Op(op.calls, op.items)
    op_copy.codes = [0, 2, 0, 0, 0]
    op_copy.log = "error: simulated"
    assert wl.outcome(op_copy)[0]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A verify report with every kind the checks read, on a small config."""
    tmp = tmp_path_factory.mktemp("verify")
    config = tmp / "config.json"
    config.write_text(json.dumps({"mahler_count": 3, "n_random": 1,
                                  "checks": ["translation_balls", "cyclic_monotone",
                                             "blaschke_santalo"]}))
    out = tmp / "report.json"
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_verify_checks_catch_perturbations(small_report):
    assert checks.check_verify(small_report) == []
    missed = []
    for i, r in enumerate(small_report["results"]):
        cid = r["check_id"]
        body = r["instance"].get("body", {})
        sides = {"translation_balls": ("rhs",), "cyclic_exact": ("lhs", "rhs"),
                 "monotone_exact": ("lhs", "rhs"), "blaschke_santalo": ("rhs",)}.get(cid, ())
        if cid == "blaschke_santalo" and body.get("repr", {}).get("type") == "ellipsoid":
            sides = ("lhs", "rhs")
        for side in sides:
            bad = copy.deepcopy(small_report)
            bad["results"][i][side] = _scaled(r[side])
            if not checks.check_verify(bad):
                missed.append(f"{cid} #{i} {side}")
    assert missed == []
    bad = copy.deepcopy(small_report)
    bad["results"][0]["verdict"] = "fail"
    bad["summary"][bad["results"][0]["check_id"]]["fail"] += 1
    bad["summary"][bad["results"][0]["check_id"]]["pass"] -= 1
    assert any("fail verdicts" in e for e in checks.check_verify(bad))


def test_verify_digest_mismatch_is_reported(tmp_path):
    wl = workloads.make("verify", cli, tmp_path, ROOT / "src" / "geominima")
    assert wl._check_digest("verify", "a" * 64) == []
    assert wl._check_digest("verify", "a" * 64) == []
    assert wl._check_digest("verify", "b" * 64) != []


def test_planar_in_vp_reference():
    # a disk: g is constant, so g + g'' = g > 0
    assert checks.planar_in_vp(np.ones(4096), 0.5) is True
    t = 2 * math.pi * np.arange(4096) / 4096
    # g = 1 + 0.5 cos 3t has g + g'' = 1 - 4 cos 3t, negative somewhere
    g = 1 + 0.5 * np.cos(3 * t)
    assert checks.planar_in_vp(g ** -(2.0 + 0.5), 0.5) is False


def _traced_counts():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "compute",
                          "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["bodies.polar_fourier_calls"] > 0
