"""Command-line interface: exit codes, files, determinism."""

import json
import math

import numpy as np
import pytest

from geominima import bodies
from geominima.cli import build_parser, main


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    body = {"dim": 2, "repr": {"type": "h-polytope",
                               "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                               "offsets": [1, 1, 1, 1]}}
    path.write_text(json.dumps(body))
    return str(path)


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    body = {"dim": 2, "repr": {"type": "ellipsoid", "matrix": [[1, 0], [0, 1]]}}
    path.write_text(json.dumps(body))
    return str(path)


def test_generate_then_compute_round_trip(tmp_path, capsys):
    body_path = str(tmp_path / "body.json")
    assert main(["generate", "--kind", "ellipsoid", "--n", "2",
                 "--seed", "7", "--out", body_path]) == 0
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["compute", "--body", body_path, "--quantities", "volume,mahler",
                 "--out", out1]) == 0
    assert main(["compute", "--body", body_path, "--quantities", "volume,mahler",
                 "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    data = json.loads(open(out1).read())
    assert data["mahler"] == pytest.approx(math.pi ** 2, rel=1e-9)


def test_compute_square(square_file, capsys):
    assert main(["compute", "--body", square_file,
                 "--quantities", "volume,polar_volume,mahler"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["volume"] == pytest.approx(4.0)
    assert data["polar_volume"] == pytest.approx(2.0)
    assert data["mahler"] == pytest.approx(8.0)


def test_compute_asp_ball(ball_file, capsys):
    assert main(["compute", "--body", ball_file, "--quantities", "asp",
                 "--p", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["asp"]["3.0"] == pytest.approx(2 * math.pi, rel=1e-9)


def test_compute_vp_against_second_body(square_file, tmp_path, capsys):
    q_path = tmp_path / "ellipse.json"
    q_path.write_text(json.dumps(
        {"dim": 2, "repr": {"type": "ellipsoid", "matrix": [[2, 0], [0, 1]]}}))
    assert main(["compute", "--body", square_file, "--quantities", "vp",
                 "--p", "1", "--q-body", str(q_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    # atoms +-e1 see support 2, +-e2 see 1, each mass 2: V_1 = (4*2+4)/2
    assert data["vp"]["1.0"] == pytest.approx(6.0, rel=1e-12)


def test_compute_plain_format(square_file, capsys):
    assert main(["compute", "--body", square_file, "--quantities", "volume",
                 "--format", "plain"]) == 0
    assert "volume = 4" in capsys.readouterr().out


def test_compute_rejects_excluded_order(ball_file, capsys):
    assert main(["compute", "--body", ball_file, "--quantities", "asp",
                 "--p", "-2"]) == 2


def test_compute_unknown_quantity(square_file):
    assert main(["compute", "--body", square_file, "--quantities", "nope"]) == 2


def test_compute_unsupported_quantity_flagged(square_file, capsys):
    # a polytope has no curvature function: per-quantity error, exit 1
    assert main(["compute", "--body", square_file, "--quantities", "asp",
                 "--p", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert "error" in data["asp"]


def test_estimate_ball_negative_order(ball_file, capsys):
    assert main(["estimate", "--body", ball_file, "--p", "-1",
                 "--restarts", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(2 * math.pi, rel=1e-6)
    assert data["direction"] == "lower"


def test_estimate_square_p_zero(square_file, capsys):
    assert main(["estimate", "--body", square_file, "--p", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 8.0
    assert data["witness"]["repr"]["type"] == "h-polytope"


def test_verify_small_config(tmp_path, capsys):
    cfg = {"dims": [2], "p_grid": [1.0], "n_random": 1, "mahler_count": 4,
           "restarts": 2, "grid_resolution": 512, "seed": 3,
           "checks": ["volume_product", "blaschke_santalo"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    csv_path = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out1),
                 "--csv", str(csv_path)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]
    assert csv_path.read_text().startswith("check_id,instance_id")


def test_verify_checks_subset(tmp_path, capsys):
    out = tmp_path / "r.json"
    cfg = {"dims": [2], "p_grid": [1.0], "n_random": 0, "mahler_count": 2,
           "restarts": 2, "grid_resolution": 512}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path),
                 "--checks", "blaschke_santalo", "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(r["check_id"] for r in report["results"]) == {"blaschke_santalo"}
    assert report["config"]["seed"] == 7


def test_verify_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"bm_constant": 2.0}))
    assert main(["verify", "--config", str(bad2)]) == 2


def test_verify_partial_tolerances(tmp_path):
    cfg = {"dims": [2], "p_grid": [1.0], "n_random": 0, "mahler_count": 0,
           "restarts": 2, "grid_resolution": 512, "checks": ["homogeneity"],
           "tolerances": {"exact": 1e-9}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["tolerances"] == {
        "exact": 1e-9, "quadrature": 1e-6, "estimator": 1e-4}


@pytest.mark.parametrize("tolerances", [{"nonsense": 1e-3}, {"exact": 0.0},
                                        {"estimator": -1e-4}])
def test_verify_rejects_bad_tolerances(tmp_path, tolerances):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tolerances": tolerances}))
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_compute_negative_first_order(ball_file, capsys):
    assert main(["compute", "--body", ball_file, "--quantities", "sp",
                 "--p", "-1,1"]) == 0
    spaced = json.loads(capsys.readouterr().out)
    assert main(["compute", "--body", ball_file, "--quantities", "sp",
                 "--p=-1,1"]) == 0
    assert json.loads(capsys.readouterr().out) == spaced
    assert set(spaced["sp"]) == {"-1.0", "1.0"}


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["generate", "--kind", "fourier2d", "--n", "2",
                     "--seed", "11", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_missing_body_file():
    assert main(["compute", "--body", "/nonexistent.json",
                 "--quantities", "volume"]) == 2


def test_usage_error_exit_code():
    assert main(["compute"]) == 2   # missing required --body


def _assert_rejected(path, capsys):
    """compute exits 2, prints no result and reports an error."""
    assert main(["compute", "--body", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("rep", [
    {"type": "ellipsoid", "matrix": "abc"},
    {"type": "ellipsoid"},
    {"type": "fourier2d", "a": []},
    {"type": "ellipsoid", "matrix": [[math.nan, 0.0], [0.0, 1.0]]},
    {"type": "h-polytope", "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
     "offsets": [1.0, math.nan, 1.0, 1.0]},
    {"type": "fourier2d", "a": [1e160, 0, 1e158]},
    {"type": "sampled2d", "support": [1e200] * 8, "radial": [1e200] * 8},
    {"type": "h-polytope", "normals": [[1, 0], [0, 1], [0.6, 0.8]], "offsets": [1, 1, 1]},
], ids=["string-matrix", "missing-matrix", "empty-fourier", "nan-matrix", "nan-offsets",
        "huge-fourier", "huge-sampled", "unbounded-h-polytope"])
def test_compute_rejects_malformed_body(tmp_path, capsys, rep):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "repr": rep}))   # NaN is written as NaN
    _assert_rejected(path, capsys)


def test_compute_rejects_binary_body_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    _assert_rejected(path, capsys)


def test_compute_origin_near_boundary_exits_1(tmp_path, capsys):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"dim": 2, "repr": {
        "type": "h-polytope", "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "offsets": [1, 1e-9, 1, 1]}}))
    assert main(["compute", "--body", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "origin too close" in captured.err


@pytest.mark.parametrize("dim, normals, offsets", [
    (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
    (2, [[1, 0], [-1, 0]], [1, 1]),
], ids=["three-normals-3d", "opposite-pair-2d"])
def test_compute_half_space_family_too_small_for_a_hull(tmp_path, capsys, dim, normals, offsets):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"dim": dim, "repr": {
        "type": "h-polytope", "normals": normals, "offsets": offsets}}))
    assert main(["compute", "--body", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "does not bound a body" in lines[0] and "QH" not in lines[0]


def _assert_input_error(argv, capsys):
    """The call exits 2, prints no result and reports an error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("orders", ["nan", "inf", "-inf", "1,nan", "1e999"])
def test_compute_rejects_non_finite_orders(ball_file, capsys, orders):
    _assert_input_error(["compute", "--body", ball_file, "--quantities", "vp,asp",
                         f"--p={orders}"], capsys)


@pytest.mark.parametrize("order", ["nan", "inf", "-inf"])
def test_estimate_rejects_non_finite_orders(ball_file, capsys, order):
    _assert_input_error(["estimate", "--body", ball_file, f"--p={order}"], capsys)


@pytest.mark.parametrize("argv", [["estimate", "--p", "-inf"],
                                  ["estimate", "--p", "-nan"],
                                  ["estimate", "--p", "-Infinity"],
                                  ["compute", "--quantities", "vp", "--p", "-inf,1"],
                                  ["compute", "--quantities", "vp", "--p", "-nan,1"]])
def test_space_separated_non_finite_orders_reach_the_order_check(ball_file, capsys, argv):
    # --p takes one value, so a value that starts with "-" is never an option
    assert main(argv[:1] + ["--body", ball_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "not a finite number" in lines[0]


@pytest.mark.parametrize("argv", [["--quantities", ","], ["--quantities", ""],
                                  ["--quantities", "vp", "--p", ","]],
                         ids=["no-quantities", "empty-quantities", "no-orders"])
def test_compute_rejects_empty_lists(ball_file, capsys, argv):
    _assert_input_error(["compute", "--body", ball_file] + argv, capsys)


def test_estimate_rejects_negative_restarts(ball_file, capsys):
    _assert_input_error(["estimate", "--body", ball_file, "--p", "1",
                         "--restarts", "-1"], capsys)


def test_compute_on_a_fourier_body_makes_four_trig_passes(tmp_path, monkeypatch):
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(bodies.random_body("fourier2d", 2, seed=5).to_json()))
    trig = []     # per pass, its number of angles, from either entry point
    for name, size in (("_trig", lambda args: np.size(args[2])),
                       ("_grid_trig", lambda args: args[2])):
        def counted(*args, _fn=getattr(bodies, name), _size=size):
            trig.append(_size(args))
            return _fn(*args)
        monkeypatch.setattr(bodies, name, counted)
    assert main(["compute", "--body", str(path),
                 "--quantities", "volume,polar_volume,mahler,vp,sp,asp,in_vp",
                 "--p=-4,-1.5,-0.5,0,1,2", "--out", str(tmp_path / "out.json")]) == 0
    # the convexity check, the polar's radial samples, then f_K and h_K on the grid
    assert trig == [2048, 4096, 4096, 4096]


def test_one_parser_serves_repeated_compute_calls(tmp_path):
    assert build_parser() is build_parser()
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(bodies.random_body("fourier2d", 2, seed=5).to_json()))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["compute", "--body", str(path),
                     "--quantities", "volume,polar_volume,mahler,vp,sp,asp,in_vp",
                     "--p=-4,-1.5,-0.5,0,1,2", "--out", str(out)]) == 0
    assert outs[0].read_text() == outs[1].read_text()


@pytest.mark.parametrize("argv", [["estimate", "--p", "1", "--seed", "-1"],
                                  ["generate", "--kind", "ellipsoid", "--n", "2",
                                   "--seed", "-1"]],
                         ids=["estimate", "generate"])
def test_negative_seed_is_an_input_error(ball_file, capsys, argv):
    if argv[0] == "estimate":
        argv = argv[:1] + ["--body", ball_file] + argv[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:") and "seed" in lines[0]


@pytest.mark.parametrize("config, field", [
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"n_random": 1.5}, "n_random"),
    ({"grid_resolution": 64.5}, "grid_resolution"), ({"n_random": -1}, "n_random"),
    ({"mahler_count": -5}, "mahler_count"), ({"dims": []}, "dims")],
    ids=["seed-negative", "seed-float", "n_random-float", "grid_resolution-float",
         "n_random-negative", "mahler_count-negative", "dims-empty"])
def test_verify_rejects_malformed_integer_fields(tmp_path, capsys, config, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]
