"""End-to-end CLI tests: subcommands, JSON output, exit codes."""

import inspect
import json
import re

import numpy as np
import pytest

from robustfit import cli
from robustfit.bench import SELECT_TOLERANCE, BenchSettings, select_thresholds
from robustfit.cli import main
from robustfit.fileio import (BenchRecord, parse_correspondences, parse_records,
                              write_correspondences, write_records)
from robustfit.ransac import RansacConfig
from robustfit.synth import SynthConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_file(tmp_path, capsys):
    path = tmp_path / "scene.rf"
    code, out, err = run_cli(
        capsys,
        "synth", "--problem", "homography", "--inliers", "60", "--outliers", "60",
        "--noise", "1", "--seed", "7", "--out", str(path),
    )
    assert code == 0
    truth = json.loads(err)
    return path, np.array(truth["truth_model"]).reshape(3, 3)


def test_synth_deterministic_and_reparsable(tmp_path, capsys):
    a = tmp_path / "a.rf"
    b = tmp_path / "b.rf"
    args = ["synth", "--problem", "homography", "--inliers", "100", "--outliers", "100",
            "--noise", "1", "--seed", "7"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    data = parse_correspondences(a)
    assert data.n == 200
    assert int(np.count_nonzero(data.labels)) == 100


def test_estimate_reports_sigma_epsilon(synth_file, capsys):
    path, _ = synth_file
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--sigma", "0.0025",
        "--lo", "dpcp", "--seed", "3",
    )
    assert code == 0
    result = json.loads(out)
    assert result["epsilon"] == pytest.approx(2.0)
    assert len(result["model"]) == 9
    assert result["error_on_validation"] < 3.0


def test_estimate_noiseless_near_zero_error(tmp_path, capsys):
    path = tmp_path / "clean.rf"
    run_cli(capsys, "synth", "--problem", "homography", "--inliers", "50",
            "--seed", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--epsilon", "1.0", "--lo", "dpcp",
    )
    assert code == 0
    assert json.loads(out)["error_on_validation"] <= 1e-6


def test_estimate_byte_identical_except_wall(synth_file, capsys):
    path, _ = synth_file
    args = ("estimate", "--input", str(path), "--sigma", "0.005", "--lo", "dlt", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    a = json.loads(out1)
    b = json.loads(out2)
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ``estimate`` output of the seeded scene above (H 60/60, noise 1, seed 7) at
# sigma 0.005 and RANSAC seed 11, wall time aside, recorded from code that
# gives the golden file's results.
ESTIMATE_RECORDS = {
    "dpcp": {"epsilon": 4.0, "error_on_validation": 1.0948643541550553, "inlier_count": 60,
             "iterations": 49, "lo_invocations": 2, "lo_method": "dpcp",
             "model": [-0.006773660154377171, -0.0003941413566454213, 0.28103919299460134,
                       0.00032814925053707537, -0.007106814429028271, 0.959618410707497,
                       6.67775202190756e-07, 1.1029291273585713e-07, -0.007268116616234199],
             "problem": "homography", "score": 54.027783004163226, "seed": 11},
    "huber": {"epsilon": 4.0, "error_on_validation": 1.1226137202430981, "inlier_count": 60,
              "iterations": 49, "lo_invocations": 2, "lo_method": "huber",
              "model": [-0.006768760643740191, -0.0003935314178187653, 0.2812755321631369,
                        0.0003265200110891434, -0.007100624807891939, 0.9595492724456984,
                        6.46630072867936e-07, 1.368619193147788e-07, -0.007264453126638085],
              "problem": "homography", "score": 54.056194911024974, "seed": 11},
}


@pytest.mark.parametrize("case", sorted(ESTIMATE_RECORDS))
def test_estimate_json_equals_record(synth_file, capsys, case):
    path, _ = synth_file
    record = ESTIMATE_RECORDS[case]
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--sigma", "0.005",
                           "--lo", case, "--seed", "11")
    assert code == 0
    masked = re.sub(r'"wall_ms": [^\n]*', '"wall_ms": 0.0', out)
    assert masked == json.dumps({**record, "wall_ms": 0.0}, indent=2, sort_keys=True) + "\n"


def test_estimate_usage_error_on_double_threshold(synth_file, capsys):
    path, _ = synth_file
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(path), "--sigma", "0.01", "--epsilon", "2",
    )
    assert code == 2


@pytest.mark.parametrize("thresholds", [("--sigma", "0.01", "--epsilon", "2"), ()],
                         ids=["both", "neither"])
def test_estimate_needs_exactly_one_threshold(synth_file, capsys, thresholds):
    path, _ = synth_file
    code, out, err = run_cli(capsys, "estimate", "--input", str(path), *thresholds)
    assert code == 2
    assert out == ""
    assert err == "robustfit: exactly one of epsilon or sigma must be set\n"


@pytest.mark.parametrize("records", [0, 1, 3])
def test_too_few_correspondences_exit_code(tmp_path, capsys, records):
    """A homography file with fewer records than one 4-point sample exits 4,
    the header-only file included."""
    lines = ["# robustfit v1 homography 640 480"]
    lines += [f"{10 * i} {20 * i + 5} {30 * i + 1} {15 * i}" for i in range(records)]
    path = tmp_path / "few.rf"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--epsilon", "2")
    assert code == 4
    assert out == ""
    assert err == f"robustfit: {records} correspondences < minimal sample size 4\n"


class _Built(Exception):
    """Raised by a stand-in to stop a command once it has built its settings."""


def _built(monkeypatch, name, *argv):
    """The arguments a command passes to ``cli.<name>`` when run with ``argv``."""
    seen = []

    def stand_in(*args, **kwargs):
        seen.append(args)
        raise _Built

    monkeypatch.setattr(cli, name, stand_in)
    with pytest.raises(_Built):
        main(list(argv))
    return seen[0]


def test_required_flags_alone_give_the_config_defaults(monkeypatch, synth_file, tmp_path):
    """Each command's defaults are those of the config it builds."""
    path, _ = synth_file
    out = str(tmp_path / "out")
    est = _built(monkeypatch, "run_ransac", "estimate", "--input", str(path), "--epsilon", "2")
    assert est[3] == RansacConfig(epsilon=2.0)
    ben = _built(monkeypatch, "run_bench", "bench", "--input", str(path), "--sigmas", "0.01",
                 "--methods", "dpcp", "--out", out)
    assert ben[5] == BenchSettings()
    syn = _built(monkeypatch, "synth_dataset", "synth", "--problem", "homography",
                 "--inliers", "20", "--out", out)
    assert syn[0] == SynthConfig("homography", 20)


def test_select_tolerance_defaults_to_the_bench_constant(monkeypatch, tmp_path):
    """``select`` without ``--tolerance`` passes the tolerance that
    ``select_thresholds`` defaults to."""
    path = tmp_path / "records.csv"
    write_records(str(path), [])
    seen = []
    monkeypatch.setattr(cli, "select_thresholds", lambda records, tolerance: seen.append(tolerance))
    monkeypatch.setattr(cli, "_print_json", lambda obj: None)
    assert main(["select", "--input", str(path)]) == 0
    assert seen == [SELECT_TOLERANCE]
    assert inspect.signature(select_thresholds).parameters["tolerance"].default == SELECT_TOLERANCE


@pytest.mark.parametrize("threshold", [("--epsilon", "nan"), ("--sigma", "inf")])
def test_estimate_non_finite_threshold_usage_error(synth_file, capsys, threshold):
    path, _ = synth_file
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path), *threshold)
    assert code == 2
    assert out == ""


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rf"
    bad.write_text("# not a header\n1 2 3 4\n")
    code, _, err = run_cli(capsys, "estimate", "--input", str(bad), "--epsilon", "2")
    assert code == 3
    assert "parse error" in err


def test_estimation_failed_exit_code(tmp_path, capsys):
    # Collinear view-1 points: every minimal sample is degenerate.
    lines = ["# robustfit v1 homography 640 480"]
    rng = np.random.default_rng(0)
    for i in range(20):
        t = i / 19.0
        lines.append(f"{10 + 600 * t:.9g} {20 + 400 * t:.9g} "
                     f"{rng.uniform(0, 640):.9g} {rng.uniform(0, 480):.9g}")
    path = tmp_path / "degen.rf"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--epsilon", "2", "--tmax", "30",
    )
    assert code == 4
    assert json.loads(out)["error"] == "estimation_failed"


def test_bench_and_select_round_trip(tmp_path, synth_file, capsys):
    path, _ = synth_file
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--input", str(path), "--sigmas", "0.0025,0.005",
        "--methods", "none,dpcp", "--trials", "3", "--seed", "5",
        "--tmax", "200", "--out", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == 2 * 2 * 3
    records = parse_records(csv_path)
    assert len(records) == 12

    code, out, _ = run_cli(capsys, "select", "--input", str(csv_path))
    assert code == 0
    chosen = json.loads(out)
    assert set(chosen) == {"none", "dpcp"}
    assert chosen["dpcp"]["sigma"] in (0.0025, 0.005)


def test_file_with_no_inlier_label(tmp_path, capsys):
    """A labeled file with no record labeled 1 has no validation set:
    estimate leaves the error out, as for an unlabeled file, and bench
    refuses the file."""
    scene = tmp_path / "scene.rf"
    run_cli(capsys, "synth", "--problem", "homography", "--inliers", "60", "--outliers", "20",
            "--seed", "0", "--out", str(scene))
    data = parse_correspondences(scene)
    path = tmp_path / "no-inliers.rf"
    write_correspondences(path, data.problem, data.image_size, data.x1, data.x2,
                          np.zeros(data.n, dtype=bool))
    code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--epsilon", "3")
    assert (code, err) == (0, "")
    assert "error_on_validation" not in json.loads(out)
    csv_path = tmp_path / "records.csv"
    code, out, err = run_cli(capsys, "bench", "--input", str(path), "--sigmas", "0.005",
                             "--methods", "none", "--trials", "1", "--out", str(csv_path))
    assert (code, out) == (2, "")
    assert err == "robustfit: dataset has no record labeled as an inlier\n"
    assert not csv_path.exists()


def test_bench_empty_sweep_usage_error(synth_file, capsys):
    path, _ = synth_file
    code, _, _ = run_cli(
        capsys, "bench", "--input", str(path), "--sigmas", ",", "--methods", "dpcp",
        "--trials", "1", "--out", "/tmp/x.csv",
    )
    assert code == 2


def test_synth_degenerate_planar_spectrum(tmp_path, capsys):
    from robustfit.geometry import epipolar_embeddings, hartley_normalize

    path = tmp_path / "planar.rf"
    code, _, _ = run_cli(
        capsys, "synth", "--problem", "fundamental", "--inliers", "120",
        "--outliers", "40", "--seed", "3", "--degenerate-planar", "--out", str(path),
    )
    assert code == 0
    data = parse_correspondences(path)
    inl = data.validation_mask()
    _, x1n = hartley_normalize(data.x1)
    _, x2n = hartley_normalize(data.x2)
    s = np.linalg.svd(epipolar_embeddings(x1n, x2n)[:, inl].T, compute_uv=False)
    assert np.all(s[6:] <= 1e-6 * s[0])  # 3-dimensional nullspace


@pytest.mark.parametrize(
    "command, content, expected",
    [
        ("estimate", b"# robustfit v1 homography 640 480\n1 2 3 \xc3\xa9\n", 3),
        ("select", b"dataset,method\n\xff\n", 3),
        ("estimate", None, 2),
        ("bench", None, 2),
        ("select", None, 2),
        ("estimate", "directory", 2),
    ],
    ids=["estimate-non-ascii", "select-non-ascii", "estimate-missing", "bench-missing",
         "select-missing", "estimate-directory"],
)
def test_bad_input_path_or_bytes_map_to_exit_codes(tmp_path, capsys, command, content, expected):
    path = tmp_path / "input"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    extra = {
        "estimate": ["--epsilon", "2"],
        "bench": ["--sigmas", "0.01", "--methods", "none", "--out", str(tmp_path / "o.csv")],
        "select": [],
    }[command]
    code, _, err = run_cli(capsys, command, "--input", str(path), *extra)
    assert code == expected
    assert err.startswith("robustfit: ")


def test_bench_bad_sigma_list_usage_error(tmp_path, synth_file, capsys):
    path, _ = synth_file
    code, _, _ = run_cli(
        capsys, "bench", "--input", str(path), "--sigmas", "0.01,abc", "--methods", "dpcp",
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("command", ["estimate", "bench", "synth"])
def test_negative_seed_usage_error(tmp_path, synth_file, capsys, command):
    path, _ = synth_file
    args = {
        "estimate": ["--input", str(path), "--epsilon", "2"],
        "bench": ["--input", str(path), "--sigmas", "0.01", "--methods", "none",
                  "--out", str(tmp_path / "o.csv")],
        "synth": ["--problem", "homography", "--inliers", "20", "--out", str(tmp_path / "s.rf")],
    }[command]
    code, out, err = run_cli(capsys, command, *args, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("robustfit: ")


@pytest.mark.parametrize("tolerance", ["-1", "-0.5", "nan", "inf"])
def test_select_bad_tolerance_usage_error(tmp_path, capsys, tolerance):
    csv_path = tmp_path / "bench.csv"
    write_records(csv_path, [BenchRecord("ds", "dpcp", 0.005, 0, 0, 1.0, 50, 100, 3, 50.0)])
    code, out, err = run_cli(capsys, "select", "--input", str(csv_path), "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("robustfit: ")


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_bad_noise_usage_error(tmp_path, capsys, noise):
    out_path = tmp_path / "s.rf"
    code, out, err = run_cli(capsys, "synth", "--problem", "homography", "--inliers", "20",
                             "--noise", noise, "--seed", "1", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("robustfit: ")
    assert not out_path.exists()
