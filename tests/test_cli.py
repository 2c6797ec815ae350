"""End-to-end CLI tests: subcommands, JSON output, exit codes."""

import json

import numpy as np
import pytest

from robustfit.cli import main
from robustfit.fileio import parse_correspondences, parse_records


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


def test_estimate_usage_error_on_double_threshold(synth_file, capsys):
    path, _ = synth_file
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(path), "--sigma", "0.01", "--epsilon", "2",
    )
    assert code == 2


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
