import io
import math

import pytest

from dapclust.cli import epsilon_grid_report, load_labels, run
from dapclust.core import Dataset


def gen(tmp_path, name="data.csv", kind="blobs", n=200, clusters=3, seed=7, extra=()):
    out = tmp_path / name
    code = run(
        [
            "--generate", kind,
            "--n", str(n),
            "--clusters", str(clusters),
            "--seed", str(seed),
            "--output", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


def test_generate_is_byte_identical(tmp_path):
    a = gen(tmp_path, "a.csv")
    b = gen(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.truth.csv").exists()


def test_generate_unknown_kind(tmp_path):
    code = run(["--generate", "spiral", "--output", str(tmp_path / "x.csv")])
    assert code != 0


def test_run_dapc_end_to_end(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "labels.csv"
    report = tmp_path / "report.txt"
    code = run(
        [
            "--algorithm", "dapc",
            "--m", "3",
            "--input", str(data),
            "--output", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "point_index,cluster_label"
    assert len(lines) == 201
    rep = report.read_text().strip()
    assert rep.startswith("algorithm=dapc")
    assert "\n" not in rep
    assert "clusters=" in rep and "t_total=" in rep
    assert float(dict(kv.split("=") for kv in rep.split())["t_thresholds"]) > 0
    assert int(dict(kv.split("=") for kv in rep.split())["region_pairs"]) >= 200
    # report cluster count agrees with the emitted labels
    reported = int(dict(kv.split("=") for kv in rep.split())["clusters"])
    emitted = {lb for lb in load_labels(out) if lb != -1}
    assert reported == len(emitted)


def test_run_rejects_non_finite_c(tmp_path, capsys):
    data = gen(tmp_path)
    for c in ("nan", "inf"):
        out = tmp_path / f"labels-{c}.csv"
        code = run(["--algorithm", "dapc", "--c", c, "--input", str(data), "--output", str(out)])
        assert code == 1
        assert "c must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_run_is_reproducible(tmp_path):
    data = gen(tmp_path)
    out1, out2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    for out in (out1, out2):
        assert run(["--algorithm", "dapc", "--m", "3", "--input", str(data), "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_all_algorithms_run(tmp_path):
    data = gen(tmp_path)
    for extra, name in [
        ((), "naive"),
        ((), "dapc"),
        (("--epsilon", "2.0"), "dbscan"),
        (("--k", "3"), "kmeans"),
    ]:
        out = tmp_path / f"{name}.csv"
        code = run(["--algorithm", name, "--m", "3", "--input", str(data), "--output", str(out), *extra])
        assert code == 0, name
        assert len(load_labels(out)) == 200


def test_kmeans_requires_k(tmp_path):
    data = gen(tmp_path)
    code = run(["--algorithm", "kmeans", "--input", str(data), "--output", str(tmp_path / "o.csv")])
    assert code == 2


def test_dbscan_requires_epsilon(tmp_path):
    data = gen(tmp_path)
    code = run(["--algorithm", "dbscan", "--input", str(data), "--output", str(tmp_path / "o.csv")])
    assert code == 2


def test_missing_input_is_usage_error(tmp_path):
    assert run(["--algorithm", "dapc", "--output", str(tmp_path / "o.csv")]) == 2


def test_unreadable_input(tmp_path):
    code = run(
        ["--algorithm", "dapc", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")]
    )
    assert code == 1


def test_bad_row_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    code = run(["--algorithm", "naive", "--input", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert "row 2" in capsys.readouterr().err


def test_header_flag(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("x,y\n0,0\n1,1\n")
    out = tmp_path / "o.csv"
    assert run(["--algorithm", "naive", "--m", "1", "--header", "--input", str(f), "--output", str(out)]) == 0
    assert len(load_labels(out)) == 2


def test_canopy_flags_must_pair(tmp_path):
    data = gen(tmp_path)
    code = run(
        ["--algorithm", "dapc", "--canopy-t1", "3.0", "--input", str(data), "--output", str(tmp_path / "o.csv")]
    )
    assert code == 2


def test_generate_rings_and_bridge(tmp_path):
    rings = tmp_path / "rings.csv"
    assert run(["--generate", "rings", "--n", "120", "--clusters", "2", "--seed", "1", "--output", str(rings)]) == 0
    assert len(rings.read_text().splitlines()) == 120
    bridge = tmp_path / "bridge.csv"
    assert run(["--generate", "bridge", "--n", "102", "--j", "2", "--seed", "0", "--output", str(bridge)]) == 0
    truth = load_labels(tmp_path / "bridge.truth.csv")
    assert truth.count(-1) == 2  # the chain is ground-truth noise


def test_max_regions_per_point_flag(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "o.csv"
    code = run(
        [
            "--algorithm", "dapc",
            "--m", "3",
            "--max-regions-per-point", "1",
            "--input", str(data),
            "--output", str(out),
        ]
    )
    assert code == 0
    assert len(load_labels(out)) == 200


def test_svg_output(tmp_path):
    data = gen(tmp_path, n=50)
    out = tmp_path / "o.csv"
    svg = tmp_path / "plot.svg"
    assert run(["--algorithm", "dapc", "--input", str(data), "--output", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 50


def test_svg_noise_rendered_distinctly(tmp_path):
    bridge = tmp_path / "bridge.csv"
    assert run(["--generate", "bridge", "--n", "102", "--j", "2", "--seed", "0", "--output", str(bridge)]) == 0
    out = tmp_path / "o.csv"
    svg = tmp_path / "plot.svg"
    assert run(
        ["--algorithm", "dapc", "--m", "3", "--input", str(bridge), "--output", str(out), "--svg", str(svg)]
    ) == 0
    text = svg.read_text()
    assert text.count('fill="none"') == 2  # the two bridge points are noise


def test_svg_refuses_3d(tmp_path):
    f = tmp_path / "d3.csv"
    f.write_text("0,0,0\n1,1,1\n0,1,0\n")
    code = run(
        [
            "--algorithm", "naive",
            "--m", "1",
            "--input", str(f),
            "--output", str(tmp_path / "o.csv"),
            "--svg", str(tmp_path / "p.svg"),
        ]
    )
    assert code == 1


def test_bench_table(tmp_path, capsys):
    data = gen(tmp_path, n=150)
    truth = tmp_path / "data.truth.csv"
    code = run(
        [
            "--bench", "naive,dapc,kmeans",
            "--k", "3",
            "--m", "3",
            "--input", str(data),
            "--truth", str(truth),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "algorithm" in table
    for name in ("naive", "dapc", "kmeans"):
        assert name in table


def test_bench_ari_of_truth_against_itself(tmp_path, capsys):
    # clustering scored against its own labels as truth: ari column is 1.0
    data = gen(tmp_path, n=120)
    out = tmp_path / "labels.csv"
    assert run(["--algorithm", "dapc", "--m", "3", "--input", str(data), "--output", str(out)]) == 0
    code = run(["--bench", "dapc", "--m", "3", "--input", str(data), "--truth", str(out)])
    assert code == 0
    assert " 1.0000" in capsys.readouterr().out


def test_bench_empty_list(tmp_path):
    data = gen(tmp_path)
    assert run(["--bench", "", "--input", str(data)]) == 2


def test_bench_unknown_algorithm(tmp_path):
    data = gen(tmp_path)
    assert run(["--bench", "dapc,magic", "--input", str(data)]) == 2


def test_report_carries_region_summary(tmp_path):
    # Two far groups on the x axis, one canopy each at m = 2: regions of 4
    # and 6 points, scan radii 1.5 and 2.0, and 4 and 5 core points (the
    # point at 108 has no neighbour within 2).
    data = tmp_path / "lines.csv"
    data.write_text("".join(f"{x},0\n" for x in (0, 1, 2, 3, 100, 101, 102, 103, 104, 108)))
    report = tmp_path / "report.txt"
    code = run(
        [
            "--algorithm", "dapc",
            "--m", "2",
            "--canopy-t1", "10",
            "--canopy-t2", "10",
            "--input", str(data),
            "--output", str(tmp_path / "labels.csv"),
            "--report", str(report),
        ]
    )
    assert code == 0
    rep = dict(kv.split("=") for kv in report.read_text().split())
    assert {k: rep[k] for k in rep if k.split("_")[0] in ("size", "eps", "core")} == {
        "size_p50": "5",
        "size_p90": "5.8",
        "eps_p50": "1.75",
        "eps_p90": "1.95",
        "eps_max": "2",
        "core_p50": "4.5",
        "core_p90": "4.9",
        "core_max": "5",
    }


def test_report_counts_repeat_points(tmp_path):
    # The point (1, 0) eight times at m = 2: the five copies past the third
    # are repeat points. The far group has none.
    data = tmp_path / "copies.csv"
    data.write_text("".join(f"{x},0\n" for x in (0, 1, 2, 3, 1, 1, 1, 1, 1, 1, 1, 100, 101, 102)))
    report = tmp_path / "report.txt"
    args = ["--algorithm", "dapc", "--m", "2", "--input", str(data)]
    assert run([*args, "--output", str(tmp_path / "labels.csv"), "--report", str(report)]) == 0
    rep = dict(kv.split("=") for kv in report.read_text().split())
    assert rep["repeat_points"] == "5"
    data.write_text("".join(f"{x},0\n" for x in (0, 1, 2, 3, 100, 101, 102)))
    assert run([*args, "--output", str(tmp_path / "labels.csv"), "--report", str(report)]) == 0
    assert dict(kv.split("=") for kv in report.read_text().split())["repeat_points"] == "0"


def test_report_counts_distinct_points(tmp_path):
    # The point (1, 0) eight times among seven locations: the regions' range
    # pass measures each location once. Without the copies, every point is
    # its own location.
    data = tmp_path / "copies.csv"
    data.write_text("".join(f"{x},0\n" for x in (0, 1, 2, 3, 1, 1, 1, 1, 1, 1, 1, 100, 101, 102)))
    report = tmp_path / "report.txt"
    args = ["--algorithm", "dapc", "--m", "2", "--input", str(data)]
    assert run([*args, "--output", str(tmp_path / "labels.csv"), "--report", str(report)]) == 0
    rep = dict(kv.split("=") for kv in report.read_text().split())
    assert (rep["n"], rep["distinct_points"]) == ("14", "7")
    data.write_text("".join(f"{x},0\n" for x in (0, 1, 2, 3, 100, 101, 102)))
    assert run([*args, "--output", str(tmp_path / "labels.csv"), "--report", str(report)]) == 0
    assert dict(kv.split("=") for kv in report.read_text().split())["distinct_points"] == "7"


def test_epsilon_grid_starts_at_smallest_positive_gap():
    # An exact repeat lies at distance 0 from its copy; the grid starts at
    # the smallest positive nearest-neighbour distance instead.
    data = Dataset.from_coords([(0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (3.0, 4.0)])
    rows = epsilon_grid_report([("repeat", data, [0, 0, 0, 1])], m=2, grid_size=5, out=io.StringIO())
    grid = [row["epsilon"] for row in rows]
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(5.0)
    # Every location has a copy, so every nearest distance over all rows is
    # 0; the distinct locations lie sqrt(2) apart.
    data = Dataset.from_coords([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
    rows = epsilon_grid_report([("pairs", data, [0, 0, 1, 1])], m=2, grid_size=5, out=io.StringIO())
    assert rows[0]["epsilon"] == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError, match="two distinct points"):
        epsilon_grid_report([("same", Dataset.from_coords([(1.0, 2.0)] * 3), [0, 0, 0])], m=2)
