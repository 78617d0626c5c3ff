from dapclust.cli import load_labels, run


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
    assert float(dict(kv.split("=") for kv in rep.split())["t_tree"]) > 0
    # report cluster count agrees with the emitted labels
    reported = int(dict(kv.split("=") for kv in rep.split())["clusters"])
    emitted = {lb for lb in load_labels(out) if lb != -1}
    assert reported == len(emitted)


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
