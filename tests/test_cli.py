import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from pcc import cli, construct, io, verify
from pcc.cli import main
from pcc.graphs import (
    EdgeColoring,
    InvariantViolation,
    cycle_graph,
    double_star_graph,
    hypercube_graph,
    path_graph,
    random_tree,
    star_graph,
    wheel_graph,
)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_verify_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "w9.edges"
    color_file = tmp_path / "w9.pcc"
    code, out, _ = run(["generate", "--family", "wheel", "--n", "9", "-o", str(graph_file)], capsys)
    assert code == 0 and "vertices 10" in out
    assert io.read_graph(graph_file.read_text()) == wheel_graph(9)

    code, out, _ = run(
        ["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", str(color_file)],
        capsys,
    )
    assert code == 0
    assert "colors_used 3" in out and "verified true" in out

    code, out, _ = run(
        ["verify", "--graph", str(graph_file), "--coloring", str(color_file), "--ell", "2"],
        capsys,
    )
    assert code == 0 and "verified true" in out


def test_verify_reports_failing_pair(tmp_path, capsys):
    graph_file = tmp_path / "p4.edges"
    graph_file.write_text(io.write_graph(path_graph(4)))
    bad = tmp_path / "bad.pcc"
    bad.write_text("0 1 1\n1 2 2\n2 3 1\n")
    code, out, _ = run(
        ["verify", "--graph", str(graph_file), "--coloring", str(bad), "--ell", "2"],
        capsys,
    )
    assert code == 1
    assert "verified false" in out and "failing_pair 0 3" in out


def test_exact_command(tmp_path, capsys):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text(io.write_graph(cycle_graph(4)))
    witness = tmp_path / "c4.pcc"
    code, out, _ = run(
        ["exact", "--graph", str(graph_file), "--ell", "2", "--max-colors", "4",
         "-o", str(witness)],
        capsys,
    )
    assert code == 0 and "min_colors 2" in out
    code, out, _ = run(
        ["verify", "--graph", str(graph_file), "--coloring", str(witness), "--ell", "2"],
        capsys,
    )
    assert code == 0


def test_exact_inconclusive_budget(tmp_path, capsys):
    graph_file = tmp_path / "c6.edges"
    graph_file.write_text(io.write_graph(cycle_graph(6)))
    code, out, _ = run(
        ["exact", "--graph", str(graph_file), "--ell", "2", "--max-edges", "3"],
        capsys,
    )
    assert code == 1 and "inconclusive true" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.edges"
    broken.write_text("3 1\n0 9\n")
    code, _, err = run(
        ["verify", "--graph", str(broken), "--coloring", str(broken), "--ell", "2"],
        capsys,
    )
    assert code == 2 and "line 2" in err


def test_color_method_join(tmp_path, capsys):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    a.write_text(io.write_graph(path_graph(2)))
    b.write_text(io.write_graph(path_graph(3)))
    out_file = tmp_path / "join.pcc"
    graph_out = tmp_path / "join.edges"
    code, out, _ = run(
        ["color", "--input", str(a), "--input2", str(b), "--method", "join",
         "--ell", "2", "-o", str(out_file), "--graph-out", str(graph_out)],
        capsys,
    )
    assert code == 0 and "verified true" in out
    code, out, _ = run(
        ["verify", "--graph", str(graph_out), "--coloring", str(out_file), "--ell", "2"],
        capsys,
    )
    assert code == 0


def test_color_method_permutation(tmp_path, capsys):
    a = tmp_path / "p4.edges"
    a.write_text(io.write_graph(path_graph(4)))
    out_file = tmp_path / "perm.pcc"
    graph_out = tmp_path / "perm.edges"
    code, out, _ = run(
        ["color", "--input", str(a), "--method", "permutation", "--alpha", "2,4,1,3",
         "--ell", "2", "-o", str(out_file), "--graph-out", str(graph_out)],
        capsys,
    )
    assert code == 0 and "verified true" in out


def test_color_reuses_constructor_certificate(tmp_path, capsys, monkeypatch):
    # color_cartesian, color_2connected and color_permutation_graph verify
    # their own output; `pcc color` prints their certificate instead of
    # verifying again, and runs the verdict scan only on what other
    # constructors return.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = verify.first_failing_pair
    monkeypatch.setattr(verify, "first_failing_pair", counting)
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    c6, p4 = tmp_path / "c6.edges", tmp_path / "p4.edges"
    a.write_text(io.write_graph(path_graph(2)))
    b.write_text(io.write_graph(double_star_graph(3, 3)))
    c6.write_text(io.write_graph(cycle_graph(6)))
    p4.write_text(io.write_graph(path_graph(4)))
    out_file = tmp_path / "out.pcc"
    for argv in (
        ["--input", str(a), "--input2", str(b), "--method", "cartesian"],
        ["--input", str(c6), "--method", "2connected"],
        ["--input", str(p4), "--method", "permutation", "--alpha", "2,4,1,3"],
    ):
        code, out, _ = run(["color", *argv, "--ell", "2", "-o", str(out_file)], capsys)
        assert code == 0 and "verified true" in out
    assert calls == []
    code, out, _ = run(
        ["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", str(out_file)], capsys
    )
    assert code == 0 and "verified true" in out
    assert len(calls) == 1


def test_k1_verdicts_build_no_certificate(tmp_path, capsys, monkeypatch):
    # `pcc verify --k 1`, `pcc color` with a constructor that does not
    # verify itself and every `pcc table` row take their verdict from the
    # verdict scan; verify_coloring, which builds every witness, is left to
    # --k >= 2.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_coloring called")

    w9 = wheel_graph(9)
    graph_file, color_file, mono = tmp_path / "w9.edges", tmp_path / "w9.pcc", tmp_path / "mono.pcc"
    graph_file.write_text(io.write_graph(w9))
    mono.write_text(io.write_coloring(EdgeColoring({e: 1 for e in w9.edges}), w9))
    monkeypatch.setattr(verify, "verify_coloring", refuse)
    code, out, _ = run(
        ["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", str(color_file)], capsys
    )
    assert code == 0 and "verified true" in out.splitlines()
    verify_w9 = ["verify", "--graph", str(graph_file), "--coloring", str(color_file)]
    code, out, _ = run(verify_w9 + ["--ell", "2", "--k", "1"], capsys)
    assert (code, out) == (0, "verified true\n")
    code, out, _ = run(verify_w9[:3] + ["--coloring", str(mono), "--ell", "1"], capsys)
    assert (code, out) == (1, "verified false\nfailing_pair 0 2\n")
    for theorem, grid, _, _ in _TABLE_PINS:
        code, out, _ = run(
            ["table", "--theorem", theorem, *grid, "-o", str(tmp_path / "table.csv")], capsys
        )
        assert code == 0, theorem
    with pytest.raises(AssertionError, match="verify_coloring called"):
        main(verify_w9 + ["--ell", "2", "--k", "2"])


def test_color_usage_errors(tmp_path, capsys):
    code, _, err = run(
        ["color", "--family", "wheel", "--n", "5", "--input", "x", "--ell", "2",
         "-o", str(tmp_path / "x.pcc")],
        capsys,
    )
    assert code == 2 and "exactly one" in err
    out = tmp_path / "out.pcc"
    graph_file = tmp_path / "c5.edges"
    graph_file.write_text(io.write_graph(cycle_graph(5)))
    code, _, err = run(
        ["color", "--input", str(graph_file), "--ell", "2", "-o", str(out)], capsys
    )
    assert code == 2 and "--method" in err and not out.exists()
    for flag, value in (("--method", "tree"), ("--input2", str(graph_file)), ("--alpha", "2,1")):
        code, _, err = run(
            ["color", "--family", "wheel", "--n", "5", flag, value, "--ell", "2",
             "-o", str(out)],
            capsys,
        )
        assert code == 2 and flag in err and not out.exists(), flag
    # With --input, the family flags and the flags of other methods are
    # usage errors too, not silently dropped.
    for argv, flag in (
        (["--method", "tree", "--n", "99"], "--n"),
        (["--method", "tree", "--m", "3"], "--m"),
        (["--method", "tree", "--t", "3"], "--t"),
        (["--method", "tree", "--parts", "2,3"], "--parts"),
        (["--method", "tree", "--seed", "3"], "--seed"),
        (["--method", "tree", "--input2", str(graph_file)], "--input2"),
        (["--method", "permutation", "--alpha", "2,1", "--input2", str(graph_file)], "--input2"),
        (["--method", "tree", "--alpha", "2,1"], "--alpha"),
        (["--method", "join", "--input2", str(graph_file), "--alpha", "2,1"], "--alpha"),
    ):
        code, _, err = run(
            ["color", "--input", str(graph_file), *argv, "--ell", "2", "-o", str(out)], capsys
        )
        assert code == 2 and flag in err and not out.exists(), argv


def test_table_wheel_deterministic(tmp_path, capsys):
    out1 = tmp_path / "wheel1.csv"
    out2 = tmp_path / "wheel2.csv"
    args = ["table", "--theorem", "wheel", "--max-n", "8", "--exact-edges", "10"]
    code, _, _ = run(args + ["-o", str(out1)], capsys)
    assert code == 0
    code, _, _ = run(args + ["-o", str(out2)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "params,ell,claimed,verified,exact_lower_bound,status"
    assert len(lines) == 1 + 6  # n = 3..8
    assert all(line.endswith(",ok") for line in lines[1:])


def test_table_tree_rejects_small_max_n(tmp_path, capsys):
    for max_n in ("1", "0", "-3"):
        out = tmp_path / f"tree{max_n}.csv"
        code, _, err = run(
            ["table", "--theorem", "tree", "--max-n", max_n, "-o", str(out)], capsys
        )
        assert code == 2 and "error: tree table requires --max-n >= 2" in err
        assert not out.exists()
    code, stdout, _ = run(
        ["table", "--theorem", "tree", "--max-n", "2", "--count", "3",
         "-o", str(tmp_path / "tree2.csv")],
        capsys,
    )
    assert code == 0 and "rows 3" in stdout


def test_table_cube(tmp_path, capsys):
    out = tmp_path / "cube.csv"
    code, stdout, _ = run(
        ["table", "--theorem", "cube", "--max-t", "3", "--max-ell", "3",
         "--exact-edges", "4", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert "rows 6" in stdout


def test_color_hypercube_six_window_two_returns(tmp_path, capsys):
    out_file = tmp_path / "q6.pcc"
    code, out, _ = run(
        ["color", "--family", "hypercube", "--t", "6", "--ell", "2", "-o", str(out_file)],
        capsys,
    )
    assert code == 0 and "verified true" in out.splitlines()


def test_verify_timeout_names_source_and_budget(tmp_path, capsys):
    graph_file = tmp_path / "w9.edges"
    graph_file.write_text(io.write_graph(wheel_graph(9)))
    color_file = tmp_path / "w9.pcc"
    run(["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", str(color_file)], capsys)
    code, out, err = run(
        ["verify", "--graph", str(graph_file), "--coloring", str(color_file), "--ell", "2",
         "--time-limit", "0"],
        capsys,
    )
    assert code == 1 and out == "inconclusive timeout\n"
    assert err == "search from vertex 0 exceeded the time budget of 0.0 s\n"


def test_tree_verdicts_agree_with_and_without_a_time_limit(tmp_path, capsys):
    # Without a time limit a tree's k=1 verdict comes from its short paths,
    # with one from the table scan; `pcc color --method tree` and `pcc
    # verify` must print the same either way, for a passing coloring and
    # for one with two adjacent edges of one color.
    t = random_tree(40, 3)
    graph_file, good, bad = tmp_path / "t.edges", tmp_path / "good.pcc", tmp_path / "bad.pcc"
    graph_file.write_text(io.write_graph(t))
    code, out, _ = run(
        ["color", "--input", str(graph_file), "--method", "tree", "--ell", "2", "-o", str(good)],
        capsys,
    )
    assert code == 0 and "verified true" in out.splitlines()
    colors = io.read_coloring(good.read_text(), t).colors
    e = t.edges[0]
    f = next(f for f in t.edges if f != e and set(f) & set(e))
    bad.write_text(io.write_coloring(EdgeColoring({**colors, e: colors[f]}), t))
    for color_file, expect in ((good, 0), (bad, 1)):
        argv = ["verify", "--graph", str(graph_file), "--coloring", str(color_file), "--ell", "2"]
        code, out, err = run(argv, capsys)
        assert code == expect and err == ""
        assert run(argv + ["--time-limit", "5"], capsys) == (code, out, err)
        assert out.splitlines()[0] == ("verified true" if expect == 0 else "verified false")


def _alternating_c4(tmp_path):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text(io.write_graph(cycle_graph(4)))
    color_file = tmp_path / "c4.pcc"
    color_file.write_text("0 1 1\n0 3 2\n1 2 2\n2 3 1\n")
    return ["verify", "--graph", str(graph_file), "--coloring", str(color_file)]


def test_verify_two_disjoint_paths(tmp_path, capsys):
    graph_file = tmp_path / "q4.edges"
    graph_file.write_text(io.write_graph(hypercube_graph(4)))
    color_file = tmp_path / "q4.pcc"
    run(["color", "--family", "hypercube", "--t", "4", "--ell", "3", "-o", str(color_file)],
        capsys)
    code, out, _ = run(
        ["verify", "--graph", str(graph_file), "--coloring", str(color_file), "--ell", "3",
         "--k", "2"],
        capsys,
    )
    assert code == 0 and out == "verified true\n"
    # The alternating C_4 coloring has one proper path per pair at l=2.
    code, out, _ = run(_alternating_c4(tmp_path) + ["--ell", "2", "--k", "2"], capsys)
    assert code == 1 and out == "verified false\nfailing_pair 0 1\n"
    code, out, err = run(
        _alternating_c4(tmp_path) + ["--ell", "1", "--k", "2", "--time-limit", "0"], capsys
    )
    assert code == 1 and out == "inconclusive timeout\n"
    assert err == "path search for pair (0, 1) exceeded the time budget of 0.0 s\n"


def test_nan_time_limit_exits_2(tmp_path, capsys):
    code, out, err = run(_alternating_c4(tmp_path) + ["--ell", "1", "--time-limit", "nan"], capsys)
    assert code == 2 and out == "" and err == "error: time_limit must be >= 0, got nan\n"
    code, _, err = run(_alternating_c4(tmp_path) + ["--ell", "1", "--time-limit", "-1"], capsys)
    assert code == 2 and err == "error: time_limit must be >= 0, got -1.0\n"
    graph_file = tmp_path / "c4.edges"
    code, out, err = run(
        ["exact", "--graph", str(graph_file), "--ell", "2", "--time-limit", "nan"], capsys
    )
    assert code == 2 and out == "" and err == "error: time_limit must be positive, got nan\n"


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counting():
        builds.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    graph_file = tmp_path / "c4.edges"
    witness = tmp_path / "c4.pcc"
    try:
        for argv in (
            ["generate", "--family", "cycle", "--n", "4", "-o", str(graph_file)],
            ["exact", "--graph", str(graph_file), "--ell", "2", "-o", str(witness)],
            ["verify", "--graph", str(graph_file), "--coloring", str(witness), "--ell", "2"],
        ):
            code, _, _ = run(argv, capsys)
            assert code == 0, argv
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert real() is not real()


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # Each pair runs an earlier call and then a later one that leaves the
    # earlier call's flag out, on the parser main shares; the later call
    # must print what it prints on a freshly built parser.
    verify_c4 = _alternating_c4(tmp_path) + ["--ell", "2"]
    exact_c4 = ["exact", "--graph", str(tmp_path / "c4.edges"), "--ell", "2"]
    c5 = tmp_path / "c5.edges"
    c5.write_text(io.write_graph(cycle_graph(5)))
    out_file = str(tmp_path / "out.pcc")
    pairs = (
        (verify_c4 + ["--k", "2"], (1, "verified false\nfailing_pair 0 1\n"),
         verify_c4, (0, "verified true\n")),
        (exact_c4 + ["--max-colors", "1"], (1, "inconclusive true\n"),
         exact_c4, (0, "min_colors 2\n")),
        (["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", out_file],
         (0, "vertices 10\n"),
         ["color", "--input", str(c5), "--method", "traceable", "--ell", "2", "-o", out_file],
         (0, "vertices 5\n")),
        (["verify", "--graph", str(c5)], (2, ""), verify_c4, (0, "verified true\n")),
    )
    shared = []
    for earlier, (code, head), later, (later_code, later_head) in pairs:
        got = _outcome(earlier, capsys)
        assert got[0] == code and got[1].startswith(head), earlier
        got = _outcome(later, capsys)
        assert got[0] == later_code and got[1].startswith(later_head), later
        shared.append(got)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [_outcome(later, capsys) for _, _, later, _ in pairs] == shared


def test_table_usage_errors(tmp_path, capsys):
    out = tmp_path / "table.csv"
    unused = [("bipartite", "--ell"), ("cube", "--ell"), ("cube", "--max-n")]
    for theorem in ("bipartite", "multipartite", "wheel", "cube", "tree"):
        if theorem != "bipartite":
            unused.append((theorem, "--max-m"))
        if theorem != "cube":
            unused += [(theorem, "--max-t"), (theorem, "--max-ell")]
        if theorem != "tree":
            unused += [(theorem, "--count"), (theorem, "--seed")]
    for theorem, flag in unused:
        code, stdout, err = run(
            ["table", "--theorem", theorem, flag, "3", "-o", str(out)], capsys
        )
        assert (code, stdout) == (2, "") and not out.exists(), (theorem, flag)
        assert err == f"error: {flag} does not apply to --theorem {theorem}\n"
    # A bound that leaves the grid empty is a usage error too, naming the
    # flag, instead of a header-only CSV.
    for argv, message in (
        (["wheel", "--max-n", "2"], "wheel table requires --max-n >= 3, got 2"),
        (["multipartite", "--max-n", "2"], "multipartite table requires --max-n >= 3, got 2"),
        (["bipartite", "--max-m", "0"], "bipartite table requires --max-m >= 1, got 0"),
        (["bipartite", "--max-n", "0"], "bipartite table requires --max-n >= 1, got 0"),
        (["cube", "--max-t", "0"], "cube table requires --max-t >= 1, got 0"),
        (["cube", "--max-t", "2", "--max-ell", "1"], "cube table requires --max-ell >= 2, got 1"),
        (["tree", "--count", "0"], "tree table requires --count >= 1, got 0"),
        # The budget flags are checked before the sweep, so a bad one is an
        # error even when no cell reaches the exact search.
        (["wheel", "--max-n", "4", "--exact-edges", "1", "--time-limit", "-1"],
         "time_limit must be positive, got -1.0"),
        (["wheel", "--max-n", "4", "--exact-edges", "1", "--time-limit", "nan"],
         "time_limit must be positive, got nan"),
        (["wheel", "--max-n", "4", "--exact-edges", "0", "--time-limit", "0"],
         "time_limit must be positive, got 0.0"),
        (["wheel", "--max-n", "4", "--exact-edges", "-3"], "--exact-edges must be >= 0, got -3"),
    ):
        code, stdout, err = run(["table", "--theorem", *argv, "-o", str(out)], capsys)
        assert (code, stdout, err) == (2, "", f"error: {message}\n") and not out.exists(), argv
    # --exact-edges 0 is no error: it skips every cell.
    code, _, _ = run(["table", "--theorem", "wheel", "--max-n", "4", "--exact-edges", "0",
                      "-o", str(out)], capsys)
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert code == 0 and len(rows) == 2 and all(",skipped," in row for row in rows), rows


def _python_m_pcc(*argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pcc", *argv], cwd=root, env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_python_m_pcc_exit_status():
    done = _python_m_pcc("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: pcc"), done.stderr
    done = _python_m_pcc("verify", "--coloring", "c4.pcc", "--ell", "2")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: pcc verify")
    assert "the following arguments are required: --graph" in done.stderr


# (theorem, small grid, SHA-256 of stdout, SHA-256 of the CSV), digests of
# the output that `pcc table` wrote when its rows were verified by
# verify_coloring.  The table is run from its own directory with a relative
# output path, so stdout does not depend on where the test runs.
_TABLE_PINS = (
    ("bipartite", ["--max-m", "3", "--max-n", "7", "--exact-edges", "9"],
     "7d796989b4741e0131447e1c70b6378c0db28bd74bba7be0b4f4b2466dfc090e",
     "765d696d1b377d664b6016dd4a4296d7c7d899fe493909562c0941d09cf59bee"),
    ("multipartite", ["--max-n", "7", "--exact-edges", "9"],
     "f63d04ba80ab110f2985059aaa84502ca70fe03f22bf8f392cf76ad2d055bb47",
     "2541d5fe9ba59e95d61ca8b637992ebd9002dbaf4159b00aed06bba10a498cc2"),
    ("wheel", ["--max-n", "10", "--exact-edges", "10"],
     "27f4ccb5e889d3e63a050c0d37e501dd16905fb0e571ef54ed0313131284aab5",
     "5edfa0d2d8daa8c07bd01f3da580f157f7b601bb87ece2b589c069a826e0a787"),
    ("cube", ["--max-t", "3", "--max-ell", "4", "--exact-edges", "4"],
     "eb786e447a238dea2ef5ebec0d29872d663d00dab10a4861ab8c38f6063d775b",
     "0f7a73267041cf03f3887163b027983542c86819ba3e5b9719b38333a5b7fd2f"),
    ("tree", ["--count", "8", "--max-n", "16", "--seed", "3", "--exact-edges", "7"],
     "27f4ccb5e889d3e63a050c0d37e501dd16905fb0e571ef54ed0313131284aab5",
     "740f44678d792c75d9b9467f0223cf6feeb136b3ee93b8cb4dba2b2cadaa8740"),
)


def test_table_output_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for theorem, grid, stdout_digest, csv_digest in _TABLE_PINS:
        code, stdout, err = run(["table", "--theorem", theorem, *grid, "-o", "table.csv"], capsys)
        assert (code, err) == (0, ""), theorem
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest, theorem
        csv_bytes = (tmp_path / "table.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest, theorem


@pytest.mark.parametrize(
    "family_args, claimed",
    [
        (["complete_bipartite", "--m", "2", "--n", "4"], 2),
        (["complete_multipartite", "--parts", "1,2,3"], 2),
        (["star", "--n", "5"], 5),
        (["double_star", "--n", "3", "--m", "4"], 6),
        (["random_tree", "--n", "12", "--seed", "3"], 5),
        (["path", "--n", "7"], 3),
        (["cycle", "--n", "7"], 3),
        (["complete", "--n", "5"], 1),
        (["random_2connected", "--n", "12", "--seed", "3"], 5),
    ],
)
def test_color_every_family(tmp_path, capsys, family_args, claimed):
    out_file = tmp_path / "out.pcc"
    code, out, err = run(
        ["color", "--family", *family_args, "--ell", "2", "-o", str(out_file)], capsys
    )
    lines = out.splitlines()
    assert (code, err) == (0, ""), family_args
    assert "verified true" in lines and f"claimed {claimed}" in lines, out
    assert out_file.exists()


def _monochrome_wheel(n, ell):
    g = wheel_graph(n)
    coloring = EdgeColoring({e: 1 for e in g.edges})
    return construct.ConstructionReport(coloring, 1, "wheel", "one color")


def test_color_reports_a_failing_constructor(tmp_path, capsys, monkeypatch):
    # A constructor that does not verify itself and returns a bad coloring
    # gets `verified false` and the failing pair, and no file is written;
    # one that raises InvariantViolation gets `construction failed`.
    out_file = tmp_path / "out.pcc"
    argv = ["color", "--family", "wheel", "--n", "9", "--ell", "2", "-o", str(out_file)]
    monkeypatch.setattr(construct, "color_wheel", _monochrome_wheel)
    assert run(argv, capsys) == (1, "verified false\nfailing_pair 0 2\n", "")
    assert not out_file.exists()

    def broken(n, ell):
        raise InvariantViolation("no admissible color for rim edge 3")

    monkeypatch.setattr(construct, "color_wheel", broken)
    assert run(argv, capsys) == (1, "", "construction failed: no admissible color for rim edge 3\n")
    assert not out_file.exists()


def _table_rows(path):
    return path.read_text(encoding="utf-8").splitlines()[1:]


def test_table_cells_inconclusive_fail_and_mismatch(tmp_path, capsys, monkeypatch):
    out = tmp_path / "table.csv"
    wheel = ["table", "--theorem", "wheel", "--max-n", "4", "--exact-edges", "10", "-o", str(out)]
    # An exact search that runs out of time leaves the row ok.
    code, _, _ = run(wheel + ["--time-limit", "1e-9"], capsys)
    assert code == 0
    assert _table_rows(out) == ["n=3,2,1,true,inconclusive,ok", "n=4,2,2,true,inconclusive,ok"]
    # A coloring that fails verification is a fail row.
    real_wheel = construct.color_wheel
    monkeypatch.setattr(construct, "color_wheel", _monochrome_wheel)
    code, _, _ = run(wheel, capsys)
    assert code == 1
    assert _table_rows(out) == ["n=3,2,1,true,1,ok", "n=4,2,1,false,2,fail"]

    # A verified coloring whose claim differs from the exact minimum is a
    # mismatch row.
    def overclaimed(n, ell):
        report = real_wheel(n, ell)
        return construct.ConstructionReport(report.coloring, report.claimed_colors + 1, "wheel")

    monkeypatch.setattr(construct, "color_wheel", overclaimed)
    code, _, _ = run(wheel, capsys)
    assert code == 1
    assert _table_rows(out) == ["n=3,2,2,true,1,mismatch", "n=4,2,3,true,2,mismatch"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--family", "complete_multipartite", "--parts", "1,x"],
         "parts must be comma-separated integers, got '1,x'"),
        (["color", "--input", "{star}", "--method", "traceable", "--ell", "2"],
         "input graph has no Hamiltonian path"),
        (["color", "--input", "{c5}", "--method", "2connected", "--ell", "3"],
         "the 2-connected construction is specific to --ell 2"),
        (["color", "--family", "random_2connected", "--n", "12", "--seed", "3", "--ell", "3"],
         "the 2-connected construction is specific to --ell 2"),
        (["color", "--input", "{c5}", "--method", "join", "--ell", "2"],
         "--method join needs --input2 for the second factor"),
        (["color", "--input", "{c5}", "--method", "cartesian", "--ell", "2"],
         "--method cartesian needs --input2 for the second factor"),
        (["color", "--input", "{c5}", "--input2", "{c5}", "--method", "join", "--ell", "3"],
         "the join construction is specific to --ell 2"),
        (["color", "--input", "{c5}", "--input2", "{c5}", "--method", "cartesian", "--ell", "3"],
         "the cartesian construction is specific to --ell 2"),
        (["color", "--input", "{c5}", "--method", "permutation", "--ell", "2"],
         "--method permutation needs --alpha (1-indexed images)"),
        (["color", "--input", "{star}", "--method", "permutation", "--alpha", "1,2,3,4",
          "--ell", "2"],
         "input graph has no Hamiltonian path"),
    ],
)
def test_usage_errors_exit_2_with_their_message(tmp_path, capsys, argv, message):
    files = {"star": tmp_path / "star.edges", "c5": tmp_path / "c5.edges"}
    files["star"].write_text(io.write_graph(star_graph(3)))
    files["c5"].write_text(io.write_graph(cycle_graph(5)))
    out_file = tmp_path / "out"
    argv = [arg.format(**files) for arg in argv] + ["-o", str(out_file)]
    assert run(argv, capsys) == (2, "", f"error: {message}\n")
    assert not out_file.exists()
