import json

import pytest

from cyclehom.cli import main, main_hom_count

K3 = "0 1\n0 2\n1 2\n"
C6 = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_hom_count_report(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", K3)
    code, report = run_cli(
        capsys, ["hom-count", "--cycle", "6", "--input", path, "--engine", "comb"]
    )
    assert code == 0
    assert report["count"] == "66"
    assert report["n"] == 3 and report["m"] == 3
    assert report["degeneracy"] == 2
    assert report["engine"] == "comb"
    assert "elapsed_ms" in report


def test_engines_agree_in_reports(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", C6)
    counts = set()
    for engine in ("comb", "matmul", "auto", "brute"):
        code, report = run_cli(
            capsys,
            ["hom-count", "--cycle", "6", "--input", path, "--engine", engine],
        )
        assert code == 0
        counts.add(report["count"])
    assert counts == {"132"}


def test_hom_count_general_and_ops(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", K3)
    code, report = run_cli(
        capsys,
        ["hom-count", "--cycle", "4", "--input", path, "--general", "--count-ops"],
    )
    assert code == 0
    assert report["count"] == "18"
    assert report["op_counter"] > 0
    assert report["engine"] == "general"


@pytest.mark.parametrize("engine", ["comb", "matmul", "brute"])
def test_general_rejects_an_explicit_engine(tmp_path, capsys, engine):
    path = write(tmp_path, "k3.txt", K3)
    code = main(
        ["hom-count", "--cycle", "4", "--input", path, "--general", "--engine", engine]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "--engine" in errors[0]


def test_detect_report(tmp_path, capsys):
    path = write(tmp_path, "dag.txt", "0 1\n1 2\n")
    code, report = run_cli(
        capsys,
        ["detect", "--k", "3", "--directed", "--input", path, "--reps", "5",
         "--seed", "7"],
    )
    assert code == 0
    assert report["found"] is False
    assert report["seed"] == 7

    path = write(tmp_path, "tri.txt", "0 1\n1 2\n2 0\n")
    code, report = run_cli(
        capsys,
        ["detect", "--k", "3", "--directed", "--input", path, "--seed", "7"],
    )
    assert code == 0
    assert report["found"] is True


def test_detect_general_flag(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", "0 1\n1 2\n2 0\n")
    code, report = run_cli(
        capsys,
        ["detect", "--k", "3", "--directed", "--general", "--input", path,
         "--seed", "3"],
    )
    assert code == 0
    assert report["found"] is True


@pytest.mark.parametrize(
    "flags", [["--general"], ["--general", "--degenerate", "--directed"]]
)
def test_detect_general_flag_conflicts_are_usage_errors(tmp_path, capsys, flags):
    # --general runs the layered detector, which is for directed inputs
    # only and is not the degenerate one; the input is never read.
    missing = str(tmp_path / "missing.txt")
    code = main(["detect", "--k", "3", "--input", missing, "--seed", "3"] + flags)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "--general" in errors[0]


def test_degeneracy_subcommand(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", C6)
    code, report = run_cli(capsys, ["degeneracy", "--input", path])
    assert code == 0
    assert report["degeneracy"] == 2
    assert sorted(report["order"]) == list(range(6))


def test_cost_model_subcommand(capsys):
    code, report = run_cli(
        capsys, ["cost-model", "--k", "3", "--omega", "2", "--grid-step", "1/100"]
    )
    assert code == 0
    assert abs(report["c_k"] - 4 / 3) <= 0.02
    assert report["d_k"] <= report["c_k"]


def test_algebra_demo(capsys):
    code, report = run_cli(capsys, ["algebra", "demo", "--seed", "1"])
    assert code == 0
    assert report["recovered_counts"] == report["direct_counts"]


def test_bench_subcommand(capsys):
    code, report = run_cli(
        capsys, ["bench", "--min-exp", "4", "--max-exp", "5", "--half-length", "2"]
    )
    assert code == 0
    assert len(report["rows"]) == 2
    assert all(row["op_counter"] > 0 for row in report["rows"])


def test_bench_counts_are_pinned(capsys):
    # the width-0, horizon-1 walk build on DAGs whose arcs point to lower ids
    code, report = run_cli(capsys, ["bench", "--min-exp", "4", "--max-exp", "6"])
    assert code == 0
    assert [(row["n"], row["count"], row["op_counter"]) for row in report["rows"]] == [
        (16, "1222", 187),
        (32, "1870", 479),
        (64, "6803", 1082),
    ]


@pytest.mark.parametrize(
    "min_exp, max_exp, half_length",
    [
        pytest.param("-1", "2", "3", id="-1-2"),
        pytest.param("0", "-2", "3", id="0--2"),
        pytest.param("3", "2", "3", id="3-2"),
        pytest.param("0", "21", "3", id="0-21"),
        pytest.param("0", "2", "1", id="half-length-1"),
    ],
)
def test_bench_exponent_errors_are_usage_errors(capsys, min_exp, max_exp, half_length):
    argv = ["bench", "--min-exp", min_exp, "--max-exp", max_exp, "--half-length", half_length]
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


def test_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["hom-count", "--input", "nope.txt"])  # missing --cycle
    assert err.value.code == 2


def test_hom_count_has_no_omega_option(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", K3)
    with pytest.raises(SystemExit) as err:
        main(["hom-count", "--cycle", "3", "--omega", "2", "--input", path])
    assert err.value.code == 2
    assert "unrecognized arguments: --omega 2" in capsys.readouterr().err


def test_runtime_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 0\n")
    code = main(["hom-count", "--cycle", "3", "--input", path])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_hom_count_alias(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", K3)
    code = main_hom_count(["--cycle", "3", "--input", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == "6"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(K3))
    code, report = run_cli(capsys, ["hom-count", "--cycle", "3", "--input", "-"])
    assert code == 0
    assert report["count"] == "6"


DETECT_KEYS = {"found", "k", "seed", "elapsed_ms", "n", "m", "degeneracy"}


# Seeds on which splitting the repetitions over two worker processes, each
# drawing from seed + w, used to change the answer on a directed 4-cycle.
@pytest.mark.parametrize("seed", [6, 7, 22, 24, 30, 38])
def test_detect_answer_is_fixed_by_the_seed(tmp_path, capsys, monkeypatch, seed):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    path = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
    argv = ["detect", "--directed", "--general", "--k", "4", "--reps", "8",
            "--seed", str(seed), "--input", path]
    monkeypatch.delenv("CYCLEHOM_THREADS", raising=False)
    code, serial = run_cli(capsys, argv)
    assert code == 0 and set(serial) == DETECT_KEYS
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("CYCLEHOM_THREADS", "2")
    code, report = run_cli(capsys, argv)
    assert code == 0 and set(report) == DETECT_KEYS
    assert report["found"] == serial["found"]


def test_cli_import_leaves_numpy_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cyclehom

    src = str(Path(cyclehom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, cyclehom.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["cost-model", "--k", "3", "--grid-step", "x"],
        ["cost-model", "--k", "3", "--grid-step", "0"],
        ["detect", "--k", "3", "--delta", "0"],
        ["detect", "--k", "3", "--delta", "-1"],
        ["detect", "--k", "3", "--delta", "1"],
        ["detect", "--k", "3", "--reps", "0"],
        ["detect", "--k", "3", "--reps", "-3"],
        ["detect", "--k", "3", "--reps", "2.5"],
        ["hom-count", "--cycle", "2"],
        ["detect", "--k", "2"],
        ["cost-model", "--k", "1"],
        ["cost-model", "--k", "3", "--omega", "-5"],
        ["cost-model", "--k", "3", "--omega", "7/2"],
    ],
)
def test_malformed_numeric_options_are_usage_errors(tmp_path, capsys, argv):
    option = argv[-2]
    if argv[0] != "cost-model":
        argv = argv + ["--input", write(tmp_path, "tri.txt", "0 1\n1 2\n2 0\n")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]


# A digraph with a reciprocal pair: 4 arcs, and the underlying graph is a
# triangle of degeneracy 2.
RECIPROCAL = "a b\nb a\nb c\nc a\n"


@pytest.mark.parametrize("engine", [[], ["--general"], ["--engine", "brute"]])
def test_directed_hom_count_reports_are_pinned(tmp_path, capsys, engine):
    path = write(tmp_path, "recip.txt", RECIPROCAL)
    for cycle, count in ((4, "2"), (5, "5")):
        code, report = run_cli(
            capsys,
            ["hom-count", "--cycle", str(cycle), "--directed", "--input", path] + engine,
        )
        assert code == 0
        assert (report["n"], report["m"], report["degeneracy"]) == (3, 4, 2)
        assert report["count"] == count


@pytest.mark.parametrize("detector", [[], ["--general"], ["--degenerate"]])
def test_directed_detect_reports_are_pinned(tmp_path, capsys, detector):
    path = write(tmp_path, "recip.txt", RECIPROCAL)
    code, report = run_cli(
        capsys,
        ["detect", "--k", "3", "--directed", "--input", path, "--seed", "4", "--reps", "30"]
        + detector,
    )
    assert code == 0
    assert (report["n"], report["m"], report["degeneracy"]) == (3, 4, 2)
    assert report["found"] is True


def _assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8", "stdin not utf-8"])
def test_unreadable_input_is_one_error_line(tmp_path, capsys, monkeypatch, kind):
    import io

    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind != "missing":
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
    for directed in ([], ["--directed"]):
        if kind == "stdin not utf-8":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
        source = "-" if kind == "stdin not utf-8" else str(path)
        code = main(["hom-count", "--cycle", "3", "--input", source] + directed)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


def test_missing_input_leaves_no_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cyclehom

    src = str(Path(cyclehom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["hom-count", "--cycle", "3", "--input", str(tmp_path / "missing.txt")]
    out = subprocess.run(
        [sys.executable, "-m", "cyclehom.cli"] + argv, capture_output=True, text=True, env=env
    )
    assert out.returncode == 1 and out.stdout == ""
    assert "Traceback" not in out.stderr and out.stderr.startswith("error:")


def test_exhaustive_degenerate_detect_runs_once_with_workers(tmp_path, capsys, monkeypatch):
    # Below EXHAUSTIVE_BELOW_K the degenerate detector ignores reps and seed
    # and searches once; CYCLEHOM_THREADS is ignored.
    import concurrent.futures

    import cyclehom.detect as detect

    searches = []
    search = detect._find_short_cycle

    def counting(g, k):
        searches.append(k)
        return search(g, k)

    monkeypatch.setattr(detect, "_find_short_cycle", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setenv("CYCLEHOM_THREADS", "2")
    path = write(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n")
    for k, found in ((5, True), (4, False)):
        searches.clear()
        code, report = run_cli(
            capsys, ["detect", "--k", str(k), "--input", path, "--seed", "3", "--reps", "8"]
        )
        assert code == 0 and report["found"] is found
        assert searches == [k]
