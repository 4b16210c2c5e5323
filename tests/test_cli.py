"""Tests for the command-line front end: outputs, exit codes, traces."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpmatch.cli import (
    EXIT_CANTCREAT,
    EXIT_INVARIANT,
    EXIT_NO_MATCHING,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from cpmatch.fixtures import dancing_robot
from cpmatch.graphio import ParseError, parse_graph

DATA = Path(__file__).resolve().parent.parent / "src" / "cpmatch" / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def k2_file(tmp_path):
    return write(tmp_path, "k2.g", "p edge 2 1\ne 0 1 7\n")


def triangles_file(tmp_path):
    return write(
        tmp_path,
        "tri.g",
        "p edge 6 6\ne 0 1 1\ne 1 2 1\ne 0 2 1\ne 3 4 1\ne 4 5 1\ne 3 5 1\n",
    )


def test_solve_dancing_robot(capsys):
    code = main(["solve", str(DATA / "dancing_robot.g")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    matchings = [l for l in lines if l.startswith("matching ")]
    assert len(matchings) == 8
    assert "cost 8" in lines
    assert "iterations 3" in lines
    assert "lp-solves 129" in lines


def test_solve_naive_cycling(capsys):
    code = main(["solve", str(DATA / "cycling.g"), "--algorithm", "naive"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "stop CyclingDetected" in out
    assert "repeat-of 2" in out
    assert "iterations 4" in out


def test_validate_ok(tmp_path, capsys):
    code = main(["solve", k2_file(tmp_path), "--validate"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "cost 7" in captured.out
    assert "validate ok" in captured.err


def test_validate_skips_large_graphs(capsys):
    code = main(["solve", str(DATA / "dancing_robot.g"), "--validate"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "validate skipped (n = 16 > 14)" in captured.err


def test_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.g", "p edge 2 1\ne 0 0 1\n")
    code = main(["solve", path])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert "line 2: loop at vertex 0" in captured.err


def test_missing_file_exit(tmp_path, capsys):
    undecodable = tmp_path / "latin1.g"
    undecodable.write_bytes(b"p edge 2 1\ne 0 1 7 \xff\n")
    for path in ("/no/such/file.g", str(undecodable)):
        code = main(["solve", path])
        assert code == EXIT_PARSE
        assert f"cannot read {path}:" in capsys.readouterr().err


def test_no_perfect_matching_exits_two(tmp_path, capsys):
    # Two triangles, then a triangle and a 5-cycle: odd vertex counts.
    paths = [
        triangles_file(tmp_path),
        write(tmp_path, "k3.g", "p edge 3 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\n"),
        write(tmp_path, "c5.g", "p edge 5 5\n" + "".join(f"e {v} {(v + 1) % 5} 1\n" for v in range(5))),
    ]
    for path in paths:
        assert main(["solve", path]) == EXIT_NO_MATCHING
        capsys.readouterr()
        assert main(["solve", path, "--algorithm", "perturbed"]) == EXIT_NO_MATCHING
        capsys.readouterr()
        code = main(["solve", path, "--algorithm", "naive"])
        out = capsys.readouterr().out
        assert code == EXIT_NO_MATCHING
        assert "stop NoPerfectMatching" in out


def test_a_solve_that_fails_leaves_the_trace_path_as_it_was(tmp_path, capsys):
    # The trace path is opened before the solve; a solve that raises (exit 2
    # here, exit 3 under the iteration cap) removes a file it created and
    # leaves one that was there untouched.
    trace = tmp_path / "t.json"
    code = main(["solve", triangles_file(tmp_path), "--trace", str(trace)])
    assert code == EXIT_NO_MATCHING and not trace.exists()
    trace.write_text("kept", encoding="utf-8")
    code = main(["solve", str(DATA / "dancing_robot.g"), "--max-iter", "1",
                 "--trace", str(trace)])
    assert code == EXIT_INVARIANT and trace.read_text(encoding="utf-8") == "kept"
    capsys.readouterr()


def test_iteration_cap_exits_three(capsys):
    code = main(["solve", str(DATA / "dancing_robot.g"), "--max-iter", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "invariant violated: IterationCapExceeded" in captured.err


def test_usage_errors_exit_sixtyfour(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve", "x.g", "--algorithm", "nope"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["gen", "--vertices", "5", "--edges", "4"]) == EXIT_USAGE


def test_max_iter_below_one_is_a_usage_error(capsys):
    for algorithm in ("unperturbed", "perturbed", "naive"):
        for bad in ("0", "-1", "two"):
            code = main(["solve", str(DATA / "cycling.g"), "--algorithm", algorithm,
                         "--max-iter", bad])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert "--max-iter" in captured.err
            assert captured.out == ""


def test_unwritable_outputs_exit_seventythree(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    trace = str(missing / "t.json")
    code = main(["solve", k2_file(tmp_path), "--trace", trace])
    captured = capsys.readouterr()
    assert code == EXIT_CANTCREAT
    assert f"cannot write {trace}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""

    graph = str(missing / "x.g")
    code = main(["gen", "--vertices", "4", "--edges", "4", "--output", graph])
    captured = capsys.readouterr()
    assert code == EXIT_CANTCREAT
    assert f"cannot write {graph}: " in captured.err
    assert captured.out == ""
    assert not missing.exists()


def test_a_closed_stdout_reader_exits_seventythree(tmp_path):
    # Each subcommand and --help, its stdout reader closed at once. stdout
    # is buffered, so solve's few lines and the help break at main's flush
    # (solve's trace was written and stays), and gen's long text at its
    # write. One stderr line, no traceback, no error at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(DATA.parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    trace = tmp_path / "t.json"
    for args in (["solve", str(DATA / "dancing_robot.g"), "--trace", str(trace)],
                 ["gen", "--vertices", "400", "--edges", "20000"], ["--help"]):
        proc = subprocess.Popen([sys.executable, "-m", "cpmatch.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(), err) == (
            EXIT_CANTCREAT, "cannot write standard output: [Errno 32] Broken pipe\n"), args
    assert json.loads(trace.read_text(encoding="utf-8"))["cost"] == 8


def test_a_closed_stdout_reader_removes_the_trace_it_did_not_write(
        tmp_path, monkeypatch, capsys):
    # A line-buffered stdout whose reader is gone breaks at solve's first
    # line, before the trace is written: the file this run created goes,
    # as on a failed solve.
    read, write_end = os.pipe()
    os.close(read)
    with open(write_end, "w", buffering=1) as broken:
        monkeypatch.setattr(sys, "stdout", broken)
        trace = tmp_path / "t.json"
        code = main(["solve", str(DATA / "cycling.g"), "--trace", str(trace)])
        monkeypatch.undo()
    assert code == EXIT_CANTCREAT and not trace.exists()
    assert capsys.readouterr().err.startswith("cannot write standard output: ")


def test_trace_schema(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = main(["solve", str(DATA / "dancing_robot.g"), "--trace", str(trace)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["algorithm"] == "unperturbed"
    assert doc["cost"] == 8
    assert doc["totalLpSolves"] == 129
    assert sorted(doc) == ["algorithm", "cost", "iterations", "result", "totalLpSolves"]
    assert len(doc["result"]) == 8
    assert all("-" in e for e in doc["result"])
    assert len(doc["iterations"]) == 3
    g, _, exp = dancing_robot()
    for it in doc["iterations"]:
        assert sorted(it) == ["dualStages", "family", "index", "lpSolves", "x"]
        assert it["lpSolves"] == 2 * g.m + 3
        assert len(it["dualStages"]) == g.m + 1
        assert all(isinstance(v, str) for v in it["x"].values())
        for stage in it["dualStages"]:
            assert all(isinstance(v, str) for v in stage.values())
    second = doc["iterations"][1]
    assert second["family"] == [[5, 13, 15], [10, 11, 14]]
    assert second["x"]["13-15"] == "1/2"
    assert second["x"]["2-6"] == "1"
    # Set potentials key by their sorted vertices joined with plus signs.
    assert "5+13+15" in second["dualStages"][0]


def test_naive_trace_fields(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = main(
        ["solve", str(DATA / "cycling.g"), "--algorithm", "naive", "--trace", str(trace)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["algorithm"] == "naive"
    assert doc["result"] == "CyclingDetected"
    assert doc["cost"] is None
    assert doc["repeatOf"] == 2
    assert doc["detail"] == "iteration 4 repeats iteration 2"
    assert len(doc["iterations"]) == 4


def test_gen_to_stdout_parses_and_solves(tmp_path, capsys):
    code = main(["gen", "--vertices", "8", "--edges", "12", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    path = write(tmp_path, "gen.g", out)
    assert main(["solve", path, "--validate"]) == EXIT_OK


def test_gen_deterministic_and_to_file(tmp_path, capsys):
    first = tmp_path / "a.g"
    second = tmp_path / "b.g"
    assert main(["gen", "--vertices", "6", "--edges", "9", "--seed", "7",
                 "--output", str(first)]) == EXIT_OK
    assert main(["gen", "--vertices", "6", "--edges", "9", "--seed", "7",
                 "--output", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_text() == second.read_text()
    assert "p edge 6 9" in first.read_text()


def test_malformed_graph_text_exits_one_without_a_traceback(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Mostly lines of the format with small or bad tokens, so the parser's
    # later checks are reached, plus arbitrary text.
    token = st.sampled_from(["x", "-1", "0", "1", "2", "3", "0", "1", "2", "3"])
    tagged = st.builds(lambda tag, rest: " ".join([tag, *rest]), st.sampled_from("eeeoo"),
                       st.lists(token, min_size=3, max_size=3))
    header = st.builds("p edge {} {}".format, st.sampled_from("01234"), st.sampled_from("0123"))
    junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    line = st.sampled_from([tagged] * 4 + [header, junk]).flatmap(lambda s: s)
    texts = st.builds(lambda keep, head, body: "\n".join([head, *body] if keep else body),
                      st.sampled_from([True, True, True, False]), header, st.lists(line, max_size=6))
    path = tmp_path / "bad.g"

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(texts)
    def exits_one(text):
        path.write_text(text, encoding="utf-8")
        try:  # what the CLI reads, after its newline translation
            parse_graph(path.read_text(encoding="utf-8"))
        except ParseError:
            pass
        else:
            hypothesis.assume(False)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", str(path)])
        assert code == EXIT_PARSE
        assert f"{path}: line " in err.getvalue() and "Traceback" not in err.getvalue()

    exits_one()


#: SHA-256 of the --trace output of each fixture in each mode, in order.
#: Stage duals depend on the simplex pivot path and on how iteration records
#: store them, so this pins both end to end, through the JSON a user reads.
TRACE_DIGEST = "8cbc315ee014c0e936cd7da8e15ee771abb3add9d2719ba2c26bf2e4759c1230"


def test_fixture_traces_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for graph in ("dancing_robot", "altered_robot", "cycling"):
        for algorithm in ("unperturbed", "perturbed", "naive"):
            trace = tmp_path / f"{graph}-{algorithm}.json"
            code = main(["solve", str(DATA / f"{graph}.g"), "--algorithm", algorithm,
                         "--trace", str(trace)])
            assert code == EXIT_OK
            h.update(trace.read_bytes())
    capsys.readouterr()
    assert h.hexdigest() == TRACE_DIGEST
