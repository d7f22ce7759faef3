"""Command-line contract: exit codes, outputs, report schema."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_SOURCES
from maskcc import cli, solver
from maskcc.cli import main, validate_report
from maskcc.ir import ParseError, parse_program
from maskcc.model import elab_types, elaborate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.fixture
def write_fixture(tmp_path):
    def _write(name):
        path = tmp_path / f"{name}.ir"
        path.write_text(FIXTURE_SOURCES[name])
        return str(path)

    return _write


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_analyze_reproduces_running_example_types(write_fixture, capsys):
    rc, out, _ = run_cli(capsys, "analyze", write_fixture("xor_p0"))
    assert rc == 0
    report = json.loads(out)
    classes = {t: v["class"] for t, v in report["temps"].items()}
    assert classes == {
        "t0": "Public", "t3": "Public",
        "t2": "Secret", "t5": "Secret",
        "t1": "Random", "t4": "Random", "t6": "Random", "t7": "Random",
        "t8": "Random", "t9": "Random", "t10": "Random",
    }
    sets = report["sets"]
    assert len(sets["rpairs"]) == 14
    assert sets["spairs"] == {"t5": ["t4", "t6", "t7", "t8", "t9"]}
    assert sets["mmpairs"] == [["o3", "o6"], ["o3", "o8"], ["o6", "o8"]]
    assert sets["mspairs"] == {"o4": ["o3", "o6", "o8"]}


def test_analyze_all_public_empty_sets(write_fixture, capsys):
    rc, out, _ = run_cli(capsys, "analyze", write_fixture("allpub"))
    assert rc == 0
    sets = json.loads(out)["sets"]
    assert sets["rpairs"] == [] and sets["spairs"] == {}


def test_compile_writes_outputs_and_verifies(write_fixture, capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        capsys,
        "compile", write_fixture("xor_p0"),
        "--target", "thumb-like", "--verify", "--out-dir", str(out_dir),
    )
    assert rc == 0
    asm = (out_dir / "xor_p0.s").read_text()
    assert "xor R2, R1" in asm  # operands swapped: result over the key
    report = json.loads((out_dir / "xor_p0.report.json").read_text())
    assert validate_report(report) == []
    assert report["status"] == "Optimal"
    assert report["secure"] is True
    assert report["verify"]["verdict"] == "Equivalent"


def test_literal_only_two_address_op_keeps_both_literals(write_fixture, capsys, tmp_path):
    # no source register to name as the destination: the three-operand form
    rc, _, _ = run_cli(capsys, "compile", write_fixture("lit_xor"), "--out-dir", str(tmp_path))
    assert rc == 0
    assert "xor R0, 3, 5" in (tmp_path / "lit_xor.s").read_text()


def test_compile_insecure_objective_matches_secure_for_xor(write_fixture, capsys, tmp_path):
    args = ["compile", write_fixture("xor_p0"), "--target", "mips-like",
            "--out-dir", str(tmp_path)]
    rc1, _, _ = run_cli(capsys, *args)
    rep_secure = json.loads((tmp_path / "xor_p0.report.json").read_text())
    rc2, _, _ = run_cli(capsys, *args, "--insecure")
    rep_base = json.loads((tmp_path / "xor_p0.report.json").read_text())
    assert rc1 == rc2 == 0
    assert rep_secure["objective"] == rep_base["objective"]


def chain_source(n_ops: int) -> str:
    """The chain t(i+1) = xor t(i), t1|t2 with `n_ops` body ops."""
    lines = ["func chain width 4", "in t0:secret t1:random t2:public", "t3 = xor t0, t1"]
    lines += [f"t{i + 1} = xor t{i}, t{1 + i % 2}" for i in range(3, n_ops + 2)]
    return "\n".join(lines + [f"out t{n_ops + 2}"]) + "\n"


def _write_chain(tmp_path, n_ops: int) -> str:
    path = tmp_path / "chain.ir"
    path.write_text(chain_source(n_ops))
    return str(path)


def test_compile_300_op_chain(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys,
        "--json", "compile", _write_chain(tmp_path, 300), "--target", "mips-like",
        "--copy-budget", "none", "--insecure", "--budget-nodes", "20000",
        "--out-dir", str(tmp_path),
    )
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["status"] == "Optimal"


def test_printed_length_matches_the_printed_expression():
    """The length walk counts what `str` prints, node for node, on every
    fixture and on the benchmark's 28-op chains (up to about 10^5
    characters a temp)."""
    sources = list(FIXTURE_SOURCES.values()) + [
        workloads.ladder_kernel(s, 28, window=4) for s in range(8)]
    for src in sources:
        env = elab_types(elaborate(parse_program(src)))
        memo = {}
        for e in env.exprs.values():
            assert cli._printed_length(e, memo) == len(str(e))


def test_analyze_refuses_an_exponential_print_early(capsys, tmp_path):
    """The 64-op chain of seed 6 prints its expressions as trees of about
    7 * 10^9 characters in all: `analyze` says so in one line and exits 2
    before it builds any string."""
    path = tmp_path / "chain64.ir"
    path.write_text(workloads.ladder_kernel(6, 64, window=4))
    rc, out, err = run_cli(capsys, "analyze", str(path), "--copy-budget", "reg")
    assert (rc, out) == (2, "")
    assert err.startswith("error: the expressions of deep_s6_n64 print as ")
    assert err.endswith(f" characters, over the {cli.ANALYZE_EXPR_CHARS:,} an analysis "
                        f"report may hold\n")
    assert err.count("\n") == 1


def test_compile_150_op_chain_under_full_copy_budget(capsys, tmp_path):
    # copies and spills are optional, and the first leaf is already optimal
    rc, out, err = run_cli(
        capsys,
        "--json", "compile", _write_chain(tmp_path, 150), "--target", "mips-like",
        "--insecure", "--budget-nodes", "20000", "--out-dir", str(tmp_path),
    )
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["status"] == "Optimal"


def test_compile_500_op_chain(capsys, tmp_path):
    # the walk keeps its own stack, so no recursion limit caps the program size
    rc, out, err = run_cli(
        capsys,
        "--json", "compile", _write_chain(tmp_path, 500), "--target", "mips-like",
        "--copy-budget", "none", "--insecure", "--budget-nodes", "20000",
        "--out-dir", str(tmp_path),
    )
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "Optimal" and report["objective"] == 501


def pressure_source(interleaved: bool) -> str:
    """18 copies of `not t0` folded by an xor chain.

    In source order all 18 are defined before the chain reads them; the
    interleaved order defines each just before the xor that reads it. The
    dataflow is the same, so any schedule of one is a schedule of the other.
    """
    lines = ["func pressure width 4", "in t0:random t1:public"]
    if interleaved:
        lines += ["t2 = not t0", "t3 = not t0", "t4 = xor t2, t3"]
        for i in range(5, 37, 2):
            lines += [f"t{i} = not t0", f"t{i + 1} = xor t{i - 1}, t{i}"]
    else:
        lines += [f"t{i} = not t0" for i in range(2, 20)]
        lines += ["t20 = xor t2, t3"] + [f"t{i} = xor t{i - 1}, t{i - 17}" for i in range(21, 37)]
    return "\n".join(lines + ["out t36"]) + "\n"


@pytest.mark.parametrize("interleaved", [False, True])
def test_register_pressure_counts_what_every_schedule_needs(interleaved, capsys, tmp_path):
    """Source order would hold 20 values at once on a 16-location target;
    the solver may reorder the ops, so the capacity check does not reject it."""
    path = tmp_path / "pressure.ir"
    path.write_text(pressure_source(interleaved))
    rc, out, err = run_cli(
        capsys,
        "--json", "compile", str(path), "--target", "thumb-like", "--copy-budget", "none",
        "--insecure", "--out-dir", str(tmp_path),
    )
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "Optimal" and report["objective"] == 36


@pytest.mark.parametrize("cmd", ["compile", "simulate"])
def test_500_op_chain_stops_in_preflight(cmd, capsys, tmp_path):
    # a secret temp of the chain has no random to hide it (default: secure)
    rc, out, err = run_cli(capsys, cmd, _write_chain(tmp_path, 500), "--target", "mips-like")
    assert rc == 3 and out == ""
    assert err.startswith("infeasible: ") and err.count("\n") == 1
    assert err.endswith("(constraint family: spairs)\n")


def test_500_op_chain_past_oracle_op_bound(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "oracle", _write_chain(tmp_path, 500), "--target", "mips-like")
    assert rc == 2 and out == ""
    assert err == "error: model has 502 mandatory operations; oracle bound is 8\n"


def test_missing_file_exits_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "compile", str(tmp_path / "absent.ir"))
    assert rc == 2
    assert "no such file" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.ir"
    bad.write_text("func f width 4\nin t0:public\nt1 = frob t0\nout t1\n")
    rc, _, err = run_cli(capsys, "compile", str(bad))
    assert rc == 2
    assert "opcode" in err


def test_missing_target_file_exits_2(write_fixture, capsys):
    rc, _, err = run_cli(
        capsys, "compile", write_fixture("xor_p0"), "--target", "/nope/t.cfg"
    )
    assert rc == 2


@pytest.mark.parametrize("cmd", ["analyze", "compile"])
def test_unreadable_ir_exits_2(cmd, capsys, tmp_path):
    latin = tmp_path / "latin.ir"
    latin.write_bytes(b"func f width 4\nin t0:public  # caf\xe9\nout t0\n")
    rc, out, err = run_cli(capsys, cmd, str(latin))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot read {latin}: not UTF-8 text (byte 0xe9 at offset 34)\n"
    rc, out, err = run_cli(capsys, cmd, str(tmp_path))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_unreadable_target_exits_2(write_fixture, capsys, tmp_path):
    latin = tmp_path / "latin.target"
    latin.write_bytes(b"name = caf\xe9\n")
    for target, why in ((latin, "not UTF-8 text (byte 0xe9 at offset 10)"),
                        (tmp_path, "Is a directory")):
        rc, out, err = run_cli(capsys, "compile", write_fixture("xor_p0"),
                               "--target", str(target))
        assert (rc, out) == (2, "")
        assert err == f"error: cannot read {target}: {why}\n"


def test_unwritable_outputs_exit_1(write_fixture, capsys, tmp_path):
    """An output that cannot be written ends the run with one error line."""
    src = write_fixture("xor_p0")
    taken = tmp_path / "taken"
    taken.write_text("")
    rc, out, err = run_cli(capsys, "compile", src, "--out-dir", str(taken))
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {taken}: File exists\n"
    rc, out, err = run_cli(capsys, "compile", src, "--out-dir", str(tmp_path),
                           "--dump-model", str(tmp_path))
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_unwritable_out_dir_fails_before_the_solve(write_fixture, capsys, tmp_path,
                                                   monkeypatch):
    """`compile` checks `--out-dir` before the search spends its budget:
    no solve runs, and a compile that finds no solution still creates it."""
    solves = []
    monkeypatch.setattr(solver, "solve", lambda *a: solves.append(a))
    src = write_fixture("xor_p0")
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir, why in ((taken, "File exists"), (taken / "sub", "Not a directory")):
        rc, out, err = run_cli(capsys, "compile", src, "--out-dir", str(out_dir))
        assert (rc, out, err) == (1, "", f"error: cannot write {out_dir}: {why}\n")
    monkeypatch.setattr(os, "access", lambda *a: False)  # a read-only directory
    rc, out, err = run_cli(capsys, "compile", src, "--out-dir", str(tmp_path))
    assert (rc, out, err) == (1, "", f"error: cannot write {tmp_path}: Permission denied\n")
    assert solves == []
    monkeypatch.undo()
    fresh = tmp_path / "fresh" / "dir"
    rc, _, _ = run_cli(capsys, "compile", write_fixture("nohide"), "--out-dir", str(fresh))
    assert rc == 3 and fresh.is_dir() and not any(fresh.iterdir())


def test_infeasible_exits_3_naming_family(write_fixture, capsys, tmp_path):
    rc, out, err = run_cli(
        capsys,
        "--json", "compile", write_fixture("nohide"),
        "--target", "thumb-like", "--out-dir", str(tmp_path),
    )
    assert rc == 3
    assert "spairs" in err
    report = json.loads(out)
    assert validate_report(report) == []
    assert report["status"] == "Infeasible" and report["infeasible_family"] == "spairs"


def test_timeout_exits_4(write_fixture, capsys, tmp_path):
    rc, _, _ = run_cli(
        capsys,
        "compile", write_fixture("xor_p0"),
        "--budget-nodes", "1", "--budget-seconds", "1000",
        "--out-dir", str(tmp_path),
    )
    assert rc == 4


@pytest.mark.parametrize("cmd", ["compile", "simulate"])
def test_unsolved_outcomes_are_explained(cmd, write_fixture, capsys, tmp_path):
    out_dir = ["--out-dir", str(tmp_path)] if cmd == "compile" else []
    rc, out, err = run_cli(capsys, cmd, write_fixture("nohide"), *out_dir)
    assert rc == 3 and out == ""
    assert err.startswith("infeasible: ") and err.endswith("(constraint family: spairs)\n")
    rc, out, err = run_cli(capsys, cmd, write_fixture("xor_p0"), "--budget-nodes", "1", *out_dir)
    assert rc == 4 and out == ""
    assert err == "budget exhausted without a solution\n"


@pytest.mark.parametrize("body, addr", [
    pytest.param("t2 = load 5\nt3 = xor t2, t0\nout t3", 5, id="unwritten"),
    pytest.param("store t0, t1\nt2 = load 3\nout t2", 3, id="random-pointer"),
])
@pytest.mark.parametrize("cmd", ["compile", "simulate"])
def test_uninitialized_load_exits_2(cmd, body, addr, capsys, tmp_path):
    path = tmp_path / "ld.ir"
    path.write_text(f"func ld width 4\nin t0:random t1:random\n{body}\n")
    flags = ["--verify", "--out-dir", str(tmp_path)] if cmd == "compile" else []
    rc, out, err = run_cli(capsys, cmd, str(path), "--budget-nodes", "2000", *flags)
    assert rc == 2 and out == ""
    assert err == f"error: read of uninitialized memory address ('abs', {addr})\n"


def test_simulate_secure_equivalent(write_fixture, capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", write_fixture("xor_p0"),
        "--target", "thumb-like", "--secrets", "0x0,0xf", "--exhaustive",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Equivalent"
    assert payload["trace_sample"]


def test_oracle_subcommand_clean(write_fixture, capsys):
    rc, out, _ = run_cli(
        capsys,
        "oracle", write_fixture("xor_p0"), "--target", "thumb-like",
        "--copy-budget", "none",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["discrepancies"] == []
    assert payload["insecure_optimum"] == payload["secure_optimum"] == 3


def test_closed_standard_output_exits_1(write_fixture, capsys, monkeypatch):
    """A standard output that cannot be written is named as such, not as None."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["simulate", write_fixture("xor_p0"), "--insecure"])
    assert (rc, capsys.readouterr().err) == (1, "error: cannot write standard output: Broken pipe\n")


def test_closed_pipe_exits_1_without_a_traceback(write_fixture):
    """`maskcc simulate ... | true`: a block-buffered pipe with no reader fails
    inside `main`, and the interpreter's exit-time flush adds nothing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    with open(write_end, "wb") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "maskcc.cli", "simulate", write_fixture("xor_p0"), "--insecure"],
            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    assert (done.returncode, done.stderr) == (1, "error: cannot write standard output: Broken pipe\n")


XOR_P0 = str(Path(__file__).parents[1] / "kernels" / "xor_p0.ir")


def _fresh_python(code, *argv):
    """Run `code` in a new interpreter that imports maskcc from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; from maskcc.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")


def test_importing_the_cli_leaves_numpy_unloaded():
    done = _fresh_python("import sys, maskcc.cli; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("cmd", ["compile", "analyze", "oracle"])
def test_runs_without_a_leakage_check_need_no_numpy(cmd, capsys, tmp_path):
    """Same exit code and stdout as with numpy; `compile` writes the same `.s`."""
    outs = [tmp_path / "with", tmp_path / "without"]
    flags = [["--out-dir", str(d)] if cmd == "compile" else [] for d in outs]
    rc, out, _ = run_cli(capsys, cmd, XOR_P0, *flags[0])
    done = _fresh_python(WITHOUT_NUMPY, cmd, XOR_P0, *flags[1])
    assert (done.returncode, done.stderr) == (rc, "") == (0, "")
    assert done.stdout == out
    if cmd == "compile":
        assert (outs[1] / "xor_p0.s").read_text() == (outs[0] / "xor_p0.s").read_text()


@pytest.mark.parametrize("argv", [["compile", "--verify"], ["simulate"]],
                         ids=lambda argv: argv[0])
def test_leakage_check_without_numpy_exits_1_with_one_line(argv, tmp_path):
    if argv[0] == "compile":
        argv = argv + ["--out-dir", str(tmp_path)]
    done = _fresh_python(WITHOUT_NUMPY, argv[0], XOR_P0, *argv[1:])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: the leakage check needs numpy>=2.0")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["compile", "--verify"], ["simulate"]],
                         ids=lambda argv: argv[0])
def test_missing_numpy_stops_a_leakage_run_before_the_search(argv, tmp_path):
    """The numpy check comes first: no search runs and nothing is written."""
    out_dir = tmp_path / "out"
    if argv[0] == "compile":
        argv = argv + ["--out-dir", str(out_dir)]
    no_search = ("from maskcc import solver; "
                 "solver.solve = lambda *args: sys.exit('the search ran'); ")
    code = WITHOUT_NUMPY.replace("from maskcc.cli", no_search + "from maskcc.cli")
    done = _fresh_python(code, argv[0], XOR_P0, *argv[1:])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: the leakage check needs numpy>=2.0")
    assert done.stderr.count("\n") == 1
    assert list(tmp_path.rglob("*")) == ([out_dir] if argv[0] == "compile" else [])


def _raise(error):
    def raising(*args):
        raise error
    return raising


@pytest.mark.parametrize("kind", cli.INPUT_ERRORS, ids=lambda kind: kind.__name__)
def test_main_maps_each_input_error_to_exit_2(kind, write_fixture, capsys, monkeypatch):
    error = kind(3, 5, "bad input") if kind is ParseError else kind("bad input")
    monkeypatch.setattr(cli, "_read_program", _raise(error))
    rc, out, err = run_cli(capsys, "analyze", write_fixture("xor_p0"))
    assert (rc, out, err) == (2, "", f"error: {error}\n")


def test_a_bug_in_a_subcommand_is_a_traceback_not_exit_2(write_fixture, monkeypatch):
    monkeypatch.setattr(cli, "_read_program", _raise(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        main(["analyze", write_fixture("xor_p0")])


def test_oracle_rejects_negative_slack(write_fixture, capsys, monkeypatch):
    def no_models(*args):
        raise AssertionError("models built for a rejected --slack")

    monkeypatch.setattr(cli, "front_end", no_models)
    rc, out, err = run_cli(capsys, "oracle", write_fixture("xor_p0"), "--slack", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: --slack must not be negative, got -1\n"


@pytest.mark.parametrize("cmd", ["compile", "simulate"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--budget-nodes", "-5"], "the nodes limit must be a number >= 0, got -5"),
        (["--budget-seconds", "-1"], "the seconds limit must be a number >= 0, got -1.0"),
        (["--budget-seconds", "nan"], "the seconds limit must be a number >= 0, got nan"),
        (["--budget-seconds", "inf"], "at least one budget limit must be finite"),
    ],
)
def test_malformed_budget_exits_2_before_the_front_end(cmd, flags, message, write_fixture,
                                                        capsys, monkeypatch):
    def no_models(*args):
        raise AssertionError("models built for a rejected budget")

    monkeypatch.setattr(cli, "front_end", no_models)
    rc, out, err = run_cli(capsys, cmd, write_fixture("xor_p0"), *flags)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and flags[0] in err and err.endswith(f": {message}\n")
    assert len(err.splitlines()) == 1


def test_infinite_seconds_budget_is_no_time_limit(write_fixture, capsys, monkeypatch, tmp_path):
    budgets = []
    solve = cli.solver.solve
    monkeypatch.setattr(cli.solver, "solve",
                        lambda model, budget: budgets.append(budget) or solve(model, budget))
    rc, _, _ = run_cli(capsys, "compile", write_fixture("xor_p0"), "--budget-seconds", "inf",
                       "--budget-nodes", "5000", "--out-dir", str(tmp_path))
    assert rc == 0
    assert budgets == [cli.solver.SolveBudget(seconds=None, nodes=5000)]


def test_dump_model_and_solution(write_fixture, capsys, tmp_path):
    model_path = tmp_path / "model.json"
    sol_path = tmp_path / "sol.json"
    rc, _, _ = run_cli(
        capsys,
        "compile", write_fixture("xor_p0"),
        "--dump-model", str(model_path),
        "--dump-solution", str(sol_path),
        "--out-dir", str(tmp_path),
    )
    assert rc == 0
    model = json.loads(model_path.read_text())
    assert any(c["family"] == "rpairs" for c in model["constraints"])
    sol = json.loads(sol_path.read_text())
    assert sol["objective"] == 3


def test_report_schema_validator_flags_problems():
    assert validate_report({}) != []
    assert any("status" in p for p in validate_report({"status": "Weird"}))
    stats = {"nodes": 1, "propagations": 0, "leaves": 1, "wall_time": 0.0}
    problems = validate_report({"solver_stats": stats})
    assert "missing solver_stats.table_prunes" in problems
    assert "missing solver_stats.symmetry_skips" in problems


def test_json_flag_echoes_report(write_fixture, capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        "--json", "compile", write_fixture("xor_p0"), "--out-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["program"] == "xor_p0"
    assert validate_report(payload) == []
    assert payload["infeasible_family"] is None


def test_main_reuses_parser_without_leaking_options(write_fixture, capsys, tmp_path, monkeypatch):
    """One parser per process; options of one call never reach the next."""
    from maskcc import leakage

    assert cli._parser() is cli._parser()
    compile_argv = ["--json", "compile", write_fixture("xor_p0"), "--out-dir", str(tmp_path)]
    rc, out, _ = run_cli(capsys, *compile_argv, "--verify")
    assert rc == 0 and json.loads(out)["verify"]["verdict"] == "Equivalent"
    rc, out, _ = run_cli(capsys, *compile_argv)
    assert rc == 0 and json.loads(out)["verify"] is None

    drawn = []
    real = leakage.draw_assignments

    def spy(harness, sampling):
        drawn.append(sampling)
        return real(harness, sampling)

    monkeypatch.setattr(leakage, "draw_assignments", spy)
    for flags in (["--samples", "500"], []):
        rc, _, _ = run_cli(capsys, "simulate", write_fixture("xor_p0"), *flags)
        assert rc == 0
    assert drawn == [
        leakage.MonteCarlo(samples=500, seed=leakage.DEFAULT_SEED), leakage.Exhaustive()
    ]


def test_seed_accepted_after_subcommand(write_fixture, capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", write_fixture("xor_p0"), "--samples", "500", "--seed", "11",
    )
    assert rc == 0


def test_verify_never_passes_leaky_output(write_fixture, capsys, tmp_path):
    """--secure --verify exiting 0 implies the verdict was Equivalent."""
    for name in ("xor_p0", "mem_secret", "two_shares"):
        rc, _, _ = run_cli(
            capsys,
            "compile", write_fixture(name),
            "--target", "mips-like", "--verify", "--out-dir", str(tmp_path),
        )
        if rc == 0:
            report = json.loads((tmp_path / f"{name}.report.json").read_text())
            assert report["verify"]["verdict"] == "Equivalent"


def test_top_level_seed_rejected(write_fixture, capsys, tmp_path):
    """--seed belongs to the subcommand; before it argparse rejects it."""
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "compile", write_fixture("xor_p0"), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_no_implied_rejected(write_fixture, capsys, tmp_path):
    """The implied family always runs; there is no switch to leave it out."""
    with pytest.raises(SystemExit) as exc:
        main(["compile", write_fixture("xor_p0"), "--out-dir", str(tmp_path), "--no-implied"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--verify"],
        ["simulate", "--exhaustive"],
        ["oracle", "--copy-budget", "none"],
    ],
)
def test_each_subcommand_computes_sets_once(argv, write_fixture, capsys, tmp_path, monkeypatch):
    from maskcc import secsets

    calls = []
    real = secsets.compute_sets

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(secsets, "compute_sets", counting)
    if argv[0] == "compile":
        argv = argv + ["--out-dir", str(tmp_path)]
    rc, _, _ = run_cli(capsys, argv[0], write_fixture("xor_p0"), *argv[1:])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--secrets", "0x0,zz"], "--secrets"),
        (["--pub", "zz"], "--pub"),
        (["--pub", "1,2"], "--pub takes 1 value "),
        (["--secrets", "0x5"], "--secrets takes 2 values"),
        (["--secrets", "0x0,0xf,0x3"], "--secrets takes 2 values"),
        (["--samples", "-5"], "--samples must be positive"),
    ],
)
def test_simulate_rejects_bad_values(flags, message, write_fixture, capsys):
    rc, out, err = run_cli(capsys, "simulate", write_fixture("xor_p0"), *flags)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_simulate_exhaustive_beyond_bound_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.ir"
    path.write_text(
        "func wide width 8\n"
        "in t0:secret t1:random t2:random t3:random\n"
        "t4 = xor t0, t1\nt5 = xor t4, t2\nt6 = xor t5, t3\nout t6\n"
    )
    rc, out, err = run_cli(capsys, "simulate", str(path), "--exhaustive")
    assert rc == 2
    assert out == ""
    assert "--exhaustive" in err and "--samples" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, built",
    [
        (["compile", "--insecure"], False),
        (["simulate", "--insecure"], False),
        (["compile"], True),
        (["simulate"], True),
        (["oracle", "--copy-budget", "none"], True),
    ],
)
def test_secure_model_built_only_for_runs_that_read_it(argv, built, write_fixture, capsys,
                                                        tmp_path, monkeypatch):
    calls = []
    for name in ("add_security_constraints", "add_implied_constraints"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    if argv[0] == "compile":
        argv = argv + ["--out-dir", str(tmp_path)]
    rc, _, err = run_cli(capsys, argv[0], write_fixture("xor_p0"), *argv[1:])
    assert err == "" and rc == (1 if argv == ["simulate", "--insecure"] else 0)  # that one leaks
    assert calls == (["add_security_constraints", "add_implied_constraints"] if built else [])


@pytest.mark.parametrize(
    "argv, sampling",
    [
        (["compile", "--verify"], "exhaustive"),
        (["simulate"], "exhaustive"),
        (["simulate", "--exhaustive"], "exhaustive"),
        (["simulate", "--samples", "500", "--exhaustive"], "samples"),
        (["simulate", "--samples", "500", "--seed", "9"], "samples"),
        (["compile", "--verify", "--seed", "9"], "montecarlo"),
        (["simulate", "--seed", "9"], "montecarlo"),
    ],
)
def test_verify_and_simulate_share_one_verdict_path(argv, sampling, capsys, tmp_path,
                                                     monkeypatch):
    """Both reach the verdict through one `check_equivalence` call, under one
    sampling rule: --samples, else exhaustive within the bound, else the
    default seeded Monte Carlo sample."""
    from maskcc import leakage

    calls = []
    real = leakage.check_equivalence

    def spy(harness, pub, secrets, sampling):
        calls.append(sampling)
        return real(harness, pub, secrets, sampling)

    monkeypatch.setattr(leakage, "check_equivalence", spy)
    path = tmp_path / "k.ir"
    if sampling == "montecarlo":  # 2^24 random assignments, past the bound
        path.write_text("func k width 8\nin t0:secret t1:random t2:random t3:random\n"
                        "t4 = xor t0, t1\nt5 = xor t4, t2\nt6 = xor t5, t3\nout t6\n")
    else:
        path.write_text(FIXTURE_SOURCES["xor_p0"])
    if argv[0] == "compile":
        argv = argv + ["--out-dir", str(tmp_path)]
    rc, _, _ = run_cli(capsys, argv[0], str(path), *argv[1:], "--target", "mips-like")
    assert rc == 0
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else leakage.DEFAULT_SEED
    assert calls == [{
        "exhaustive": leakage.Exhaustive(),
        "samples": leakage.MonteCarlo(samples=500, seed=seed),
        "montecarlo": leakage.MonteCarlo(seed=seed),
    }[sampling]]


def test_simulate_runs_two_leak_stats_passes(write_fixture, capsys, monkeypatch):
    """One pass per secret assignment; the first also fills `per_position`."""
    from maskcc import leakage

    calls = []
    real = leakage.leak_stats

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(leakage, "leak_stats", counting)
    rc, out, _ = run_cli(capsys, "simulate", write_fixture("xor_p0"))
    assert rc == 0
    assert json.loads(out)["per_position"]
    assert len(calls) == 2
