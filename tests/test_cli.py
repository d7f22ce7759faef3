"""Command-line contract: exit codes, outputs, report schema."""

import json

import pytest

from conftest import FIXTURE_SOURCES
from maskcc.cli import main, validate_report


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


def test_infeasible_exits_3_naming_family(write_fixture, capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "compile", write_fixture("nohide"),
        "--target", "thumb-like", "--out-dir", str(tmp_path),
    )
    assert rc == 3
    assert "spairs" in err


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


def test_oracle_rejects_negative_slack(write_fixture, capsys, monkeypatch):
    from maskcc import cli

    def no_models(*args):
        raise AssertionError("models built for a rejected --slack")

    monkeypatch.setattr(cli, "front_end", no_models)
    rc, out, err = run_cli(capsys, "oracle", write_fixture("xor_p0"), "--slack", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: --slack must not be negative, got -1\n"


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
