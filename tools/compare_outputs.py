"""Write every user-visible output of one maskcc checkout into a directory.

    python3 tools/compare_outputs.py <checkout> <outdir>
    diff -r <outdir of one checkout> <outdir of another>

Covers the test fixtures and `kernels/*.ir` under `analyze` (none/reg/full),
`--json compile --verify --dump-model` (thumb-like/mips-like x none/reg/full),
`simulate`, `compile --insecure`, the `ORACLE_CASES` under
`oracle` at slack 0 and 1, `kernels/ptr_store.ir` under `oracle` (thumb-like,
reg: a complete report, its secure model infeasible), the benchmark's ladder
and deep kernels under `analyze` and `compile`, and a 100-op xor chain under
`analyze` (none/full) and
`compile --insecure` (mips-like, none/full). The 2-share ISW and Trichina
AND kernels (width 8, five inputs) run under `compile`, secure with
`--verify` and `--insecure`, under reg/full, on thumb-like with 6 and
mips-like with 8 argument registers; the 3-share ISW AND (nine inputs),
once with its outputs in order and once reversed, runs the same way under
none/reg on mips-like with 10 argument registers. The Monte Carlo draws run in
`simulate --samples 20000 --seed 7` of `spill_sec` at widths 8/16/32 and in
`compile --verify` of `spill_force` at width 8 (the benchmark's Monte Carlo
case), both on mips-like under the reg budget. A malformed-IR corpus, one
minimal program per rule of `ir.validate` and per syntax error of
`ir.parse_program`, plus a file that is not UTF-8 text, runs under
`compile`, so the exact wording and position of every parse message can be
diffed too. Node budgets stand in for time budgets so every run is
deterministic; `solver_stats.wall_time` is dropped from reports. Use it to
show that a refactor keeps reports, `.s` files, model dumps, messages and
exit codes byte for byte.
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

repo, outdir = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
sys.path[:0] = [str(repo / "src"), str(repo / "tests"), str(repo / "perfbench")]
from conftest import FIXTURE_SOURCES, ORACLE_CASES  # noqa: E402
from test_cli import chain_source  # noqa: E402
from maskcc.cli import main  # noqa: E402
from maskcc.target import PRESETS as TARGETS, render_target  # noqa: E402
import workloads  # noqa: E402

PRESETS = ("thumb-like", "mips-like")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = f"exit {e.code}"
        except Exception as e:  # a crash is an output too
            rc = f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue()


def strip_wall_time(text: str) -> str:
    rep = json.loads(text)
    rep["solver_stats"].pop("wall_time")
    return json.dumps(rep, indent=2)


def compile_into(name: str, path: Path, *flags: str) -> None:
    d = outdir / name
    d.mkdir(parents=True, exist_ok=True)
    rc, out, err = run(["--json", "compile", str(path), "--budget-seconds", "10000",
                        "--out-dir", str(d), "--dump-model", str(d / "model.json"), *flags])
    if out.strip():
        out = strip_wall_time(out)
    for report in d.glob("*.report.json"):
        report.write_text(strip_wall_time(report.read_text()))
    (d / "run.txt").write_text(f"{rc}\n{out}\n{err}")


def record(name: str, argv: list[str]) -> None:
    rc, out, err = run(argv)
    # a message may name an input file: keep the records free of <outdir>
    text = f"{rc}\n{out}\n{err}".replace(str(outdir), "<outdir>")
    (outdir / f"{name}.txt").write_text(text)


outdir.mkdir(parents=True, exist_ok=True)
irdir = outdir / "ir"
irdir.mkdir(exist_ok=True)
kernels = {}
for name, src in FIXTURE_SOURCES.items():
    kernels[name] = irdir / f"{name}.ir"
    kernels[name].write_text(src)
for f in sorted((repo / "kernels").glob("*.ir")):
    kernels[f"kernels_{f.stem}"] = f

for name, path in kernels.items():
    for budget in ("none", "reg", "full"):
        record(f"analyze_{name}_{budget}", ["analyze", str(path), "--copy-budget", budget])
        for preset in PRESETS:
            compile_into(f"compile_{name}_{preset}_{budget}", path, "--target", preset,
                         "--copy-budget", budget, "--budget-nodes", "60000", "--verify")
    for preset in PRESETS:
        record(f"simulate_{name}_{preset}", ["simulate", str(path), "--target", preset,
               "--copy-budget", "none", "--budget-nodes", "60000", "--budget-seconds", "10000"])
    for budget in ("none", "reg"):
        compile_into(f"compile_{name}_{budget}--insecure", path, "--copy-budget", budget,
                     "--budget-nodes", "60000", "--insecure")
        record(f"simulate_{name}_{budget}_insecure", ["simulate", str(path), "--insecure",
               "--copy-budget", budget, "--budget-nodes", "60000", "--budget-seconds", "10000"])

for name, target, budget in ORACLE_CASES:
    tpath = target if target in PRESETS else str(repo / "perfbench" / "targets" / f"{target}.target")
    argv = ["oracle", str(kernels[name]), "--target", tpath, "--copy-budget", budget]
    record(f"oracle_{name}_{target}_{budget}", argv)
    record(f"oracle_{name}_{target}_{budget}_slack1", [*argv, "--slack", "1"])
# the Monte Carlo path: every fixture above is 4 bits wide and checked exhaustively
montecarlo = ["--target", "mips-like", "--copy-budget", "reg", "--budget-nodes", "200000"]
for name, width in (("spill_sec", 8), ("spill_sec", 16), ("spill_sec", 32), ("spill_force", 8)):
    kernels[f"{name}_w{width}"] = irdir / f"{name}_w{width}.ir"
    kernels[f"{name}_w{width}"].write_text(FIXTURE_SOURCES[name].replace("width 4", f"width {width}", 1))
for width in (8, 16, 32):
    record(f"simulate_spill_sec_w{width}_montecarlo", ["simulate", str(kernels[f"spill_sec_w{width}"]),
           *montecarlo, "--budget-seconds", "10000", "--samples", "20000", "--seed", "7"])
compile_into("compile_spill_force_w8_mips-like_reg", kernels["spill_force_w8"], *montecarlo, "--verify")
# the largest oracle run: its secure walk ends at the first makespan that cuts nothing
record("oracle_kernels_ptr_store_thumb-like_reg", ["oracle", str(kernels["kernels_ptr_store"]),
       "--target", "thumb-like", "--copy-budget", "reg"])

generated = {}
for s in workloads.LADDER_SEEDS:
    for n in workloads.LADDER_SIZES:
        generated[f"ladder_s{s}_n{n}"] = (workloads.ladder_kernel(s, n), "thumb-like",
                                          ("none", "reg", "full"))
for s in workloads.DEEP_SEEDS:
    for n in workloads.DEEP_SIZES:
        generated[f"deep_s{s}_n{n}"] = (workloads.ladder_kernel(s, n, window=4), "mips-like",
                                        ("none",))
for name, (text, preset, budgets) in generated.items():
    path = irdir / f"{name}.ir"
    path.write_text(text)
    for budget in budgets:
        record(f"analyze_{name}_{budget}", ["analyze", str(path), "--copy-budget", budget])
        compile_into(f"compile_{name}_{budget}", path, "--target", preset,
                     "--copy-budget", budget, "--budget-nodes", "2000")

# the paper's kernel size, where the front end's pair sets grow quadratically
chain = irdir / "chain_100.ir"
chain.write_text(chain_source(100))
for budget in ("none", "full"):
    record(f"analyze_chain_100_{budget}", ["analyze", str(chain), "--copy-budget", budget])
    compile_into(f"compile_chain_100_{budget}--insecure", chain, "--target", "mips-like",
                 "--copy-budget", budget, "--budget-nodes", "20000", "--insecure")

# Masked ANDs from the literature over the shares a0 = a ^ ra, b0 = b ^ rb of
# secrets a, b (t0, t1), with randoms ra, rb, r (t2, t3, t4) and the share
# products t7 = a0 b0, t8 = a0 rb, t9 = ra b0, t10 = ra rb.
PRODUCTS = """in t0:secret t1:secret t2:random t3:random t4:random
t5 = xor t0, t2
t6 = xor t1, t3
t7 = and t5, t6
t8 = and t5, t3
t9 = and t2, t6
t10 = and t2, t3
"""
LITERATURE = {
    # 2-share ISW AND (Ishai, Sahai, Wagner, CRYPTO 2003):
    # c0 = a0 b0 ^ ((r ^ a0 rb) ^ ra b0), c1 = ra rb ^ r
    "isw2": "func isw2 width 8\n" + PRODUCTS + """t11 = xor t4, t8
t12 = xor t11, t9
t13 = xor t7, t12
t14 = xor t10, t4
out t13 t14
""",
    # Trichina's AND (CHES 2003): c = (((r ^ a0 b0) ^ a0 rb) ^ ra b0) ^ ra rb
    "trichina": "func trichina width 8\n" + PRODUCTS + """t11 = xor t4, t7
t12 = xor t11, t8
t13 = xor t12, t9
t14 = xor t13, t10
out t14 t4
""",
    # 3-share ISW AND: a, b secret (t0, t1), share randoms ra1, ra2, rb1, rb2
    # (t2-t5), fresh randoms r01, r02, r12 (t6-t8); shares a0 = (a ^ ra1) ^ ra2,
    # a1 = ra1, a2 = ra2, likewise for b; the products ai bj in row order
    # (t13-t21); c0 = (a0b0 ^ r01) ^ r02, c1 = (a1b1 ^ ((r01 ^ a0b1) ^ a1b0)) ^ r12,
    # c2 = (a2b2 ^ ((r02 ^ a0b2) ^ a2b0)) ^ ((r12 ^ a1b2) ^ a2b1)
    "isw3": """func isw3 width 8
in t0:secret t1:secret t2:random t3:random t4:random t5:random t6:random t7:random t8:random
t9 = xor t0, t2
t10 = xor t9, t3
t11 = xor t1, t4
t12 = xor t11, t5
t13 = and t10, t12
t14 = and t10, t4
t15 = and t10, t5
t16 = and t2, t12
t17 = and t2, t4
t18 = and t2, t5
t19 = and t3, t12
t20 = and t3, t4
t21 = and t3, t5
t22 = xor t13, t6
t23 = xor t22, t7
t24 = xor t6, t14
t25 = xor t24, t16
t26 = xor t17, t25
t27 = xor t26, t8
t28 = xor t7, t15
t29 = xor t28, t19
t30 = xor t21, t29
t31 = xor t8, t18
t32 = xor t31, t20
t33 = xor t30, t32
out t23 t27 t33
""",
}
# the same kernel with its first output computed last
LITERATURE["isw3b"] = LITERATURE["isw3"].replace("func isw3", "func isw3b").replace(
    "out t23 t27 t33", "out t33 t27 t23")
for name, text in LITERATURE.items():
    kernels[name] = irdir / f"{name}.ir"
    kernels[name].write_text(text)
# (kernels, (preset, argument registers) targets, copy budgets, node budget)
for names, targets, budgets, nodes in (
    (("isw2", "trichina"), (("thumb-like", 6), ("mips-like", 8)), ("reg", "full"), "20000"),
    (("isw3", "isw3b"), (("mips-like", 10),), ("none", "reg"), "200000"),
):
    for preset, nargs in targets:
        t = TARGETS[preset]
        tpath = irdir / f"{preset}_{nargs}args.target"
        tpath.write_text(render_target(replace(t, args=t.registers[:nargs])))
        for name in names:
            for budget in budgets:
                for flag in ("--verify", "--insecure"):
                    suffix = "--insecure" if flag == "--insecure" else ""
                    compile_into(f"compile_{name}_{preset}{nargs}_{budget}{suffix}",
                                 kernels[name], "--target", str(tpath), "--copy-budget",
                                 budget, "--budget-nodes", nodes, flag)

# One minimal violation per rule: a broken rule of `ir.validate` first, then
# each syntax error of the parser. `missing-def` has no textual form.
HEAD = "func bad width 4\nin t0:public t1:random\n"
MALFORMED = {
    "bad_width": "# a comment line first\nfunc bad width 3\nin t0:public\nout t0\n",
    "no_inputs": "func bad width 4\n  in\nout t0\n",
    "duplicate_input": "func bad width 4\nin t0:public t0:random\nout t0\n",
    "sparse_input": "func bad width 4\nin t0:public t2:random\nout t0\n",
    "duplicate_def": HEAD + "t1 = not t0\nout t1\n",
    "sparse_def": HEAD + "t5 = not t0\nout t5\n",
    "unknown_opcode": HEAD + "t2 = frob t0\nout t2\n",
    "pseudo_opcode": HEAD + "t2 = in t0\nout t2\n",
    "store_has_def": HEAD + "t2 = store 16, t0\nout t0\n",
    "store_literal_data": HEAD + "store 16, 5\nout t0\n",
    "binary_arity": HEAD + "t2 = xor t0\nout t2\n",
    "unary_arity": HEAD + "t2 = not t0, t1\nout t2\n",
    "load_arity": HEAD + "t2 = load\nout t2\n",
    "use_before_def": HEAD + "    t2 = xor t9, t1\nout t2\n",
    "store_use_before_def": HEAD + "store t7, t1\nout t0\n",
    "copy_in_source": HEAD + "t2 = copy t0\nout t2\n",
    "undefined_output": HEAD + "t2 = xor t0, t1\n out t2 t3\n",
    "literal_output": HEAD + "out t0 5\n",
    "empty": "",
    "missing_in": "func bad width 4\n",
    "missing_out": HEAD,
    "statement_after_out": HEAD + "out t0\nt2 = not t0\n",
    "func_shape": "func bad width\nin t0:public\nout t0\n",
    "func_width_word": "func bad width x\nin t0:public\nout t0\n",
    "func_name": "func 9bad width 4\nin t0:public\nout t0\n",
    "in_before_func": "in t0:public\nfunc bad width 4\nout t0\n",
    "duplicate_func": "func bad width 4\nin t0:public\nfunc worse width 8\nout t0\n",
    "duplicate_in": HEAD + "in t2:public\nout t0\n",
    "input_token": "func bad width 4\nin t0\nout t0\n",
    "input_temp": "func bad width 4\nin x0:public\nout t0\n",
    "input_class": "func bad width 4\nin t0:private\nout t0\n",
    "out_before_in": "func bad width 4\nout t0\n",
    "statement_before_in": "func bad width 4\nt0 = not 1\n",
    "operand_token": HEAD + "t2 = xor t0, x1\nout t2\n",
    "output_token": HEAD + "out t0 x\n",
    "store_shape": HEAD + "store 16\nout t0\n",
    "statement_shape": HEAD + "t2 xor t0, t1\nout t2\n",
    "def_temp": HEAD + "x2 = xor t0, t1\nout t0\n",
}
for name, text in MALFORMED.items():
    path = irdir / f"malformed_{name}.ir"
    path.write_text(text)
    record(f"malformed_{name}", ["compile", str(path), "--out-dir", str(outdir / "malformed")])
# an input that is not UTF-8 text
path = irdir / "malformed_not_utf8.ir"
path.write_bytes(b"func bad width 4\nin t0:public  # caf\xe9\nout t0\n")
record("malformed_not_utf8", ["compile", str(path), "--out-dir", str(outdir / "malformed")])

files = [p for p in outdir.rglob("*") if p.is_file() and p.parent != irdir]
print(f"{len(files)} output files in {outdir}")
