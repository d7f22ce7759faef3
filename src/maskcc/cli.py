"""Command-line front end: compile, analyze, simulate, oracle.

Pipeline: parse -> type inference -> security sets -> base model ->
security (+implied) constraints -> branch-and-bound -> assembly + report.

Exit codes: 0 success, 2 parse/validate/input errors, 3 infeasible model,
4 budget exhausted without a solution, 1 other failures (e.g. a --verify
run that finds the output leaky, or an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import leakage, oracle, secsets, solver
from .bits import mask
from .ir import ParseError, parse_program
from .leakage import Exhaustive, MonteCarlo
from .model import (
    ModelBuildError,
    add_implied_constraints,
    add_security_constraints,
    build_base_model,
    dump_model,
    elab_types,
    elaborate,
)
from .target import TargetError, resolve_target

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4


def render_asm(model, sol, harness) -> list[str]:
    """Annotated assembly in the artifact's own dialect."""
    t = model.target
    prog = model.program
    env = model.env
    lines = [
        f"; func {prog.name} width {prog.width}  target {t.name}",
        "; in: "
        + " ".join(
            f"t{ti.id}={t.reg_name(prog.temps[ti.id].input_index)}:{cls}"
            for ti, cls in prog.inputs
        ),
    ]
    v_cycles = dict(sol.cycles)
    for ins in harness.instrs:
        op = prog.op(ins.pos)
        c = v_cycles[ins.pos]
        note = f"c={c}"
        if op.defs:
            d = op.defs[0]
            note += f"  t{d}:{env.cls(prog.temps[d].rep)}"
        if ins.opcode == "store":
            where = _memref_str(t, ins.mem)
            src = _src_str(t, ins.srcs[0])
            text = f"st {src}, {where}"
        elif ins.opcode == "load":
            where = _memref_str(t, ins.mem)
            text = f"ld {t.reg_name(ins.dest)}, {where}"
        elif ins.opcode == "copy":
            text = f"mov {t.reg_name(ins.dest)}, {_src_str(t, ins.srcs[0])}"
        elif ins.opcode == "not":
            text = f"not {t.reg_name(ins.dest)}, {_src_str(t, ins.srcs[0])}"
        else:
            a, b = (_src_str(t, s) for s in ins.srcs)
            dest = t.reg_name(ins.dest)
            if model.two_address(op) and dest in (a, b):  # not when both are literals
                other = b if a == dest else a
                text = f"{ins.opcode} {dest}, {other}"
            else:
                text = f"{ins.opcode} {dest}, {a}, {b}"
        lines.append(f"{text:<28}; {note}")
    if harness.result_reg is not None:
        lines.append(f"; out: {t.reg_name(harness.result_reg)}")
    return lines


def _src_str(t, src) -> str:
    kind, x = src
    return t.reg_name(x) if kind == "reg" else str(x)


def _memref_str(t, ref) -> str:
    kind, x = ref
    if kind == "slot":
        return f"[S{x}]"
    if kind == "lit":
        return f"[{x}]"
    return f"[{t.reg_name(x)}]"


def _class_name(env, t: int) -> str:
    return str(env.cls(t)).capitalize()


def analysis_dict(prog, env, sets) -> dict:
    cl = env.classifier
    temps = {}
    for tid in prog.visible_temps():
        e = env.expr(tid)
        temps[f"t{tid}"] = {
            "class": _class_name(env, tid),
            "expr": str(e),
            "supp": sorted(f"t{x}" for x in cl.supp(e)),
            "unq": sorted(f"t{x}" for x in cl.unq(e)),
            "dom": sorted(f"t{x}" for x in cl.dom(e)),
        }
    return {
        "program": prog.name,
        "width": prog.width,
        "temps": temps,
        "sets": secsets.sets_to_dict(sets),
    }


REPORT_FIELDS = {
    "program": str,
    "target": str,
    "width": int,
    "secure": bool,
    "status": str,
    "infeasible_family": (str, type(None)),
    "objective": (int, type(None)),
    "types": dict,
    "sets": dict,
    "solver_stats": dict,
    "verify": (dict, type(None)),
    "asm": list,
}


def validate_report(report: dict) -> list[str]:
    """Schema check for compile reports; empty list means well formed."""
    problems = []
    for key, typ in REPORT_FIELDS.items():
        if key not in report:
            problems.append(f"missing field {key}")
        elif not isinstance(report[key], typ):
            problems.append(f"field {key} has type {type(report[key]).__name__}")
    for f in fields(solver.SolveStats):
        if "solver_stats" in report and f.name not in report["solver_stats"]:
            problems.append(f"missing solver_stats.{f.name}")
    if report.get("status") not in ("Optimal", "Feasible", "Infeasible", "Timeout"):
        problems.append(f"bad status {report.get('status')!r}")
    return problems


class _UnreadableInput(Exception):
    """An input file that is missing, unreadable or not UTF-8 text."""


def _read_program(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _UnreadableInput(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise _UnreadableInput(f"cannot read {path}: not UTF-8 text (byte "
                               f"{e.object[e.start]:#04x} at offset {e.start})") from None
    except OSError as e:
        raise _UnreadableInput(f"cannot read {path}: {e.strerror}") from None
    return parse_program(text)


def _default_secret_pair(prog, width):
    s1, s2 = {}, {}
    for t in prog.secret_inputs():
        s1[t.id] = 0
        s2[t.id] = mask(width)
    return s1, s2


def front_end(prog, target, copy_budget: str):
    """(base model, security sets, secure model) for a parsed program.

    Types and sets are computed once. The secure model carries the security
    constraints and the implied family; the solver never reads that family,
    only the post-solve re-check and `--dump-model` do.
    """
    base = build_base_model(prog, target, copy_budget=copy_budget)
    sets = secsets.compute_sets(base.program, base.env)
    secure = add_implied_constraints(add_security_constraints(base, sets))
    return base, sets, secure


def _budget(args) -> solver.SolveBudget | None:
    """The solve budget the flags ask for, or None after printing an input error."""
    try:
        return solver.SolveBudget(args.budget_seconds, args.budget_nodes)
    except ValueError as e:
        print(f"error: bad solve budget (--budget-seconds {args.budget_seconds}, "
              f"--budget-nodes {args.budget_nodes}): {e}", file=sys.stderr)
        return None


def _load(args):
    """Read the program and target and run the front end.

    Returns (program, base, sets, secure), or None after printing an input
    error.
    """
    try:
        prog = _read_program(args.ir)
        target = resolve_target(args.target)
        return (prog, *front_end(prog, target, args.copy_budget))
    except (ParseError, _UnreadableInput, TargetError, ModelBuildError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def _unsolved(outcome) -> int:
    """Say why a solve found no schedule; the exit code for it."""
    if outcome.status == "Infeasible":
        family = outcome.infeasible_family or "unknown"
        print(f"infeasible: {outcome.message} (constraint family: {family})", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"{outcome.message} without a solution", file=sys.stderr)
    return EXIT_TIMEOUT


def _verdict_dict(verdict) -> dict:
    return {
        "verdict": "Equivalent" if verdict.equivalent else "Leaky",
        "positions": [list(p) for p in verdict.positions],
        "delta_mean": str(verdict.delta_mean),
        "delta_var": str(verdict.delta_var),
    }


def cmd_compile(args) -> int:
    budget = _budget(args)
    if budget is None:
        return EXIT_INPUT
    loaded = _load(args)
    if loaded is None:
        return EXIT_INPUT
    prog, base, sets, secure = loaded
    model = secure if args.secure else base
    if args.dump_model:
        Path(args.dump_model).write_text(json.dumps(dump_model(model), indent=2))
    outcome = solver.solve(model, budget)
    report = {
        "program": prog.name,
        "target": model.target.name,
        "width": prog.width,
        "secure": args.secure,
        "status": outcome.status,
        "infeasible_family": outcome.infeasible_family,
        "objective": outcome.solution.objective if outcome.solution else None,
        "types": {
            f"t{t}": _class_name(model.env, t) for t in model.program.visible_temps()
        },
        "sets": secsets.sets_to_dict(sets),
        "solver_stats": asdict(outcome.stats),
        "verify": None,
        "asm": [],
    }
    sol = outcome.solution
    if sol is None:
        rc = _unsolved(outcome)
        _emit(args, report)
        return rc

    harness = leakage.linearize(model, sol)
    report["asm"] = render_asm(model, sol, harness)
    if args.dump_solution:
        Path(args.dump_solution).write_text(json.dumps(sol.to_dict(), indent=2))
    rc = EXIT_OK
    if args.verify:
        verdict = _verify(prog, harness, args)
        report["verify"] = _verdict_dict(verdict)
        if not verdict.equivalent:
            print("verification failed: output is leaky", file=sys.stderr)
            rc = EXIT_FAIL
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{prog.name}.s").write_text("\n".join(report["asm"]) + "\n")
    (out_dir / f"{prog.name}.report.json").write_text(json.dumps(report, indent=2))
    _emit(args, report)
    return rc


def _verify(prog, harness, args):
    s1, s2 = _default_secret_pair(prog, prog.width)
    pub = {t.id: 0 for t in prog.public_inputs()}
    if leakage.exhaustive_ok(harness):
        sampling = Exhaustive()
    else:
        sampling = MonteCarlo(seed=args.seed)
    return leakage.check_equivalence(harness, pub, (s1, s2), sampling)


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))


def cmd_analyze(args) -> int:
    try:
        prog = _read_program(args.ir)
        elab = elaborate(prog, copy_budget=args.copy_budget)
        env = elab_types(elab)
    except (ParseError, _UnreadableInput, ModelBuildError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    payload = analysis_dict(elab, env, secsets.compute_sets(elab, env))
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _int_list(flag: str, text: str, count: int, what: str) -> list[int]:
    """Parse a comma list of exactly `count` integers; ValueError otherwise."""
    parts = text.split(",")
    if len(parts) != count:
        noun = "value" if count == 1 else "values"
        raise ValueError(f"{flag} takes {count} {noun} ({what}), got {len(parts)}")
    try:
        return [int(x, 0) for x in parts]
    except ValueError:
        raise ValueError(f"{flag}: not a list of integers: {text!r}") from None


def cmd_simulate(args) -> int:
    budget = _budget(args)
    if budget is None:
        return EXIT_INPUT
    loaded = _load(args)
    if loaded is None:
        return EXIT_INPUT
    prog, base, _sets, secure = loaded
    width = prog.width
    secret_ids = [t.id for t in prog.secret_inputs()]
    pub_ids = [t.id for t in prog.public_inputs()]
    try:
        if args.secrets:
            n = len(secret_ids)
            parts = _int_list(
                "--secrets", args.secrets, 2 * n,
                f"{n} for the first secret assignment, then {n} for the second",
            )
            s1 = dict(zip(secret_ids, parts[:n]))
            s2 = dict(zip(secret_ids, parts[n:]))
        else:
            s1, s2 = _default_secret_pair(prog, width)
        if args.pub:
            values = _int_list("--pub", args.pub, len(pub_ids), "one per public input")
            pub = dict(zip(pub_ids, values))
        else:
            pub = {t: 0 for t in pub_ids}
        if args.samples is not None and args.samples < 1:
            raise ValueError(f"--samples must be positive, got {args.samples}")
        total = (1 << width) ** len(prog.random_inputs())
        if args.exhaustive and not args.samples and total > leakage.EXHAUSTIVE_BOUND:
            raise ValueError(
                f"--exhaustive would enumerate {total} random assignments, more "
                f"than the bound {leakage.EXHAUSTIVE_BOUND}; use --samples"
            )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    model = secure if args.secure else base
    outcome = solver.solve(model, budget)
    if outcome.solution is None:
        return _unsolved(outcome)
    harness = leakage.linearize(model, outcome.solution)
    if args.samples:
        sampling = MonteCarlo(samples=args.samples, seed=args.seed)
    elif args.exhaustive or leakage.exhaustive_ok(harness):
        sampling = Exhaustive()
    else:
        sampling = MonteCarlo(seed=args.seed)

    draws = leakage.draw_assignments(harness, sampling)
    stats = leakage.leak_stats(harness, {**pub, **s1}, sampling, draws)
    verdict = leakage.compare_stats(
        harness, stats, leakage.leak_stats(harness, {**pub, **s2}, sampling, draws), sampling
    )
    values = {**pub, **s1}
    for t in prog.random_inputs():
        values[t.id] = 0
    _, trace = leakage.simulate(harness.instrs, width, harness.initial_regs(values))
    payload = {
        "program": prog.name,
        **_verdict_dict(verdict),
        "per_position": {
            f"o{pos}:{kind}": {
                "mean": str(stats.mean[(pos, kind)]),
                "var": str(stats.var[(pos, kind)]),
            }
            for pos, kind in stats.positions
        },
        "trace_sample": [[o.pos, o.kind, o.value] for o in trace],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if verdict.equivalent else EXIT_FAIL


def cmd_oracle(args) -> int:
    if args.slack < 0:
        print(f"error: --slack must not be negative, got {args.slack}", file=sys.stderr)
        return EXIT_INPUT
    loaded = _load(args)
    if loaded is None:
        return EXIT_INPUT
    _prog, base, _sets, secure = loaded
    try:
        report = oracle.compare_with_solver(
            base, secure, op_bound=args.bound, count_slack=args.slack
        )
    except oracle.OracleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if not report.discrepancies else EXIT_FAIL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` only parses."""
    ap = argparse.ArgumentParser(
        prog="maskcc",
        description="leak-aware code generation for masked straight-line kernels",
    )
    ap.add_argument("--json", action="store_true", help="echo reports to stdout")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # the options of the subcommands that solve and simulate
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("ir")
    solving.add_argument("--seed", type=int, default=leakage.DEFAULT_SEED)
    solving.add_argument("--target", default="thumb-like")
    solving.add_argument("--secure", dest="secure", action="store_true", default=True)
    solving.add_argument("--insecure", dest="secure", action="store_false")
    solving.add_argument("--copy-budget", default="full", choices=["none", "reg", "full"])
    solving.add_argument("--budget-seconds", type=float, default=60.0)
    solving.add_argument("--budget-nodes", type=int, default=None)

    c = sub.add_parser("compile", parents=[solving], help="generate leak-free assembly")
    c.add_argument("--dump-model", default=None)
    c.add_argument("--dump-solution", default=None)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--out-dir", default=".")
    c.set_defaults(func=cmd_compile)

    a = sub.add_parser("analyze", help="types and security sets as JSON")
    a.add_argument("ir")
    a.add_argument("--copy-budget", default="full", choices=["none", "reg", "full"])
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", parents=[solving],
                       help="simulate a compiled kernel and check leakage")
    s.add_argument("--secrets", default=None,
                   help="comma list: one value per secret input for the first "
                   "assignment, then one per secret input for the second")
    s.add_argument("--pub", default=None, help="comma list, one per public input")
    s.add_argument("--exhaustive", action="store_true")
    s.add_argument("--samples", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    o = sub.add_parser("oracle", help="brute-force cross-check of the solver")
    o.add_argument("ir")
    o.add_argument("--target", default="thumb-like")
    o.add_argument("--bound", type=int, default=8)
    o.add_argument("--slack", type=int, default=0)
    o.add_argument("--copy-budget", default="none", choices=["none", "reg", "full"])
    o.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except leakage.SimulationError as e:  # e.g. a load from a never-written address
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:  # input files raise their own errors: an output failed
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
