"""maskcc benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Drives maskcc only through `maskcc.cli.main`, in-process, on inputs that
workloads.py generates from the seed. A run repeats passes over the
workload's kernels until another pass would overrun `--seconds` (at least
one pass; with `--trace 1`, at least one untraced and one traced pass,
alternating). Every pass must reproduce the first exactly (statuses,
objectives, solver nodes, assembly), and a budgeted compile must stop on
its node cap, never on its seconds cap; otherwise the run fails loudly.

Times are scaled to a reference speed: a fixed pure-Python loop
(`_reference`) is timed after every maskcc call, and each pass's times are
multiplied by (REF_NOMINAL_S / median of that pass's reference times) to
the power REF_EXPONENT. The machine the benchmark was defined on is shared
and its speed drifts by tens of percent within minutes; the scaling halves
the run-to-run spread. Raw times and reference samples are kept in the
per-kernel rows.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`, names and units from BENCHMARK.json). Per-kernel rows, and
spans when traced, go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# _reference() on the machine the benchmark was defined on (2-vCPU Xeon VM,
# Python 3.11, unloaded); scaled times read as seconds at that speed
REF_NOMINAL_S = 0.010
# maskcc slows down less than the reference loop when the machine is
# contended (a 2.0x slower reference came with 1.7x slower verify passes);
# over ten seeds per workload, 0.8 left the smallest spread on all four
REF_EXPONENT = 0.8


class BenchError(Exception):
    """The run itself is invalid (not reproducible, or a budget misbehaved)."""


@dataclass
class Pass:
    traced: bool
    results: list[dict] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # _reference() after each call
    tracer: object = None

    @property
    def scale(self) -> float:
        return (REF_NOMINAL_S / statistics.median(self.refs)) ** REF_EXPONENT


def _reference() -> float:
    """Seconds for a fixed pure-Python loop that involves no maskcc code.

    Small tuples, dict updates and frozensets, like maskcc's own code; it
    slows down somewhat more than maskcc when the machine is contended,
    hence REF_EXPONENT.
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    table: dict = {}
    items = []
    for i in range(6_000):
        k = (rng.randrange(4096), i & 15)
        table[k] = table.get(k, 0) + (i ^ k[0]).bit_count()
        items.append((k, frozenset((i & 7, k[1]))))
    total = 0
    for k, f in items[::3]:
        total += table[k] + len(f)
    return time.perf_counter() - t0


def _import_maskcc():
    sys.path.insert(0, str(ROOT / "src"))
    from maskcc import cli  # numpy comes in with it

    return cli


def _run_job(cli, job) -> dict:
    """One maskcc invocation, timed, with its outcome and any wrong result."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = None
        problems.append("raised: " + traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    res = {"kernel": job.kernel, "rc": rc, "wall_s": wall, "status": None,
           "objective": None, "nodes": None, "output": None}
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
        if rc is not None:
            problems.append(f"no JSON report on stdout (exit {rc}): {err.getvalue()[-300:]}")
    if "Traceback" in err.getvalue():
        problems.append("traceback on stderr")
    if job.kind == "compile":
        if rc not in (0, 3, 4):
            problems.append(f"exit {rc}: {err.getvalue()[-300:]}")
        if report is not None:
            problems += [f"report: {p}" for p in cli.validate_report(report)]
            res.update(status=report.get("status"), objective=report.get("objective"),
                       nodes=report.get("solver_stats", {}).get("nodes"),
                       output=report.get("asm"))
            verify = report.get("verify")
            if "--verify" in job.argv and rc == 0 and (verify or {}).get("verdict") != "Equivalent":
                problems.append(f"--verify on a secure compile: {verify}")
    else:
        if rc != 0:
            problems.append(f"exit {rc}: {err.getvalue()[-300:]}")
        if report is not None:
            problems += [f"oracle: {d}" for d in report.get("discrepancies", [])]
            opt = report.get("secure_optimum")
            res.update(status="Optimal" if opt is not None else "Infeasible", objective=opt,
                       output=[report.get("insecure_count"), report.get("secure_count")])
    res["problems"] = problems
    return res


def _check_budget(job, res: dict) -> None:
    if job.node_budget is None or res["status"] not in ("Timeout", "Feasible"):
        return
    if res["nodes"] is not None and res["nodes"] <= job.node_budget:
        raise BenchError(
            f"{job.kernel}: stopped at {res['nodes']} nodes, under the {job.node_budget}-node "
            "budget, so the seconds cap bound and the counts depend on machine speed"
        )


def _measure_setup(args) -> float:
    """Median wall time of fresh processes that import maskcc and write the inputs.

    Not scaled: process start-up and imports do not slow down with the
    reference loop, and scaling them doubled their spread.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_passes(cli, jobs, seconds: float, trace: bool) -> list[Pass]:
    import tracing

    passes: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        p = Pass(traced=trace and len(passes) % 2 == 1)
        p.tracer = tracing.Tracer() if p.traced else None
        t_pass = time.perf_counter()
        with p.tracer or contextlib.nullcontext():
            for job in jobs:
                if p.tracer is not None:
                    p.tracer.kernel = job.kernel
                res = _run_job(cli, job)
                p.refs.append(_reference())
                _check_budget(job, res)
                p.results.append(res)
        passes.append(p)
        now = time.perf_counter()
        need_more = trace and len(passes) < 2
        if not need_more and now + (now - t_pass) - t_start > seconds:
            return passes


def _signature(res: dict) -> tuple:
    return (res["rc"], res["status"], res["objective"], res["nodes"], json.dumps(res["output"]))


def _check_repeats(passes: list[Pass]) -> None:
    first = passes[0].results
    for p in passes[1:]:
        for a, b in zip(first, p.results):
            if _signature(a) != _signature(b):
                raise BenchError(f"{a['kernel']}: pass results differ: {_signature(a)} vs "
                                 f"{_signature(b)}")


def _check_outputs(jobs, passes: list[Pass], seed: int) -> None:
    """Run the independent checker on each solved compile; add its problems to every pass."""
    import check

    verdicts = {}
    for job, res in zip(jobs, passes[0].results):
        if job.kind == "compile" and res["rc"] == 0:
            asm = next(job.out_dir.glob("*.s")).read_text()
            rng = random.Random(f"{seed}:{job.kernel}")
            verdicts[job.kernel] = check.check_kernel(job.ir.read_text(), asm, rng)
    for p in passes:
        for res in p.results:
            res["problems"] += verdicts.get(res["kernel"], [])


def _kernel_time(passes: list[Pass], i: int, scaled: bool = True) -> float:
    """Median time of kernel i across the given passes."""
    return statistics.median(p.results[i]["wall_s"] * (p.scale if scaled else 1) for p in passes)


def _wall(passes: list[Pass], scaled: bool = True) -> float:
    """Sum over kernels of each kernel's median time across the given passes.

    A per-kernel median drops a slow spell that hits one kernel in one pass,
    which a median of pass totals would keep.
    """
    return sum(_kernel_time(passes, i, scaled) for i in range(len(passes[0].results)))


def _write_rows(path: Path, passes: list[Pass]) -> None:
    untraced = [p for p in passes if not p.traced]
    layers = next((p.tracer.kernel_times() for p in passes if p.traced), {})
    with path.open("w") as f:
        for i, res in enumerate(passes[0].results):
            row = {k: res[k] for k in ("kernel", "rc", "status", "objective", "nodes", "problems")}
            row["scaled_s"] = _kernel_time(untraced, i)
            row["walls_s"] = [p.results[i]["wall_s"] for p in untraced]
            row["refs_s"] = [p.refs[i] for p in untraced]
            row["layers_s"] = layers.get(res["kernel"], {})
            f.write(json.dumps(row) + "\n")


def _write_spans(path: Path, passes: list[Pass]) -> None:
    with path.open("w") as f:
        for p in passes:
            if p.traced:
                for span in p.tracer.spans:
                    f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import maskcc, write the workload's inputs and exit (times setup_s)")
    args = ap.parse_args(argv)

    # single-threaded numeric libraries, set before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        cli = _import_maskcc()
    except ImportError as e:
        print(f"error: cannot import maskcc from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WHY:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-seed{args.seed}"
    if args.setup_only:
        workloads.write(args.workload, args.seed, work)
        return 0

    setup_s = _measure_setup(args)
    jobs = workloads.write(args.workload, args.seed, work)
    passes = _run_passes(cli, jobs, args.seconds, args.trace == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _check_repeats(passes)
    _check_outputs(jobs, passes, args.seed)

    first = passes[0].results
    statuses = [r["status"] for r in first]
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace == 0:
        metrics = {
            "wall_s": _wall(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "optimal": statuses.count("Optimal"),
            "decided": statuses.count("Optimal") + statuses.count("Infeasible"),
        }
    else:
        layer = [p.tracer.layer_metrics() for p in traced]
        # counts repeat exactly across passes; times take the median
        metrics = {k: v if isinstance(v, int) else statistics.median(m[k] for m in layer)
                   for k, v in layer[0].items()}
        metrics["solver.timeouts"] = statuses.count("Timeout")
        metrics["bench.trace_overhead_s"] = _wall(traced) - _wall(untraced)
        _write_spans(work.with_name(work.name + ".spans.jsonl"), passes)
    rows = work.with_name(work.name + f"-trace{args.trace}.rows.jsonl")
    _write_rows(rows, passes)

    for res in first:
        for problem in res["problems"]:
            print(f"FAILED {res['kernel']}: {problem}", file=sys.stderr)
    counts = {s: statuses.count(s) for s in sorted(set(map(str, statuses)))}
    print(f"{args.workload}: {len(jobs)} kernels x {len(passes)} passes; raw wall "
          f"{_wall(untraced, scaled=False):.3f} s; statuses {counts}; "
          f"rows in {rows.relative_to(ROOT)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    failed = sum(1 for p in passes for res in p.results if res["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p.results) for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark invalid: {e}", file=sys.stderr)
        sys.exit(3)
