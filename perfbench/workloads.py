"""Workload catalogues: the kernels each workload compiles and how.

Each workload is a fixed catalogue of kernels, so that every run of the same
code does the same work and the counts (`optimal`, `decided`, solver nodes)
repeat exactly. The benchmark seed decides what can vary without changing
that work: the order kernels run in within a pass, the Monte Carlo sampling
seed handed to `maskcc compile --seed`, and the values the output checker
draws (see check.py).

The fixture kernels under fixtures/ and the `mini`/`quad` target configs
under targets/ are frozen copies of the test suite's fixtures
(`tests/conftest.py`), written with `maskcc.target.render_target`; a change
to the tests does not change what the benchmark measures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# one-line reason per workload; BENCHMARK.json carries the same lines
WHY = {
    "ladder": "generated 3-12 op kernels on thumb-like/full under a node budget: "
    "solver optimize mode does almost all the work",
    "verify": "fixture kernels at width 8 with --verify: the leakage simulator's "
    "exhaustive and Monte Carlo paths do almost all the work",
    "deep": "generated 24-28 op long-chain kernels: type inference and pair sets "
    "(secsets) do almost all the work",
    "oracle": "fixture combos under `maskcc oracle`: brute force plus solver "
    "enumerate mode, the only independent optimality check",
}

OPS = ("xor", "xor", "xor", "and", "or", "add", "gf_mul", "not")
CLASSES = ("secret", "random", "random", "public")

# The ROADMAP ladder: 3/5/7/9/12 body ops x generator seeds 0-3. 15k nodes
# keeps a pass near six seconds and gives the same status mix as 100k nodes
# (2 Optimal, 4 proven Infeasible, 14 Timeout).
LADDER_SIZES = (3, 5, 7, 9, 12)
LADDER_SEEDS = range(4)
LADDER_NODES = 15_000

# Long chains: secsets.compute_sets grows exponentially with chain depth.
# 24/26/28 ops x 8 seeds spread the front-end work over many kernels of up
# to about a second each (at 32 ops one kernel takes 4-6 s and a pass holds
# too few of them to time steadily). A small node budget keeps the solver's
# share small.
DEEP_SIZES = (24, 26, 28)
DEEP_SEEDS = range(8)
DEEP_NODES = 2_000

# A node cap far above what the fixtures need; the seconds cap never binds.
VERIFY_NODES = 200_000
SECONDS_CAP = "600"

# (fixture, preset). Every cheap fixture runs on both presets. An exhaustive
# check of two 8-bit randoms (2^16 assignments) costs 2-3 s and the Monte
# Carlo path (spill_force, three randoms) 3-5 s, so one of each keeps a pass
# near six seconds.
VERIFY_CASES = [
    (name, preset)
    for name in ("xor_p0", "sec_reload", "mem_secret", "allpub", "identity", "nohide")
    for preset in ("thumb-like", "mips-like")
] + [
    ("arith_mask", "thumb-like"),  # proven infeasible under the reg budget
    ("two_shares", "thumb-like"),  # exhaustive, two randoms
    ("spill_force", "mips-like"),  # Monte Carlo, three randoms
]

# (fixture, target, copy budget, slack): the test suite's ORACLE_CASES. Slack 1
# (enumerate one cycle past the optimum) where brute force stays cheap; the
# four combos whose slack-1 brute force takes 4-13 s each use slack 0.
ORACLE_CASES = [
    ("xor_p0", "thumb-like", "none", 1),
    ("xor_p0", "mips-like", "none", 1),
    ("xor_p0", "thumb-like", "reg", 1),
    ("goubin_mask", "quad", "none", 1),
    ("secmult_gf", "quad", "reg", 0),
    ("arith_mask", "quad", "reg", 0),
    ("sec_reload", "quad", "reg", 0),
    ("two_shares", "mini", "none", 1),
    ("mem_secret", "mini", "reg", 0),
    ("mem_pair", "mini", "none", 1),
    ("roundtrip", "mini", "none", 1),
    ("allpub", "thumb-like", "none", 1),
    ("identity", "thumb-like", "none", 1),
    ("nohide", "thumb-like", "reg", 1),
]


@dataclass(frozen=True)
class Job:
    """One maskcc invocation: `maskcc.cli.main(argv)`."""

    kernel: str  # unique within the workload
    kind: str  # 'compile' | 'oracle'
    argv: tuple[str, ...]
    ir: Path
    out_dir: Path | None = None  # where compile writes <func>.s
    node_budget: int | None = None


def ladder_kernel(gen_seed: int, n_ops: int, window: int | None = None) -> str:
    """A random width-8 kernel shaped like tests/test_stress.gen_kernel.

    Operands come from every earlier temp, or with `window` only from the
    last `window` temps, which builds long dependency chains.
    """
    rng = random.Random(100 * gen_seed + n_ops)
    classes = list(CLASSES)
    rng.shuffle(classes)
    kind = "ladder" if window is None else "deep"
    lines = [
        f"func {kind}_s{gen_seed}_n{n_ops} width 8",
        "in " + " ".join(f"t{i}:{c}" for i, c in enumerate(classes)),
    ]
    n = len(classes)
    for _ in range(n_ops):
        opc = rng.choice(OPS)
        lo = 0 if window is None else max(0, n - window)
        a = rng.randrange(lo, n)
        if opc == "not":
            lines.append(f"t{n} = not t{a}")
        else:
            lines.append(f"t{n} = {opc} t{a}, t{rng.randrange(lo, n)}")
        n += 1
    lines.append(f"out t{n - 1}")
    return "\n".join(lines) + "\n"


def fixture(name: str, width: int | None = None) -> str:
    text = (HERE / "fixtures" / f"{name}.ir").read_text()
    if width is not None:
        text = re.sub(r"\bwidth \d+\b", f"width {width}", text, count=1)
    return text


def _compile_job(work: Path, kernel: str, text: str, target: str, budget: str,
                 nodes: int, seed: int, verify: bool = False) -> Job:
    ir = work / f"{kernel}.ir"
    ir.write_text(text)
    out_dir = work / kernel
    argv = [
        "--json", "compile", str(ir), "--target", target, "--copy-budget", budget,
        "--budget-nodes", str(nodes), "--budget-seconds", SECONDS_CAP,
        "--seed", str(seed), "--out-dir", str(out_dir),
    ]
    if verify:
        argv.append("--verify")
    return Job(kernel, "compile", tuple(argv), ir, out_dir, nodes)


def write(name: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's inputs under `work`; return its jobs in run order."""
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    if name == "ladder":
        for s in LADDER_SEEDS:
            for n in LADDER_SIZES:
                jobs.append(_compile_job(work, f"ladder_s{s}_n{n}", ladder_kernel(s, n),
                                         "thumb-like", "full", LADDER_NODES, seed))
    elif name == "deep":
        for s in DEEP_SEEDS:
            for n in DEEP_SIZES:
                jobs.append(_compile_job(work, f"deep_s{s}_n{n}", ladder_kernel(s, n, window=4),
                                         "mips-like", "none", DEEP_NODES, seed))
    elif name == "verify":
        for fx, preset in VERIFY_CASES:
            jobs.append(_compile_job(work, f"{fx}@{preset}", fixture(fx, width=8),
                                     preset, "reg", VERIFY_NODES, seed, verify=True))
    else:
        for tname in ("mini", "quad"):
            (work / f"{tname}.target").write_text(
                (HERE / "targets" / f"{tname}.target").read_text()
            )
        for fx, target, budget, slack in ORACLE_CASES:
            kernel = f"{fx}@{target}/{budget}"
            ir = work / f"{fx}.ir"
            ir.write_text(fixture(fx))
            tpath = target if target.endswith("-like") else str(work / f"{target}.target")
            argv = ("oracle", str(ir), "--target", tpath, "--copy-budget", budget,
                    "--slack", str(slack))
            jobs.append(Job(kernel, "oracle", argv, ir))
    random.Random(seed).shuffle(jobs)
    return jobs
