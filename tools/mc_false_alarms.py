"""Count Monte Carlo false alarms of the 4-sigma tolerance on secure kernels.

    python3 tools/mc_false_alarms.py [seeds]

Kernels: every secret-carrying `EQUIV_CASES` fixture of the test suite at
width 8, once as written (one or two randoms, so the exact exhaustive
verdict is known and must be Equivalent) and once with random inputs added
until there are three, each remasking the output (2^24 assignments, past
the exhaustive bound, where `compile --verify` falls back to Monte Carlo).
Fixtures on the three-register `mini` target run on thumb-like with the
`reg` copy budget instead, since `mini` cannot hold four inputs. Each
kernel's secure solution is compiled once and checked with
`check_equivalence` under `MonteCarlo(seed=s)` for s in range(seeds)
(default 100), with the default sample count and the secret pair of
`compile --verify` (0 against all ones). Prints one line per kernel and the
total number of Leaky verdicts.
"""

import re
import sys
from pathlib import Path

repo = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
from conftest import EQUIV_CASES, FIXTURE_SOURCES, TARGETS  # noqa: E402
from maskcc.cli import _default_secret_pair, front_end  # noqa: E402
from maskcc.ir import parse_program  # noqa: E402
from maskcc.leakage import Exhaustive, MonteCarlo, check_equivalence, linearize  # noqa: E402
from maskcc.model import ModelBuildError  # noqa: E402
from maskcc.solver import solve  # noqa: E402


def with_three_randoms(src: str) -> str:
    """Add random inputs until there are three, each xored into the output.

    Temp ids are dense with the inputs first, so the new inputs take the
    first ids after them and every later temp moves up.
    """
    inputs = re.search(r"^in (.*)$", src, flags=re.M).group(1).split()
    k, extra = len(inputs), 3 - sum(i.endswith(":random") for i in inputs)
    src = re.sub(r"\bt(\d+)\b", lambda mt: f"t{int(mt[1]) + extra * (int(mt[1]) >= k)}", src)
    new = range(k, k + extra)
    src = re.sub(r"^(in .*)$", lambda mt: mt[1] + "".join(f" t{r}:random" for r in new),
                 src, count=1, flags=re.M)
    top = max(int(t) for t in re.findall(r"\bt(\d+)\b", src))
    out = re.search(r"^out (t\d+)$", src, flags=re.M).group(1)
    body = []
    for i, r in enumerate(new, start=top + 1):
        body.append(f"t{i} = xor {out}, t{r}")
        out = f"t{i}"
    return re.sub(r"^out t\d+$", "\n".join(body + [f"out {out}"]), src, count=1, flags=re.M)


def main(seeds: int) -> None:
    total = alarms = 0
    for name, target, budget in EQUIV_CASES:
        src = FIXTURE_SOURCES[name].replace("width 4", "width 8", 1)
        if ":secret" not in src:
            continue
        if target == "mini":
            target, budget = "thumb-like", "reg"
        for variant, text in (("as written", src), ("three randoms", with_three_randoms(src))):
            prog = parse_program(text)
            where = f"{name} {variant} on {target}/{budget}"
            try:
                _, _, secure = front_end(prog, TARGETS[target], budget)
            except ModelBuildError as e:
                print(f"{where}: skipped, {e}")
                continue
            out = solve(secure)
            if out.solution is None:
                print(f"{where}: skipped, {out.status}")
                continue
            h = linearize(secure, out.solution)
            pub = {t.id: 0 for t in prog.public_inputs()}
            pair = _default_secret_pair(prog, prog.width)
            if variant == "as written":
                assert check_equivalence(h, pub, pair, Exhaustive()).equivalent, name
            leaky = sum(
                not check_equivalence(h, pub, pair, MonteCarlo(seed=s)).equivalent
                for s in range(seeds)
            )
            print(f"{where}: {leaky}/{seeds} Leaky", flush=True)
            total += seeds
            alarms += leaky
    print(f"false alarms: {alarms} of {total} Monte Carlo verdicts")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
