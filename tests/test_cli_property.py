"""Property tests: generated straight-line IR through `maskcc.cli.main`.

Every subcommand must end with a documented exit code (0/1/2/3/4) and never
raise or print a traceback, and a secure `compile --verify` must never find
its own output leaky. Malformed IR text and mutated target configs must
end in 0/2/3/4, again without a traceback. The examples are derandomized,
so a run is reproducible. Node budgets keep the solves short, and the
oracle runs on thumb-like only: its brute force over mips-like's 16
registers takes seconds on some 3-op kernels.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maskcc.cli import main
from maskcc.target import PRESETS, render_target

BINARY = ("xor", "and", "or", "add", "gf_mul")

# a two-address op with literal operands only
LIT_ONLY = "func lit width 4\nin t0:random\nt1 = xor 3, 5\nout t1\n"
# loads from addresses no store has written
UNWRITTEN_LOAD = "func ld width 4\nin t0:random t1:secret\nt2 = load 5\nt3 = xor t2, t0\nout t3\n"
POINTER_STORE = "func ptr width 4\nin t0:random t1:random\nstore t0, t1\nt2 = load 3\nout t2\n"


@st.composite
def kernels(draw):
    """IR text: 1-3 inputs, up to 4 body ops over temps and literals, loads
    and stores at literal or temp addresses, width 4 or 8."""
    width = draw(st.sampled_from((4, 8)))
    classes = draw(st.lists(st.sampled_from(("secret", "public", "random")),
                            min_size=1, max_size=3))
    lines = [f"func fuzz width {width}",
             "in " + " ".join(f"t{i}:{c}" for i, c in enumerate(classes))]
    n = len(classes)  # temps defined so far

    def temp():
        return f"t{draw(st.integers(0, n - 1))}"

    def operand(top):
        return temp() if draw(st.booleans()) else str(draw(st.integers(0, top)))

    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(BINARY + ("not", "load", "store")))
        if kind == "store":
            lines.append(f"store {operand(3)}, {temp()}")
            continue
        if kind == "load":
            args = operand(3)
        elif kind == "not":
            args = operand((1 << width) - 1)
        else:
            args = f"{operand((1 << width) - 1)}, {operand((1 << width) - 1)}"
        lines.append(f"t{n} = {kind} {args}")
        n += 1
    lines.append(f"out {temp()}")
    return "\n".join(lines) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=kernels(), target=st.sampled_from(("thumb-like", "mips-like")))
@example(src=LIT_ONLY, target="thumb-like")
@example(src=UNWRITTEN_LOAD, target="thumb-like")
@example(src=POINTER_STORE, target="mips-like")
def test_every_subcommand_exits_cleanly(src, target):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "k.ir"
        path.write_text(src)
        nodes = ["--budget-nodes", "2000"]
        runs = {
            "analyze": ["analyze", str(path)],
            "compile": ["compile", str(path), "--target", target, "--verify", *nodes,
                        "--out-dir", d],
            "simulate": ["simulate", str(path), "--target", target, *nodes],
            "oracle": ["oracle", str(path), "--bound", "6"],
        }
        for cmd, argv in runs.items():
            rc, err = run(argv)
            assert rc in (0, 1, 2, 3, 4), (cmd, rc, err)
            assert "Traceback" not in err, (cmd, err)
            if cmd == "compile":
                assert rc != 1, err  # a secure compile never verifies leaky


# what a mutation may put in place of a line, a value or a word: IR and
# config syntax, small and malformed numbers, and stray punctuation
JUNK = ("", "=", ",", ":", "#", "t0", "t1", "t9", "t-1", "0", "1", "-1", "3", "0x10", "x",
        "0 8", "width", "func", "in", "out", "xor", "not", "load", "store", "copy", "secret",
        "random", "true", "false", "yes", "R0", "R9", "R0 R0", "latency=0", "latency=x",
        "two_address=1", "memory=true", "op", "op xor", "registers = R0", "stack_slots = x")


def mutate(draw, lines: list[str]) -> str:
    """Drop, duplicate or replace lines, or replace one word of a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "dup", "line", "word")))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "line":
            lines[i] = draw(st.sampled_from(JUNK))
        else:
            words = lines[i].split()
            if words:
                words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@st.composite
def malformed_kernels(draw):
    return mutate(draw, draw(kernels()).splitlines())


@st.composite
def malformed_targets(draw):
    return mutate(draw, render_target(PRESETS[draw(st.sampled_from(tuple(PRESETS)))]).splitlines())


XOR_P0 = str(Path(__file__).resolve().parents[1] / "kernels" / "xor_p0.ir")


def assert_clean_exit(argv):
    rc, err = run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=malformed_kernels())
def test_malformed_ir_exits_cleanly(src):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "k.ir"
        path.write_text(src)
        assert_clean_exit(["analyze", str(path)])
        assert_clean_exit(["compile", str(path), "--budget-nodes", "500", "--out-dir", d])


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=malformed_targets())
@example(cfg=render_target(PRESETS["thumb-like"]).replace("stack_slots = 8", "stack_slots = 0 8"))
def test_malformed_target_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.target"
        path.write_text(cfg)
        assert_clean_exit(["compile", XOR_P0, "--target", str(path), "--budget-nodes", "500",
                           "--out-dir", d])
