import re
from pathlib import Path

import pytest

from maskcc.cli import main
from maskcc.target import (
    MAX_STACK_SLOTS,
    PRESETS,
    OpInfo,
    TargetDesc,
    TargetError,
    load_target,
    render_target,
    resolve_target,
)


def test_thumb_like_preset_shape():
    t = PRESETS["thumb-like"]
    assert t.registers == tuple(f"R{i}" for i in range(8))
    assert t.args == ("R0", "R1", "R2", "R3")
    assert t.result == "R0"
    assert t.two_address("xor") and t.two_address("add")
    assert not t.two_address("gf_mul")
    assert t.latency("load") == 2 and t.latency("xor") == 1
    rendered = render_target(t)
    assert "op load latency=2 memory=true\n" in rendered
    assert "op store latency=2 memory=true\n" in rendered


def test_mips_like_preset_shape():
    t = PRESETS["mips-like"]
    assert len(t.registers) == 16
    assert not any(t.two_address(op) for op in t.ops)
    assert t.latency("store") == 2


def test_round_trip():
    for t in PRESETS.values():
        assert load_target(render_target(t)) == t


def test_frozen_target_files_round_trip():
    targets = Path(__file__).resolve().parents[1] / "perfbench" / "targets"
    for path in sorted(targets.glob("*.target")):
        text = path.read_text()
        assert render_target(load_target(text)) == text


def test_memory_false_on_load_rejected():
    cfg = render_target(PRESETS["thumb-like"]).replace(
        "op load latency=2 memory=true", "op load latency=2 memory=false"
    )
    line = cfg.splitlines().index("op load latency=2 memory=false") + 1
    with pytest.raises(TargetError, match=f"^line {line}: load is always a memory op"):
        load_target(cfg)


def test_memory_flag_on_alu_op_rejected():
    for flag in ("true", "false"):
        cfg = render_target(PRESETS["thumb-like"]).replace(
            "op not latency=1", f"op not latency=1 memory={flag}"
        )
        with pytest.raises(TargetError, match=r"memory flag only applies to load/store \(not\)"):
            load_target(cfg)


def test_zero_latency_rejected():
    cfg = render_target(PRESETS["thumb-like"]).replace(
        "op xor latency=1 two_address=true", "op xor latency=0 two_address=true"
    )
    with pytest.raises(TargetError):
        load_target(cfg)


def test_duplicate_register_rejected():
    with pytest.raises(TargetError):
        TargetDesc(
            name="bad",
            registers=("R0", "R0"),
            args=("R0",),
            result="R0",
            stack_slots=0,
            ops=PRESETS["thumb-like"].ops,
        )


def test_unknown_opcode_rejected():
    cfg = render_target(PRESETS["thumb-like"]) + "op frobnicate latency=1\n"
    with pytest.raises(TargetError):
        load_target(cfg)


def test_two_address_on_unary_rejected():
    ops = dict(PRESETS["thumb-like"].ops)
    ops["not"] = OpInfo(1, two_address=True)
    with pytest.raises(TargetError):
        TargetDesc(
            name="bad",
            registers=("R0", "R1"),
            args=("R0",),
            result="R0",
            stack_slots=0,
            ops=ops,
        )


def test_args_must_prefix_registers():
    with pytest.raises(TargetError):
        TargetDesc(
            name="bad",
            registers=("R0", "R1"),
            args=("R1",),
            result="R0",
            stack_slots=0,
            ops=PRESETS["thumb-like"].ops,
        )


def test_missing_op_entry_rejected():
    ops = dict(PRESETS["thumb-like"].ops)
    del ops["copy"]
    with pytest.raises(TargetError):
        TargetDesc(
            name="bad",
            registers=("R0",),
            args=("R0",),
            result="R0",
            stack_slots=0,
            ops=ops,
        )


def test_stack_slot_budget_bounded(tmp_path, capsys):
    """A huge slot budget fails with exit 2 before any per-slot allocation."""
    cfg = render_target(PRESETS["thumb-like"])
    at_bound = cfg.replace("stack_slots = 8", f"stack_slots = {MAX_STACK_SLOTS}")
    assert load_target(at_bound).stack_slots == MAX_STACK_SLOTS
    huge = cfg.replace("stack_slots = 8", "stack_slots = 10000000")
    with pytest.raises(TargetError, match=f"^stack_slots must be at most {MAX_STACK_SLOTS}$"):
        load_target(huge)
    (tmp_path / "huge.target").write_text(huge)
    ir = Path(__file__).resolve().parents[1] / "kernels" / "xor_p0.ir"
    assert main(["compile", str(ir), "--target", str(tmp_path / "huge.target")]) == 2
    assert f"stack_slots must be at most {MAX_STACK_SLOTS}" in capsys.readouterr().err


def test_stack_slot_naming():
    t = PRESETS["thumb-like"]
    assert t.reg_name(0) == "R0"
    assert t.reg_name(8) == "S0"


def test_resolve_preset_and_file(tmp_path):
    assert resolve_target("mips-like") is PRESETS["mips-like"]
    path = tmp_path / "custom.tgt"
    path.write_text(render_target(PRESETS["thumb-like"]))
    assert resolve_target(str(path)) == PRESETS["thumb-like"]
    with pytest.raises(TargetError):
        resolve_target("no-such-preset")


# (rendered line, its replacement, the message after "line N: ")
MALFORMED_VALUES = {
    "stack_slots": ("stack_slots = 8", "stack_slots = 0 8",
                    "stack_slots must be an integer, got '0 8'"),
    "latency": ("op xor latency=1 two_address=true", "op xor latency=x two_address=true",
                "latency of xor must be an integer, got 'x'"),
    "two_address": ("op xor latency=1 two_address=true", "op xor latency=1 two_address=yes",
                    "two_address of xor must be true or false, got 'yes'"),
}


@pytest.mark.parametrize("case", MALFORMED_VALUES)
def test_malformed_value_names_its_line(case, tmp_path, capsys):
    line, bad, says = MALFORMED_VALUES[case]
    cfg = render_target(PRESETS["thumb-like"]).replace(line, bad)
    lineno = cfg.splitlines().index(bad) + 1
    with pytest.raises(TargetError, match=f"^line {lineno}: {re.escape(says)}$"):
        load_target(cfg)
    # the CLI reports it as an input error, without a traceback
    (tmp_path / "bad.target").write_text(cfg)
    ir = Path(__file__).resolve().parents[1] / "kernels" / "xor_p0.ir"
    assert main(["compile", str(ir), "--target", str(tmp_path / "bad.target")]) == 2
    assert says in capsys.readouterr().err
