"""Parametric machine descriptions.

A target supplies the register file, per-opcode latencies and two-address
flags, the calling convention (argument registers are a prefix of the
register list; one result register) and a stack-slot budget. Stack slots act
as extra storage locations usable only by spill copies; moving data through
them is what drives the memory bus.

Config format (key = value, one 'op' line per opcode):

    target = thumb-like
    registers = R0 R1 R2 R3 R4 R5 R6 R7
    args = R0 R1 R2 R3
    result = R0
    stack_slots = 8
    op xor latency=1 two_address=true
    op load latency=2 memory=true

load and store are memory ops by opcode; `memory=true` may mark them.
`stack_slots` is at most `MAX_STACK_SLOTS`: the model and the solver
allocate per slot, so a larger budget would cost memory before any search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import BINARY_OPCODES, MEMORY_OPCODES

MODEL_OPCODES = BINARY_OPCODES + ("not", "copy", "load", "store")
MAX_STACK_SLOTS = 1024  # the presets use 8


class TargetError(Exception):
    pass


@dataclass(frozen=True)
class OpInfo:
    latency: int
    two_address: bool = False


@dataclass(frozen=True)
class TargetDesc:
    name: str
    registers: tuple[str, ...]
    args: tuple[str, ...]
    result: str
    stack_slots: int
    ops: dict[str, OpInfo] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.registers)) != len(self.registers):
            raise TargetError("duplicate register name")
        if tuple(self.registers[: len(self.args)]) != self.args:
            raise TargetError("argument registers must be a prefix of the register list")
        if self.result not in self.registers:
            raise TargetError(f"result register {self.result} not in register list")
        if self.stack_slots < 0:
            raise TargetError("stack_slots must be nonnegative")
        if self.stack_slots > MAX_STACK_SLOTS:
            raise TargetError(f"stack_slots must be at most {MAX_STACK_SLOTS}")
        for opcode, info in self.ops.items():
            if opcode not in MODEL_OPCODES:
                raise TargetError(f"unknown opcode {opcode!r}")
            if info.latency < 1:
                raise TargetError(f"latency of {opcode} must be >= 1")
            if info.two_address and opcode not in BINARY_OPCODES:
                raise TargetError(f"two_address only applies to binary ops ({opcode})")
        for opcode in MODEL_OPCODES:
            if opcode not in self.ops:
                raise TargetError(f"missing op entry for {opcode}")

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    def latency(self, opcode: str) -> int:
        return self.ops[opcode].latency

    def two_address(self, opcode: str) -> bool:
        return self.ops[opcode].two_address

    def reg_name(self, index: int) -> str:
        """Registers first, then stack slots S0.. beyond the register file."""
        if index < len(self.registers):
            return self.registers[index]
        return f"S{index - len(self.registers)}"


def _ops(alu_two_address: bool, alu_lat: int = 1, mem_lat: int = 2) -> dict[str, OpInfo]:
    ops = {}
    for opc in BINARY_OPCODES:
        two = alu_two_address and opc != "gf_mul"
        ops[opc] = OpInfo(alu_lat, two_address=two)
    ops["not"] = OpInfo(alu_lat)
    ops["copy"] = OpInfo(alu_lat)
    ops["load"] = OpInfo(mem_lat)
    ops["store"] = OpInfo(mem_lat)
    return ops


PRESETS = {
    # compact two-address machine in the Cortex-M0 mold
    "thumb-like": TargetDesc(
        name="thumb-like",
        registers=tuple(f"R{i}" for i in range(8)),
        args=("R0", "R1", "R2", "R3"),
        result="R0",
        stack_slots=8,
        ops=_ops(alu_two_address=True),
    ),
    # roomy three-address machine
    "mips-like": TargetDesc(
        name="mips-like",
        registers=tuple(f"R{i}" for i in range(16)),
        args=("R0", "R1", "R2", "R3"),
        result="R0",
        stack_slots=8,
        ops=_ops(alu_two_address=False),
    ),
}


def _int(lineno: int, what: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise TargetError(f"line {lineno}: {what} must be an integer, got {value!r}") from None


def load_target(text: str) -> TargetDesc:
    """Parse a key-value target config into a validated TargetDesc."""
    name = None
    registers: tuple[str, ...] = ()
    args: tuple[str, ...] = ()
    result = None
    stack_slots = 8
    ops: dict[str, OpInfo] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("op "):
            parts = line.split()
            if len(parts) < 3:
                raise TargetError(f"line {lineno}: bad op line")
            opcode = parts[1]
            latency = None
            two_address = False
            for kv in parts[2:]:
                if "=" not in kv:
                    raise TargetError(f"line {lineno}: expected key=value, got {kv!r}")
                k, v = kv.split("=", 1)
                if k == "latency":
                    latency = _int(lineno, f"latency of {opcode}", v)
                elif k == "two_address":
                    if v.lower() not in ("true", "false"):
                        raise TargetError(
                            f"line {lineno}: two_address of {opcode} must be true or "
                            f"false, got {v!r}"
                        )
                    two_address = v.lower() == "true"
                elif k == "memory":  # load/store are memory ops by opcode
                    if opcode not in MEMORY_OPCODES:
                        raise TargetError(f"memory flag only applies to load/store ({opcode})")
                    if v.lower() != "true":
                        raise TargetError(f"line {lineno}: {opcode} is always a memory op")
                else:
                    raise TargetError(f"line {lineno}: unknown op key {k!r}")
            if latency is None:
                raise TargetError(f"line {lineno}: op {opcode} needs latency")
            if latency < 1:
                raise TargetError(f"line {lineno}: latency of {opcode} must be >= 1")
            if opcode in ops:
                raise TargetError(f"line {lineno}: duplicate op entry {opcode}")
            ops[opcode] = OpInfo(latency, two_address=two_address)
            continue
        if "=" not in line:
            raise TargetError(f"line {lineno}: cannot parse {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "target":
            name = value
        elif key == "registers":
            registers = tuple(value.split())
        elif key == "args":
            args = tuple(value.split())
        elif key == "result":
            result = value
        elif key == "stack_slots":
            stack_slots = _int(lineno, "stack_slots", value)
        else:
            raise TargetError(f"line {lineno}: unknown key {key!r}")
    if name is None or not registers or result is None:
        raise TargetError("config needs target, registers and result entries")
    return TargetDesc(
        name=name,
        registers=registers,
        args=args,
        result=result,
        stack_slots=stack_slots,
        ops=ops,
    )


def render_target(t: TargetDesc) -> str:
    """Canonical config text; load_target(render_target(t)) == t."""
    lines = [
        f"target = {t.name}",
        "registers = " + " ".join(t.registers),
        "args = " + " ".join(t.args),
        f"result = {t.result}",
        f"stack_slots = {t.stack_slots}",
    ]
    for opcode in MODEL_OPCODES:
        info = t.ops[opcode]
        parts = [f"op {opcode} latency={info.latency}"]
        if info.two_address:
            parts.append("two_address=true")
        if opcode in MEMORY_OPCODES:
            parts.append("memory=true")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def resolve_target(name_or_path: str) -> TargetDesc:
    """Look up a preset by name or load a config file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    from pathlib import Path

    try:
        text = Path(name_or_path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TargetError(f"unknown preset or missing file: {name_or_path}") from None
    except UnicodeDecodeError as e:
        raise TargetError(f"cannot read {name_or_path}: not UTF-8 text (byte "
                          f"{e.object[e.start]:#04x} at offset {e.start})") from None
    except OSError as e:
        raise TargetError(f"cannot read {name_or_path}: {e.strerror}") from None
    return load_target(text)
