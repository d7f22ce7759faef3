"""Straight-line IR with security-annotated inputs.

A program is a single block of SSA operations over fixed-width word
temporaries. Inputs carry a security class (secret/public/random); copies are
not part of source IR (the backend synthesizes them).

Textual form, one statement per line, '#' starts a comment:

    func <name> width <4|8|16|32>
    in t0:public t1:random t2:secret
    t3 = xor t1, t2
    store 16, t3
    t4 = load 16
    out t4

Operands are temps ('t<k>') or integer literals (decimal or 0x hex). Store
data and outputs must be temps. Temp ids must be dense: the k-th defined
temp is t<k>, counting inputs first.

`parse_program` reads the syntax; `validate` is the one checker of these
rules, for parsed and constructed programs alike. A parse error reads
'line L, col C: <message>', and a broken rule reads
'line L, col C: <code>: <message>' at the statement that breaks it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class SecurityClass(enum.Enum):
    SECRET = "secret"
    PUBLIC = "public"
    RANDOM = "random"

    def __str__(self) -> str:
        return self.value


BINARY_OPCODES = ("xor", "and", "or", "add", "gf_mul")
UNARY_OPCODES = ("not", "copy")
MEMORY_OPCODES = ("load", "store")
PSEUDO_OPCODES = ("in", "out")
ALL_OPCODES = BINARY_OPCODES + UNARY_OPCODES + MEMORY_OPCODES + PSEUDO_OPCODES


@dataclass(frozen=True)
class Temp:
    id: int

    def __str__(self) -> str:
        return f"t{self.id}"


@dataclass(frozen=True)
class Literal:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Operand = Temp | Literal


@dataclass(frozen=True)
class IrOperation:
    """One body statement (the 'in'/'out' lines live on Program).

    For 'store', uses = (address, data) and defs is None.
    For 'load', uses = (address,).
    """

    id: int
    opcode: str
    uses: tuple[Operand, ...]
    defs: Temp | None


@dataclass(frozen=True)
class Program:
    name: str
    width: int
    inputs: tuple[tuple[Temp, SecurityClass], ...]
    body: tuple[IrOperation, ...]
    outputs: tuple[Temp, ...]

    def random_inputs(self) -> tuple[Temp, ...]:
        return tuple(t for t, c in self.inputs if c is SecurityClass.RANDOM)

    def secret_inputs(self) -> tuple[Temp, ...]:
        return tuple(t for t, c in self.inputs if c is SecurityClass.SECRET)

    def public_inputs(self) -> tuple[Temp, ...]:
        return tuple(t for t, c in self.inputs if c is SecurityClass.PUBLIC)


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class Diagnostic:
    code: str
    op_id: int | None
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


_TEMP_RE = re.compile(r"^t(\d+)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_operand(tok: str, line: int, col: int) -> Operand:
    m = _TEMP_RE.match(tok)
    if m:
        return Temp(int(m.group(1)))
    try:
        return Literal(int(tok, 0))
    except ValueError:
        raise ParseError(line, col, f"expected temp or literal, got {tok!r}") from None


def parse_program(text: str) -> Program:
    """Parse textual IR into a Program that `validate` accepts.

    The parser reads syntax only: the 'func' line, where 'in' and 'out' sit,
    't<k>:<class>' tokens, statement shape and operand tokens. Every
    well-formedness rule belongs to `validate`; its first diagnostic is
    raised as a ParseError at the line and column of the statement it names,
    with the text '<code>: <message>'.
    """
    name = None
    width = None
    inputs: list[tuple[Temp, SecurityClass]] = []
    body: list[IrOperation] = []
    outputs: list[Operand] = []
    # (line, col) of each statement under validate's id for it
    where: dict[int | None, tuple[int, int]] = {}
    saw_out = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        toks = stmt.replace(",", " ").split()
        if saw_out:
            raise ParseError(lineno, col, "statement after 'out'")
        if toks[0] == "func":
            if None in where:
                raise ParseError(lineno, col, "duplicate 'func' line")
            if len(toks) != 4 or toks[2] != "width" or not toks[3].isdecimal():
                raise ParseError(lineno, col, "expected: func <name> width <bits>")
            if not _NAME_RE.match(toks[1]):
                raise ParseError(lineno, col, f"bad function name {toks[1]!r}")
            name = toks[1]
            width = int(toks[3])
            where[None] = (lineno, col)
        elif toks[0] == "in":
            if name is None:
                raise ParseError(lineno, col, "'in' before 'func'")
            if 0 in where:
                raise ParseError(lineno, col, "duplicate 'in' line")
            where[0] = (lineno, col)
            for tok in toks[1:]:
                if ":" not in tok:
                    raise ParseError(lineno, col, f"expected t<k>:<class>, got {tok!r}")
                tname, cname = tok.split(":", 1)
                m = _TEMP_RE.match(tname)
                if not m:
                    raise ParseError(lineno, col, f"bad input temp {tname!r}")
                try:
                    cls = SecurityClass(cname)
                except ValueError:
                    raise ParseError(
                        lineno, col, f"unknown security class {cname!r}"
                    ) from None
                inputs.append((Temp(int(m.group(1))), cls))
        elif 0 not in where:
            raise ParseError(
                lineno, col, "'out' before 'in'" if toks[0] == "out" else "statement before 'in'"
            )
        elif toks[0] == "out":
            saw_out = True
            where[len(body) + 1] = (lineno, col)
            outputs = [_parse_operand(tok, lineno, col) for tok in toks[1:]]
        else:
            if toks[0] == "store":
                if len(toks) != 3:
                    raise ParseError(lineno, col, "expected: store <addr>, <temp>")
                opcode, args, t = "store", toks[1:], None
            else:
                # definition statement: t<k> = opcode operands
                if len(toks) < 3 or toks[1] != "=":
                    raise ParseError(lineno, col, f"cannot parse statement {stmt!r}")
                m = _TEMP_RE.match(toks[0])
                if not m:
                    raise ParseError(lineno, col, f"bad def temp {toks[0]!r}")
                opcode, args, t = toks[2], toks[3:], Temp(int(m.group(1)))
            operands = tuple(_parse_operand(tok, lineno, col) for tok in args)
            body.append(IrOperation(len(body) + 1, opcode, operands, t))
            where[len(body)] = (lineno, col)

    if name is None:
        raise ParseError(1, 1, "missing 'func' line")
    if 0 not in where:
        raise ParseError(1, 1, "missing 'in' line")
    if not saw_out:
        raise ParseError(1, 1, "missing 'out' line")
    prog = Program(name, width, tuple(inputs), tuple(body), tuple(outputs))
    diags = validate(prog)
    if diags:
        raise ParseError(*where[diags[0].op_id], str(diags[0]))
    return prog


def validate(p: Program) -> list[Diagnostic]:
    """Every well-formedness rule of the IR; empty list iff `p` is well formed.

    A diagnostic names its statement by `op_id`: None for the 'func' line,
    0 for the 'in' line, k for body op k and len(p.body) + 1 for the 'out'
    line.
    """
    diags: list[Diagnostic] = []
    if p.width not in (4, 8, 16, 32):
        diags.append(Diagnostic("bad-width", None, f"width {p.width} not in 4/8/16/32"))
    if not p.inputs:
        diags.append(Diagnostic("no-inputs", 0, "program needs at least one input"))

    defined: set[int] = set()
    expect = 0
    for t, _cls in p.inputs:
        if t.id in defined:
            diags.append(Diagnostic("duplicate-definition", 0, f"{t} defined twice"))
        defined.add(t.id)
        if t.id != expect:
            diags.append(Diagnostic("non-dense-id", 0, f"expected t{expect}, got {t}"))
        expect += 1

    for op in p.body:
        if op.opcode not in ALL_OPCODES or op.opcode in PSEUDO_OPCODES:
            diags.append(Diagnostic("unknown-opcode", op.id, op.opcode))
            continue
        if op.opcode == "copy":
            diags.append(
                Diagnostic("copy-in-source", op.id, "copies are not allowed in source IR")
            )
        if op.opcode == "store":
            if op.defs is not None:
                diags.append(Diagnostic("store-has-def", op.id, "store does not define a temp"))
            if len(op.uses) != 2 or not isinstance(op.uses[1], Temp):
                diags.append(Diagnostic("bad-arity", op.id, "store takes addr, data-temp"))
        else:
            want = 2 if op.opcode in BINARY_OPCODES else 1
            if len(op.uses) != want:
                diags.append(Diagnostic(
                    "bad-arity", op.id, f"{op.opcode} takes {want} operand(s), got {len(op.uses)}"
                ))
            if op.defs is None:
                diags.append(Diagnostic("missing-def", op.id, f"{op.opcode} must define"))
        for u in op.uses:
            if isinstance(u, Temp) and u.id not in defined:
                diags.append(Diagnostic("use-before-def", op.id, f"{u} not yet defined"))
        if op.defs is not None:
            if op.defs.id in defined:
                diags.append(
                    Diagnostic("duplicate-definition", op.id, f"{op.defs} defined twice")
                )
            else:
                if op.defs.id != expect:
                    diags.append(
                        Diagnostic("non-dense-id", op.id, f"expected t{expect}, got {op.defs}")
                    )
                defined.add(op.defs.id)
                expect += 1

    out = len(p.body) + 1
    for t in p.outputs:
        if not isinstance(t, Temp):
            diags.append(Diagnostic("literal-output", out, f"outputs must be temps, got {t}"))
        elif t.id not in defined:
            diags.append(Diagnostic("use-before-def", out, f"output {t} undefined"))
    return diags


def render_program(p: Program) -> str:
    """Canonical textual form; parse_program(render_program(p)) == p."""
    lines = [f"func {p.name} width {p.width}"]
    lines.append("in " + " ".join(f"{t}:{cls}" for t, cls in p.inputs))
    for op in p.body:
        if op.opcode == "store":
            lines.append(f"store {op.uses[0]}, {op.uses[1]}")
        else:
            args = ", ".join(str(u) for u in op.uses)
            lines.append(f"{op.defs} = {op.opcode} {args}")
    lines.append("out " + " ".join(str(t) for t in p.outputs))
    return "\n".join(lines) + "\n"
