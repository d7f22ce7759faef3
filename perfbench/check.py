"""Independent output checker for compiled kernels.

Written against the documented formats only: the IR grammar and the GF
reduction polynomials in README.md, and the machine model in the
maskcc.leakage module docstring. It imports nothing from maskcc, so a defect
shared by the compiler and its own simulator cannot hide here.

Machine model: argument registers hold the inputs, every other register
starts at 0, and the memory bus starts at 0. A register write leaks
HW(new xor old) (ROT); a load or store leaks HW(data xor bus) (MRE), and a
load drives the bus before it writes its register.

A kernel's emitted `.s` is run over every assignment of its random inputs
at once (one numpy lane per assignment) and checked twice: the result
register must equal the IR's output in every lane, and the per-position
ROT/MRE Hamming-weight histograms must be identical for every secret value
when the secret space is small, or for a fixed handful of secret values
(all-zero, all-one and four seeded draws) otherwise.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np

# README.md, "IR format": one reduction polynomial per width
GF_POLY = {4: 0x13, 8: 0x11B, 16: 0x1002B, 32: 0x10000008D}

EXHAUSTIVE_LANES = 1 << 16  # beyond this the randoms are sampled
SAMPLED_LANES = 1 << 14
ALL_SECRETS_BOUND = 16  # secret spaces this small are swept completely
SECRET_DRAWS = 4


class CheckError(Exception):
    pass


def _gf_mul(a, b, width):
    acc = np.zeros_like(a)
    a = a.copy()
    b = b.copy()
    for _ in range(width):
        acc ^= np.where(b & 1, a, 0)
        b >>= 1
        a <<= 1
        a = np.where(a >> width, a ^ GF_POLY[width], a)
    return acc


def _binop(op, a, b, width):
    m = np.uint64((1 << width) - 1)
    if op == "xor":
        return a ^ b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "add":
        return (a + b) & m
    if op == "gf_mul":
        return _gf_mul(a, b, width)
    raise CheckError(f"unknown binary opcode {op!r}")


# -- IR ----------------------------------------------------------------------


def parse_ir(text):
    """(width, inputs [(id, class)], body [(dest, op, operands)], outputs)."""
    width = None
    inputs, body, outputs = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "func":
            width = int(rest.split()[-1])
        elif head == "in":
            for tok in rest.split():
                t, cls = tok.split(":")
                inputs.append((int(t[1:]), cls))
        elif head == "out":
            outputs = [int(t.strip()[1:]) for t in rest.split()]
        elif head == "store":
            addr, data = (s.strip() for s in rest.split(","))
            body.append((None, "store", (addr, data)))
        else:
            dest, _, rhs = line.partition("=")
            op, _, args = rhs.strip().partition(" ")
            body.append((int(dest.strip()[1:]), op, tuple(s.strip() for s in args.split(","))))
    if width not in GF_POLY:
        raise CheckError(f"unsupported width {width}")
    return width, inputs, body, outputs


def eval_ir(text, values, lanes):
    """Value of the first output for each lane; `values` maps input id -> array."""
    width, _, body, outputs = parse_ir(text)
    m = np.uint64((1 << width) - 1)
    env = dict(values)
    memory = {}

    def operand(tok):
        if tok.startswith("t"):
            return env[int(tok[1:])]
        return np.full(lanes, int(tok, 0) & int(m), dtype=np.uint64)

    def address(tok):
        if tok.startswith("t"):
            vals = np.unique(env[int(tok[1:])])
            if len(vals) != 1:
                raise CheckError("secret- or random-dependent memory address")
            return int(vals[0])
        return int(tok, 0)

    for dest, op, args in body:
        if op == "store":
            memory[address(args[0])] = operand(args[1])
        elif op == "load":
            env[dest] = memory.get(address(args[0]), np.zeros(lanes, dtype=np.uint64))
        elif op == "not":
            env[dest] = ~operand(args[0]) & m
        else:
            env[dest] = _binop(op, operand(args[0]), operand(args[1]), width)
    return env[outputs[0]]


# -- assembly ------------------------------------------------------------------


def parse_asm(text):
    """(width, input registers {temp id: reg}, instrs [(op, operands)], result reg)."""
    lines = text.splitlines()
    m = re.match(r"; func \S+ width (\d+)", lines[0])
    if not m or not lines[1].startswith("; in:"):
        raise CheckError("missing assembly header")
    width = int(m.group(1))
    inputs = {}
    for tok in lines[1][len("; in:"):].split():
        t, rest = tok.split("=")
        inputs[int(t[1:])] = rest.split(":")[0]
    instrs, result = [], None
    for raw in lines[2:]:
        if raw.startswith("; out:"):
            result = raw.split(":", 1)[1].strip()
            continue
        code = raw.split(";", 1)[0].strip()
        if code:
            op, _, args = code.partition(" ")
            instrs.append((op, tuple(s.strip() for s in args.split(","))))
    return width, inputs, instrs, result


def run_asm(text, values, lanes):
    """(result register per lane or None, [(kind, HW per lane)] per transition)."""
    width, inputs, instrs, result = parse_asm(text)
    m = np.uint64((1 << width) - 1)
    zero = np.zeros(lanes, dtype=np.uint64)
    regs = {reg: values[t] for t, reg in inputs.items()}
    memory = {}
    bus = zero
    obs = []

    def src(tok):
        if tok.startswith("R"):
            return regs.get(tok, zero)
        return np.full(lanes, int(tok, 0) & int(m), dtype=np.uint64)

    def mem_key(ref):
        inner = ref.strip("[]")
        if inner.startswith("S"):
            return inner
        if inner.startswith("R"):
            vals = np.unique(regs.get(inner, zero))
            if len(vals) != 1:
                raise CheckError("secret- or random-dependent memory address")
            return int(vals[0])
        return int(inner, 0)

    def write_reg(reg, val):
        obs.append(("ROT", np.bitwise_count(val ^ regs.get(reg, zero))))
        regs[reg] = val

    def drive_bus(val):
        nonlocal bus
        obs.append(("MRE", np.bitwise_count(val ^ bus)))
        bus = val

    for op, args in instrs:
        if op == "st":
            val = src(args[0])
            drive_bus(val)
            memory[mem_key(args[1])] = val
        elif op == "ld":
            key = mem_key(args[1])
            if key not in memory:
                raise CheckError(f"load of uninitialized memory {args[1]}")
            drive_bus(memory[key])
            write_reg(args[0], memory[key])
        elif op == "mov":
            write_reg(args[0], src(args[1]))
        elif op == "not":
            write_reg(args[0], ~src(args[1]) & m)
        elif len(args) == 2:  # two-address: dest = dest op src
            write_reg(args[0], _binop(op, src(args[0]), src(args[1]), width))
        else:
            write_reg(args[0], _binop(op, src(args[1]), src(args[2]), width))
    return (regs.get(result, zero) if result else None), obs


# -- the check -------------------------------------------------------------------


def check_kernel(ir_text, asm_text, rng: random.Random) -> list[str]:
    """Problems found in one compiled kernel; empty means correct and leak-free."""
    try:
        return _check(ir_text, asm_text, rng)
    except (CheckError, KeyError, ValueError, IndexError) as e:
        return [f"checker could not run the output: {type(e).__name__}: {e}"]


def _check(ir_text, asm_text, rng):
    width, inputs, _, _ = parse_ir(ir_text)
    asm_width, asm_inputs, _, result = parse_asm(asm_text)
    if asm_width != width or sorted(asm_inputs) != sorted(t for t, _ in inputs):
        return ["assembly header does not match the kernel's inputs"]
    if result is None:
        return ["assembly names no result register"]
    top = 1 << width
    rand = [t for t, c in inputs if c == "random"]
    secret = [t for t, c in inputs if c == "secret"]
    exhaustive = top ** len(rand) <= EXHAUSTIVE_LANES
    if exhaustive:
        grid = list(itertools.product(range(top), repeat=len(rand)))
        cols = np.array(grid, dtype=np.uint64).reshape(len(grid), len(rand))
    else:
        cols = np.array(
            [[rng.randrange(top) for _ in rand] for _ in range(SAMPLED_LANES)], dtype=np.uint64
        )
    lanes = cols.shape[0]
    values = {t: cols[:, i].copy() for i, t in enumerate(rand)}
    for t, c in inputs:
        if c == "public":
            values[t] = np.full(lanes, rng.randrange(top), dtype=np.uint64)
    if top ** len(secret) <= ALL_SECRETS_BOUND:
        secrets = list(itertools.product(range(top), repeat=len(secret)))
    else:
        secrets = [(0,) * len(secret), (top - 1,) * len(secret)] + [
            tuple(rng.randrange(top) for _ in secret) for _ in range(SECRET_DRAWS)
        ]
    problems = []
    reference = None
    for sv in secrets:
        vals = dict(values)
        for t, v in zip(secret, sv):
            vals[t] = np.full(lanes, v, dtype=np.uint64)
        expected = eval_ir(ir_text, vals, lanes)
        got, obs = run_asm(asm_text, vals, lanes)
        if not np.array_equal(got, expected):
            bad = int(np.count_nonzero(got != expected))
            problems.append(f"result differs from the IR in {bad}/{lanes} lanes (secret {sv})")
        if not (exhaustive and secret):
            continue
        hists = [(kind, np.bincount(hw, minlength=width + 1)) for kind, hw in obs]
        if reference is None:
            reference = (sv, hists)
        else:
            for pos, ((kind, h), (_, h0)) in enumerate(zip(hists, reference[1])):
                if not np.array_equal(h, h0):
                    problems.append(
                        f"{kind} at transition {pos} leaks: HW histogram for secret {sv} "
                        f"differs from secret {reference[0]}"
                    )
                    break
    return problems
