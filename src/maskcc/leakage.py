"""Hamming-distance transition simulator and leakage-equivalence checks.

Observables, per executed instruction:

* ROT -- a register write leaks HW(new xor previous content of that register);
  the first write to a register leaks against its initial content (argument
  registers hold the inputs, every other register starts at zero).
* MRE -- a memory operation leaks HW(data xor previous bus data); the first
  one leaks against the constant initial bus word. Loads place the loaded
  word on the bus and then write it to a register, in that order.

Two independent pure-Python implementations produce the trace of one input
assignment: a forward machine walk (`simulate`) and a literal backwards
recursion over the instruction sequence (`leak_trace_recursive`); tests
compare them on every fixture, and they are the references for the
statistics below.

`leak_stats` walks the random-input assignments in chunks of CHUNK lanes:
each register, the bus and each memory cell is one numpy array over the
chunk, each instruction is one numpy op, and each leak is a
`np.bitwise_count`. A memory address taken from a register that differs
across the lanes of a chunk sends that chunk to the scalar `simulate` loop.
Per-position sums and sums of squares are Python ints, so means and
variances are exact rationals, under exhaustive enumeration of the random
inputs or over a seeded Monte Carlo sample. Equivalence of two secret
instances compares the sums of means and of variances over all leak
positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import apply_binop, apply_unop, hw, mask
from .ir import SecurityClass
from .model import ExtendedModel, LitOperand, Solution, SolutionView

EXHAUSTIVE_BOUND = 2**20
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 2024
CHUNK = 1 << 12  # lanes per vector walk; bounds the walk's memory
WORD_BLOCK = 1 << 14  # generator words per Monte Carlo draw; bounds its memory


class SimulationError(Exception):
    pass


# value sources: ('reg', index) | ('lit', value)
# memory refs:   ('slot', index) | ('lit', address) | ('reg', index)


@dataclass(frozen=True)
class MInstr:
    pos: int  # stable position key, unique per instruction
    opcode: str
    dest: int | None  # register index written, None for store
    srcs: tuple[tuple[str, int], ...]
    mem: tuple[str, int] | None = None  # set for load/store


@dataclass
class MachineState:
    width: int
    regs: dict[int, int] = field(default_factory=dict)
    bus: int = 0  # initial memory-bus content, a constant
    memory: dict[object, int] = field(default_factory=dict)


@dataclass(frozen=True)
class LeakObs:
    pos: int
    kind: str  # 'ROT' | 'MRE'
    value: int


@dataclass(frozen=True)
class Harness:
    """A runnable linearization plus its input/output binding."""

    instrs: tuple[MInstr, ...]
    inputs: tuple[tuple[int, SecurityClass, int], ...]  # (temp id, class, register)
    width: int
    result_reg: int | None = None

    def random_inputs(self) -> tuple[int, ...]:
        return tuple(t for t, c, _ in self.inputs if c is SecurityClass.RANDOM)

    def initial_regs(self, values: dict[int, int]) -> dict[int, int]:
        return {reg: values[t] & mask(self.width) for t, _, reg in self.inputs}


def linearize(model: ExtendedModel, sol: Solution) -> Harness:
    """Lower a complete solution to executable machine instructions."""
    prog = model.program
    v = SolutionView(model, sol)
    nregs = model.target.num_registers
    instrs: list[MInstr] = []

    def src_of(op_id: int, i: int, slot) -> tuple[str, int]:
        if isinstance(slot, LitOperand):
            return ("lit", slot.value)
        t = v.selmap[(op_id, i)]
        return ("reg", v.reg[t])

    def mem_of(op) -> tuple[str, int]:
        if op.kind in ("spill_store", "spill_load"):
            stack_t = op.defs[0] if op.kind == "spill_store" else op.operands[0].alts[0]
            return ("slot", v.reg[stack_t] - nregs)
        addr = op.mem_addr
        if isinstance(addr, LitOperand):
            return ("lit", addr.value)
        t = v.selmap[(op.id, -1)]
        return ("reg", v.reg[t])

    for op_id in sorted(v.active, key=lambda o: v.cycle[o]):
        op = prog.op(op_id)
        if op.kind in ("in", "out"):
            continue
        if op.opcode == "store":
            instrs.append(
                MInstr(op.id, "store", None, (src_of(op.id, 0, op.operands[0]),), mem_of(op))
            )
        elif op.opcode == "load":
            instrs.append(MInstr(op.id, "load", v.reg[op.defs[0]], (), mem_of(op)))
        else:
            srcs = tuple(
                src_of(op.id, i, slot) for i, slot in enumerate(op.operands)
            )
            instrs.append(MInstr(op.id, op.opcode, v.reg[op.defs[0]], srcs))

    first_out = v.selmap.get((prog.out_op.id, 0))
    return Harness(
        instrs=tuple(instrs),
        inputs=tuple(
            (t.id, cls, prog.temps[t.id].input_index) for t, cls in prog.inputs
        ),
        width=prog.width,
        result_reg=v.reg.get(first_out) if first_out is not None else None,
    )


def simulate(
    instrs: tuple[MInstr, ...] | list[MInstr],
    width: int,
    regs0: dict[int, int],
) -> tuple[MachineState, list[LeakObs]]:
    """Forward machine walk emitting one observation per transition."""
    st = MachineState(width=width, regs=dict(regs0))
    trace: list[LeakObs] = []

    def resolve(src: tuple[str, int]) -> int:
        kind, x = src
        if kind == "lit":
            return x & mask(width)
        return st.regs.get(x, 0)

    def memkey(ref: tuple[str, int]) -> object:
        kind, x = ref
        if kind == "slot":
            return ("slot", x)
        if kind == "lit":
            return ("abs", x)
        return ("abs", st.regs.get(x, 0))

    def write_reg(pos: int, reg: int, value: int) -> None:
        old = st.regs.get(reg, 0)
        trace.append(LeakObs(pos, "ROT", hw(value ^ old)))
        st.regs[reg] = value

    def write_bus(pos: int, value: int) -> None:
        trace.append(LeakObs(pos, "MRE", hw(value ^ st.bus)))
        st.bus = value

    for ins in instrs:
        if ins.opcode == "store":
            val = resolve(ins.srcs[0])
            write_bus(ins.pos, val)
            st.memory[memkey(ins.mem)] = val
        elif ins.opcode == "load":
            key = memkey(ins.mem)
            if key not in st.memory:
                raise SimulationError(f"read of uninitialized memory address {key}")
            val = st.memory[key]
            write_bus(ins.pos, val)
            write_reg(ins.pos, ins.dest, val)
        elif ins.opcode in ("not", "copy"):
            val = apply_unop(ins.opcode, resolve(ins.srcs[0]), width)
            write_reg(ins.pos, ins.dest, val)
        else:
            val = apply_binop(
                ins.opcode, resolve(ins.srcs[0]), resolve(ins.srcs[1]), width
            )
            write_reg(ins.pos, ins.dest, val)
    return st, trace


def leak_trace_recursive(
    instrs: tuple[MInstr, ...] | list[MInstr],
    width: int,
    regs0: dict[int, int],
) -> list[tuple[str, int]]:
    """The leakage recursion evaluated literally on the write-event sequence.

    Loads are first transformed into a bus write followed by a register
    write. The result is the (kind, observation) sequence in program order;
    it must agree with `simulate`'s trace values.
    """
    st = MachineState(width=width, regs=dict(regs0))

    # forward pass only to learn each event's written value
    events: list[tuple[str, int, int]] = []  # ('reg', regindex, value) | ('mem', -1, value)

    def resolve(src):
        kind, x = src
        return x & mask(width) if kind == "lit" else st.regs.get(x, 0)

    def memkey(ref):
        kind, x = ref
        if kind == "slot":
            return ("slot", x)
        if kind == "lit":
            return ("abs", x)
        return ("abs", st.regs.get(x, 0))

    for ins in instrs:
        if ins.opcode == "store":
            val = resolve(ins.srcs[0])
            events.append(("mem", -1, val))
            st.memory[memkey(ins.mem)] = val
        elif ins.opcode == "load":
            key = memkey(ins.mem)
            if key not in st.memory:
                raise SimulationError(f"read of uninitialized memory address {key}")
            val = st.memory[key]
            events.append(("mem", -1, val))
            events.append(("reg", ins.dest, val))
            st.regs[ins.dest] = val
        else:
            if ins.opcode in ("not", "copy"):
                val = apply_unop(ins.opcode, resolve(ins.srcs[0]), width)
            else:
                val = apply_binop(
                    ins.opcode, resolve(ins.srcs[0]), resolve(ins.srcs[1]), width
                )
            events.append(("reg", ins.dest, val))
            st.regs[ins.dest] = val

    def leakage(k: int) -> list[tuple[str, int]]:
        if k == 0:
            return []
        kind, where, value = events[k - 1]
        prefix = leakage(k - 1)
        if kind == "reg":
            prev = None
            for j in range(k - 2, -1, -1):
                kj, wj, vj = events[j]
                if kj == "reg" and wj == where:
                    prev = vj
                    break
            if prev is None:
                prev = regs0.get(where, 0)
            return prefix + [("ROT", hw(value ^ prev))]
        prev = 0  # the bus starts at 0
        for j in range(k - 2, -1, -1):
            if events[j][0] == "mem":
                prev = events[j][2]
                break
        return prefix + [("MRE", hw(value ^ prev))]

    return leakage(len(events))


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class MonteCarlo:
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED


Sampling = Exhaustive | MonteCarlo


@dataclass
class LeakStats:
    positions: tuple[tuple[int, str], ...]
    mean: dict[tuple[int, str], Fraction]
    var: dict[tuple[int, str], Fraction]

    @property
    def sum_mean(self) -> Fraction:
        return sum(self.mean.values(), Fraction(0))

    @property
    def sum_var(self) -> Fraction:
        return sum(self.var.values(), Fraction(0))


def draw_assignments(harness: Harness, sampling: Sampling) -> np.ndarray | None:
    """The Monte Carlo random-input assignments, one row per sample.

    Row i holds the values of `harness.random_inputs()` in order: the same
    values, dtype and shape as drawing
    `random.Random(sampling.seed).randrange(1 << width)` sample by sample,
    read from the generator in blocks of WORD_BLOCK 32-bit words instead.
    CPython's `randrange(2**w)` is `Random._randbelow_with_getrandbits`: it
    calls `getrandbits(w + 1)` and redraws while the result is >= 2**w. For
    w <= 31 each attempt takes one word u and is accepted iff bit 31 of u
    is 0, with value u >> (31 - w); for w = 32 each attempt takes two words,
    the first being the value, accepted iff bit 31 of the second is 0.
    `getrandbits(32 * m)` holds the next m words in stream order, word i at
    bits 32i..32i+31; WORD_BLOCK is even, so the w = 32 pairs stay aligned.
    `tests/test_leakage.py::test_draw_assignments_matches_randrange` pins
    the equivalence. Widths above 32 are not supported.

    Under Exhaustive there is nothing to draw: `leak_stats` computes each
    chunk of assignments from its index.
    """
    if isinstance(sampling, Exhaustive):
        return None
    w = harness.width
    k = len(harness.random_inputs())
    n = sampling.samples * k
    out = np.empty(n, np.min_scalar_type(mask(w)))
    rng = random.Random(sampling.seed)
    filled = 0
    while filled < n:
        block = rng.getrandbits(32 * WORD_BLOCK).to_bytes(4 * WORD_BLOCK, "little")
        words = np.frombuffer(block, "<u4")
        if w == 32:
            values = words[0::2][words[1::2] < 1 << 31]
        else:
            values = words[words < 1 << 31] >> (31 - w)
        take = min(len(values), n - filled)
        out[filled : filled + take] = values[:take]
        filled += take
    return out.reshape(sampling.samples, k)


def _assignment_chunks(harness: Harness, sampling: Sampling, draws: np.ndarray | None):
    """Random-input assignments as (inputs, lanes) int64 arrays of up to CHUNK lanes."""
    k = len(harness.random_inputs())
    w = harness.width
    if isinstance(sampling, Exhaustive):
        total = (1 << w) ** k
        if total > EXHAUSTIVE_BOUND:
            raise SimulationError(
                f"exhaustive enumeration of {total} assignments exceeds the bound"
            )
        # itertools.product order: the first random input varies slowest
        shifts = np.array([w * (k - 1 - i) for i in range(k)], dtype=np.int64)[:, None]
        for start in range(0, total, CHUNK):
            index = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
            yield (index >> shifts) & mask(w)
        return
    if draws is None:
        draws = draw_assignments(harness, sampling)
    for start in range(0, sampling.samples, CHUNK):
        yield draws[start : start + CHUNK].T.astype(np.int64)


def _positions(instrs) -> list[tuple[int, str]]:
    """Trace keys in `simulate` order; the same for every input assignment."""
    order = []
    for ins in instrs:
        if ins.opcode in ("load", "store"):
            order.append((ins.pos, "MRE"))
        if ins.opcode != "store":
            order.append((ins.pos, "ROT"))
    return order


class _LaneDependentAddress(Exception):
    """A register address differs across the lanes of one chunk."""


def _walk_lanes(harness: Harness, fixed: dict[int, int], lanes: np.ndarray) -> np.ndarray:
    """`simulate` over every lane of `lanes` at once, one numpy op per instruction.

    `lanes` holds one row of values per random input. Returns the leak
    values as a (trace position, lane) uint8 array. Raises
    `_LaneDependentAddress` when a memory address is not the same in every
    lane, since memory is held as one array per address.
    """
    w = harness.width
    m = mask(w)
    n = lanes.shape[1]
    zero = np.zeros(n, dtype=np.int64)
    values = {**fixed, **dict(zip(harness.random_inputs(), lanes))}
    regs = {
        r: np.broadcast_to(np.asarray(v, dtype=np.int64), (n,))
        for r, v in harness.initial_regs(values).items()
    }
    bus = zero
    memory: dict[object, np.ndarray] = {}
    leaks = np.empty((len(_positions(harness.instrs)), n), dtype=np.uint8)
    row = 0

    def resolve(src: tuple[str, int]) -> np.ndarray:
        kind, x = src
        if kind == "lit":
            return np.broadcast_to(np.int64(x & m), (n,))
        return regs.get(x, zero)

    def memkey(ref: tuple[str, int]) -> object:
        kind, x = ref
        if kind == "slot":
            return ("slot", x)
        if kind == "lit":
            return ("abs", x)
        addr = regs.get(x, zero)
        if (addr != addr[0]).any():
            raise _LaneDependentAddress
        return ("abs", int(addr[0]))

    def leak(a: np.ndarray, b: np.ndarray) -> None:
        nonlocal row
        np.bitwise_count(a ^ b, out=leaks[row])
        row += 1

    for ins in harness.instrs:
        if ins.opcode == "store":
            val = resolve(ins.srcs[0])
            leak(val, bus)
            bus = memory[memkey(ins.mem)] = val
            continue
        if ins.opcode == "load":
            key = memkey(ins.mem)
            if key not in memory:
                raise SimulationError(f"read of uninitialized memory address {key}")
            val = memory[key]
            leak(val, bus)
            bus = val
        elif ins.opcode in ("not", "copy"):
            val = apply_unop(ins.opcode, resolve(ins.srcs[0]), w)
        else:
            val = apply_binop(ins.opcode, resolve(ins.srcs[0]), resolve(ins.srcs[1]), w)
        leak(val, regs.get(ins.dest, zero))
        regs[ins.dest] = val
    return leaks


def _simulate_lanes(harness: Harness, fixed: dict[int, int], lanes: np.ndarray) -> np.ndarray:
    """The fallback for `_walk_lanes`: one `simulate` run per lane."""
    rand = harness.random_inputs()
    leaks = np.empty((len(_positions(harness.instrs)), lanes.shape[1]), dtype=np.uint8)
    for j, column in enumerate(lanes.T.tolist()):
        values = {**fixed, **dict(zip(rand, column))}
        _, trace = simulate(harness.instrs, harness.width, harness.initial_regs(values))
        leaks[:, j] = [o.value for o in trace]
    return leaks


def leak_stats(
    harness: Harness,
    fixed: dict[int, int],
    sampling: Sampling = Exhaustive(),
    draws: np.ndarray | None = None,
) -> LeakStats:
    """Per-position mean and variance over the random-input distribution.

    The assignments are walked in chunks of CHUNK lanes (`_walk_lanes`);
    per-position sums and sums of squares are kept as Python ints, so the
    Fractions are exact. `draws` passes Monte Carlo assignments already
    drawn by `draw_assignments` for the same harness and sampling, so that
    two secret instances under one seed draw them once.
    """
    order = _positions(harness.instrs)
    sums = dict.fromkeys(order, 0)
    sqs = dict.fromkeys(order, 0)
    counts = 0
    for lanes in _assignment_chunks(harness, sampling, draws):
        try:
            leaks = _walk_lanes(harness, fixed, lanes)
        except _LaneDependentAddress:
            leaks = _simulate_lanes(harness, fixed, lanes)
        counts += lanes.shape[1]
        s = leaks.sum(axis=1, dtype=np.int64)
        q = np.square(leaks, dtype=np.uint16).sum(axis=1, dtype=np.int64)
        for key, si, qi in zip(order, s.tolist(), q.tolist()):
            sums[key] += si
            sqs[key] += qi
    mean = {k: Fraction(s, counts) for k, s in sums.items()}
    var = {
        k: Fraction(sqs[k], counts) - mean[k] * mean[k] for k in sums
    }
    return LeakStats(tuple(order), mean, var)


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    positions: tuple[tuple[int, str], ...] = ()
    delta_mean: Fraction = Fraction(0)
    delta_var: Fraction = Fraction(0)

    def __str__(self) -> str:
        if self.equivalent:
            return "Equivalent"
        return (
            f"Leaky(positions={list(self.positions)}, "
            f"dmean={self.delta_mean}, dvar={self.delta_var})"
        )


def check_equivalence(
    harness: Harness,
    pub: dict[int, int],
    secrets: tuple[dict[int, int], dict[int, int]],
    sampling: Sampling = Exhaustive(),
) -> Verdict:
    """Compare the leak distributions of two secret instances."""
    s1, s2 = secrets
    draws = draw_assignments(harness, sampling)
    return compare_stats(
        harness,
        leak_stats(harness, {**pub, **s1}, sampling, draws),
        leak_stats(harness, {**pub, **s2}, sampling, draws),
        sampling,
    )


def compare_stats(
    harness: Harness,
    st1: LeakStats,
    st2: LeakStats,
    sampling: Sampling,
) -> Verdict:
    """Verdict on two secret instances from their `leak_stats`.

    Exact comparison under Exhaustive. Under MonteCarlo the tolerance
    covers sampling noise (about four standard deviations of the
    summed-mean estimate); matched seeds keep the verdict reproducible but
    cannot make a finite sample cancel exactly.
    """
    tolerance = Fraction(0)
    if isinstance(sampling, MonteCarlo):
        positions = max(1, len(st1.positions))
        # per-position HW variance is at most width/4
        sigma_sq = Fraction(positions * harness.width, 2 * sampling.samples)
        tolerance = 4 * Fraction(int(float(sigma_sq) ** 0.5 * 10**9), 10**9)
    dmean = st1.sum_mean - st2.sum_mean
    dvar = st1.sum_var - st2.sum_var
    if abs(dmean) <= tolerance and abs(dvar) <= tolerance:
        return Verdict(True)
    bad = tuple(
        k
        for k in st1.positions
        if abs(st1.mean[k] - st2.mean[k]) > tolerance
        or abs(st1.var[k] - st2.var[k]) > tolerance
    )
    return Verdict(False, bad, dmean, dvar)


def exhaustive_ok(harness: Harness) -> bool:
    total = (1 << harness.width) ** len(harness.random_inputs())
    return total <= EXHAUSTIVE_BOUND
