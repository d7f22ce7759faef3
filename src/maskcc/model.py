"""Combinatorial backend model: copies, decision variables, constraints.

Elaboration mirrors the backend's view of a program: the bracketing in/out
pseudo-ops become operations, every value gets one optional register copy
(inserted right after the input block or right after the defining operation),
and, under the full copy budget, one optional spill pair (store to a stack
slot plus reload) appended after the visible operations. Operands select
among equal-valued temporaries.

A Solution fixes activeness, issue cycles, registers and operand selections.
Cycles are canonical: every solution's schedule is the compaction of its
issue order (each active operation issues at the earliest cycle after its
predecessor that satisfies the selected data dependencies). Security
predicates depend only on the order, so the canonical space preserves both
the optimum and the set of reachable leakage behaviours, and it is finite,
which keeps exhaustive enumeration meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .ir import Literal, Program, SecurityClass, Temp
from .target import TargetDesc
from . import typeinf
from .typeinf import TypeEnv


class ModelBuildError(Exception):
    pass


@dataclass(frozen=True)
class TempOperand:
    """Operand slot selecting among equal-valued temps (tuple order = branch order)."""

    alts: tuple[int, ...]


@dataclass(frozen=True)
class LitOperand:
    value: int


OperandSlot = TempOperand | LitOperand


@dataclass(frozen=True)
class ModelTemp:
    id: int
    rep: int  # id of the original temp carrying this value
    kind: str  # 'reg' | 'stack' | 'out' (report-only, never allocated)
    defined_by: int  # op id
    input_index: int | None = None

    @property
    def is_input(self) -> bool:
        return self.input_index is not None

    def __str__(self) -> str:
        return f"t{self.id}"


@dataclass(frozen=True)
class ModelOp:
    id: int  # 1-based; printed as o<id>
    kind: str  # in|out|body|copy|spill_store|spill_load
    opcode: str
    defs: tuple[int, ...]
    operands: tuple[OperandSlot, ...]
    mandatory: bool
    is_memory: bool = False
    mem_addr: OperandSlot | None = None  # address slot for source load/store

    def temp_slots(self):
        """(index, slot) for every temp operand; the address slot is index -1."""
        for i, slot in enumerate(self.operands):
            if isinstance(slot, TempOperand):
                yield i, slot
        if isinstance(self.mem_addr, TempOperand):
            yield -1, self.mem_addr

    def __str__(self) -> str:
        return f"o{self.id}"


@dataclass
class ElabProgram:
    source: Program
    name: str
    width: int
    inputs: tuple[tuple[Temp, SecurityClass], ...]
    ops: tuple[ModelOp, ...]
    temps: dict[int, ModelTemp]
    out_temps: tuple[int, ...]  # report-only, defined by the out op
    mem_candidates: tuple[int, ...]  # op ids treated as potential memory ops
    tm: dict[int, int]  # memory candidate op id -> data temp id
    src2elab: dict[int, int]
    mem_deps: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def op(self, op_id: int) -> ModelOp:
        return self.ops[op_id - 1]

    @property
    def in_op(self) -> ModelOp:
        return self.ops[0]

    @cached_property
    def out_op(self) -> ModelOp:
        return next(o for o in self.ops if o.kind == "out")

    def visible_temps(self) -> list[int]:
        """Temps shown in analysis reports: everything except spill plumbing."""
        vis = [t.id for t, _ in self.inputs]
        for op in self.ops:
            if op.kind in ("body", "copy", "out"):
                vis.extend(op.defs)
        return sorted(vis)


def elaborate(p: Program, copy_budget: str = "full") -> ElabProgram:
    """Insert optional copies (and spill pairs) and renumber temps densely.

    copy_budget: 'none' (no optional ops), 'reg' (register copies only),
    'full' (register copies plus one spill store/load pair per value).
    """
    if copy_budget not in ("none", "reg", "full"):
        raise ModelBuildError(f"bad copy budget {copy_budget!r}")
    ops: list[ModelOp] = []
    temps: dict[int, ModelTemp] = {}
    classes: dict[int, list[int]] = {}  # rep -> register members, creation order
    src2elab: dict[int, int] = {}
    tm: dict[int, int] = {}
    src_memops: list[tuple[int, bool, object]] = []  # (op id, is_store, addr key)

    def new_temp(kind: str, rep: int | None = None, input_index: int | None = None) -> int:
        """A temp defined by the next op; without `rep` it starts a new class."""
        tid = len(temps)
        rep = tid if rep is None else rep
        temps[tid] = ModelTemp(tid, rep, kind, len(ops) + 1, input_index)
        if kind == "reg":
            classes.setdefault(rep, []).append(tid)
        return tid

    def add_op(kind, opcode, defs, operands, mandatory=True, data=None,
               mem_addr=None) -> int:
        """Append the next op; `data` is the temp a memory candidate moves."""
        op_id = len(ops) + 1
        ops.append(ModelOp(op_id, kind, opcode, defs, operands, mandatory,
                           is_memory=opcode in ("load", "store"), mem_addr=mem_addr))
        if data is not None:
            tm[op_id] = data
        return op_id

    def add_copy(src_id: int) -> None:
        if copy_budget != "none":
            cid = new_temp("reg", temps[src_id].rep)
            add_op("copy", "copy", (cid,), (TempOperand((src_id,)),), False, cid)

    def slot_of(u) -> OperandSlot:
        """The class representative; widened to the whole class at the end."""
        if isinstance(u, Literal):
            return LitOperand(u.value)
        return TempOperand((src2elab[u.id],))

    elab_inputs = []
    for i, (t, cls) in enumerate(p.inputs):
        src2elab[t.id] = new_temp("reg", input_index=i)
        elab_inputs.append((Temp(src2elab[t.id]), cls))
    add_op("in", "in", tuple(t.id for t, _cls in elab_inputs), ())
    for t, _cls in elab_inputs:
        add_copy(t.id)

    # body ops, each def followed by its optional copy
    for sop in p.body:
        defs = () if sop.defs is None else (new_temp("reg"),)
        if defs:
            src2elab[sop.defs.id] = defs[0]
        if sop.opcode not in ("load", "store"):
            add_op("body", sop.opcode, defs, tuple(slot_of(u) for u in sop.uses))
        else:
            addr, *data = sop.uses
            operands = tuple(slot_of(u) for u in data)
            op_id = add_op("body", sop.opcode, defs, operands,
                           data=defs[0] if defs else operands[0].alts[0],
                           mem_addr=slot_of(addr))
            key = ("lit", addr.value) if isinstance(addr, Literal) else ("any",)
            src_memops.append((op_id, not defs, key))
        if defs:
            add_copy(defs[0])
    mem_candidates = tuple(tm)  # the copies and source memory ops

    # out op defines one report-only temp per output
    out_temps = tuple(new_temp("out", src2elab[t.id]) for t in p.outputs)
    add_op("out", "out", out_temps, tuple(slot_of(t) for t in p.outputs))

    # spill pairs per value class, appended after the visible program
    if copy_budget == "full":
        for rep in sorted(classes):
            sid = new_temp("stack", rep)
            add_op("spill_store", "store", (sid,), (TempOperand((rep,)),), False, sid)
            lid = new_temp("reg", rep)
            add_op("spill_load", "load", (lid,), (TempOperand((sid,)),), False, lid)

    # widen source operands to their whole class now that classes are complete
    def widen(slot):
        if isinstance(slot, TempOperand):
            return TempOperand(tuple(classes[slot.alts[0]]))
        return slot

    ops = [
        replace(op, operands=tuple(map(widen, op.operands)), mem_addr=widen(op.mem_addr))
        if op.kind in ("body", "out") else op
        for op in ops
    ]

    # program-order dependencies between aliasing source memory operations
    mem_deps: dict[int, tuple[int, ...]] = {}
    for i, (o2, st2, a2) in enumerate(src_memops):
        deps = []
        for o1, st1, a1 in src_memops[:i]:
            alias = a1 == ("any",) or a2 == ("any",) or a1 == a2
            if alias and (st1 or st2):
                deps.append(o1)
        if deps:
            mem_deps[o2] = tuple(deps)

    return ElabProgram(
        source=p,
        name=p.name,
        width=p.width,
        inputs=tuple(elab_inputs),
        ops=tuple(ops),
        temps=temps,
        out_temps=out_temps,
        mem_candidates=mem_candidates,
        tm=tm,
        src2elab=src2elab,
        mem_deps=mem_deps,
    )


# -- decision variables, constraint families, the extended model ---------------


class ConstraintRow(NamedTuple):
    """One line of a model's flat constraint listing (`dump_model`)."""

    family: str  # e.g. 'data-dep', 'rpairs', ...
    kind: str  # 'base' | 'security' | 'implied'
    args: tuple = ()


@dataclass(frozen=True)
class SecurityTables:
    """The security families of a model, expanded to model temps and ops.

    Built once from the pair sets; the solver, the preflight, the oracle and
    `check_solution` all read these tables. A base model holds the empty one.
    """

    # (lo, hi) temps never written back to back to one register, in
    # expansion order (a dict used as an ordered set)
    rpairs: dict[tuple[int, int], None] = field(default_factory=dict)
    spairs: dict[int, frozenset[int]] = field(default_factory=dict)  # key -> hiders
    # secret input -> temps that must not immediately overwrite it
    sec_input: dict[int, frozenset[int]] = field(default_factory=dict)
    mmpairs: frozenset[tuple[int, int]] = frozenset()  # (lo, hi) memory ops
    mspairs: dict[int, frozenset[int]] = field(default_factory=dict)  # op -> hiders
    # implied (op, slot, def, source): an rpair between an operation's
    # selected source and its definition forbids one shared register
    accumulator: tuple[tuple[int, int, int, int], ...] = ()

    def rpair(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.rpairs

    def mmpair(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.mmpairs

    def rows(self) -> list[ConstraintRow]:
        def keyed(family, table):
            return [ConstraintRow(family, "security", (k, tuple(sorted(v))))
                    for k, v in table.items()]

        return (
            [ConstraintRow("rpairs", "security", p) for p in self.rpairs]
            + keyed("spairs", self.spairs)
            + keyed("sec-input-guard", self.sec_input)
            + [ConstraintRow("mmpairs", "security", p) for p in sorted(self.mmpairs)]
            + keyed("mspairs", self.mspairs)
            + [ConstraintRow("implied-accumulator", "implied", a) for a in self.accumulator]
        )


@dataclass
class ExtendedModel:
    program: ElabProgram
    target: TargetDesc
    env: TypeEnv
    r_dom: dict[int, tuple[int, ...]]  # temp -> allowed locations
    security: SecurityTables = field(default_factory=SecurityTables)

    @property
    def maxc(self) -> int:
        """Cycle horizon: every op issued one after another at full latency."""
        ops = self.program.ops
        return sum(self.latency(op) for op in ops) + len(ops) + 1

    @property
    def result_reg(self) -> int:
        return self.target.registers.index(self.target.result)

    @property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """Every constraint as a (family, kind, args) row, base families first.

        The base families are read off the program and target; the listing
        exists for `--dump-model` and constraint counts.
        """
        prog = self.program
        rows = [
            ConstraintRow(f, "base")
            for f in ("data-dep", "single-issue", "in-first-out-last", "no-overlap",
                      "live-range")
        ]
        for op in prog.ops:
            if op.kind == "spill_load":
                rows.append(ConstraintRow("spill-chain", "base", (op.id - 1, op.id)))
            if self.two_address(op):
                rows.append(ConstraintRow("two-address", "base", (op.id,)))
        for o2, deps in sorted(prog.mem_deps.items()):
            for o1 in deps:
                rows.append(ConstraintRow("mem-order", "base", (o1, o2)))
        for t, _cls in prog.inputs:
            rows.append(
                ConstraintRow("preassign-arg", "base", (t.id, prog.temps[t.id].input_index))
            )
        rows.append(ConstraintRow("preassign-result", "base", (self.result_reg,)))
        return tuple(rows + self.security.rows())

    def latency(self, op: ModelOp) -> int:
        if op.kind == "in":
            return 1
        if op.kind == "out":
            return 0
        return self.target.latency(op.opcode)

    def two_address(self, op: ModelOp) -> bool:
        return op.kind == "body" and self.target.two_address(op.opcode)


def elab_types(prog: ElabProgram) -> TypeEnv:
    """Types of every elaborated temp, inferred once on the source program.

    Copies, spill slots, reloads and out temps carry the value of their class
    representative, so each takes the expression object and the class of the
    source temp behind that representative.
    """
    env = typeinf.infer_types(prog.source)
    src_of = {e: s for s, e in prog.src2elab.items()}
    srcs = {t: src_of[mt.rep] for t, mt in prog.temps.items()}
    return TypeEnv(
        {t: env.classes[s] for t, s in srcs.items()},
        {t: env.exprs[s] for t, s in srcs.items()},
        env.classifier,
    )


def _capacity_check(prog: ElabProgram, target: TargetDesc) -> None:
    """Reject programs whose mandatory pressure cannot fit registers + slots."""
    capacity = target.num_registers + target.stack_slots
    mandatory = [op for op in prog.ops if op.mandatory]
    last_use: dict[int, int] = {}
    for op in mandatory:
        for _i, slot in op.temp_slots():
            last_use[prog.temps[slot.alts[0]].rep] = op.id
    live = 0
    peak = 0
    events: dict[int, int] = {}
    for op in mandatory:
        for d in op.defs:
            if op.kind == "out":
                continue
            live += 1
            end = last_use.get(prog.temps[d].rep)
            if end is not None:
                events[end] = events.get(end, 0) + 1
        peak = max(peak, live)
        live -= events.get(op.id, 0)
    if peak > capacity:
        raise ModelBuildError(
            f"program needs {peak} simultaneously live values; "
            f"target provides {capacity} (registers + stack slots)"
        )


def build_base_model(
    p: Program, target: TargetDesc, copy_budget: str = "full"
) -> ExtendedModel:
    """Backend model with base constraints only (no security)."""
    prog = elaborate(p, copy_budget)
    if len(p.inputs) > len(target.args):
        raise ModelBuildError(
            f"{len(p.inputs)} inputs exceed {len(target.args)} argument registers"
        )
    _capacity_check(prog, target)
    env = elab_types(prog)
    nregs = target.num_registers
    r_dom: dict[int, tuple[int, ...]] = {}
    for tid, mt in prog.temps.items():
        if mt.kind == "reg":
            if mt.is_input:
                r_dom[tid] = (mt.input_index,)  # argument register preassignment
            else:
                r_dom[tid] = tuple(range(nregs))
        elif mt.kind == "stack":
            r_dom[tid] = tuple(range(nregs, nregs + target.stack_slots))
    return ExtendedModel(
        program=prog,
        target=target,
        env=env,
        r_dom=r_dom,
    )


def expand_security(prog: ElabProgram, sets, temps, memops) -> SecurityTables:
    """Expand the class-level relations of `sets` over the given members.

    A register temp in `temps` belongs to its value class, a memory op in
    `memops` to the class of the temp it moves, and every member shares its
    class's verdicts. Input temps are live on entry and never written, so
    they are neither spairs keys nor hiders. Two members holding one temp
    never pair: a temp against itself is the zero word. The analysis report
    and the model both expand through here, over different members.

    The memory relations are the register ones over memory ops. A memory
    op moves a copy, a source-load definition or store data, all visible
    register temps, so every class holding a memory op is one whose
    register verdicts `sets` holds; expanding `class_rpairs` and
    `class_spairs` over `memops` yields only those classes' pairs.
    """

    def by_class(members, temp_of=lambda t: t) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for x in members:
            groups.setdefault(prog.temps[temp_of(x)].rep, []).append(x)
        return groups

    regs = by_class(temps)
    written = by_class(t for t in temps if not prog.temps[t].is_input)
    key_hiders = _class_members(sets.class_spairs, written)
    mems = by_class(memops, prog.tm.get)
    mem_hiders = _class_members(sets.class_spairs, mems)
    bad = _class_members(sets.sec_input_bad, regs)
    return SecurityTables(
        rpairs=_member_pairs(sets.class_rpairs, regs, lambda t: t),
        spairs={t: key_hiders[r] for r in sorted(key_hiders) for t in written.get(r, ())},
        sec_input={ts: rest for ts in sorted(bad) if (rest := bad[ts] - {ts})},
        mmpairs=frozenset(_member_pairs(sets.class_rpairs, mems, prog.tm.get)),
        mspairs={o: mem_hiders[r] for o in memops
                 if (r := prog.temps[prog.tm[o]].rep) in mem_hiders},
    )


def _member_pairs(class_pairs, members, held) -> dict[tuple[int, int], None]:
    """Member pairs (lo, hi) of each class pair, in class-pair order, except
    those whose two members hold one temp (`held` maps member to temp)."""
    pairs = {}
    for ra, rb in sorted(class_pairs):
        for a in members.get(ra, ()):
            ta = held(a)
            for b in members.get(rb, ()):
                if held(b) != ta:
                    pairs[(a, b) if a < b else (b, a)] = None
    return pairs


def _class_members(table, members) -> dict[int, frozenset[int]]:
    """Key -> the members of the classes its entry in `table` lists."""
    return {k: frozenset(m for r in reps for m in members.get(r, ()))
            for k, reps in table.items()}


def add_security_constraints(m: ExtendedModel, sets) -> ExtendedModel:
    """Extend the model with the transition-leak prohibitions.

    The pair sets are class-level underneath; here they are expanded over all
    register-allocatable members of each value class, so spill reloads are
    constrained exactly like the temps they duplicate, and over every memory
    op (source loads/stores and spill pairs).
    """
    prog = m.program
    temps = [t for t, mt in prog.temps.items() if mt.kind == "reg"]
    memops = [op.id for op in prog.ops if op.is_memory]
    return replace(m, security=expand_security(prog, sets, temps, memops))


def add_implied_constraints(m: ExtendedModel) -> ExtendedModel:
    """Constraints logically implied by the security families.

    The search does not read them; the post-solve re-check does.
    """
    prog = m.program
    sec = m.security
    acc = []
    # result-overwrites-operand: when an operation's source selection and its
    # definition form an rpair, they can never share a register (the selected
    # source is still held at issue, so sharing forces the banned transition)
    for op in prog.ops:
        if op.kind not in ("body", "copy"):
            continue
        for d in op.defs:
            if prog.temps[d].kind != "reg":
                continue
            for i, slot in enumerate(op.operands):
                if not isinstance(slot, TempOperand):
                    continue
                for s in slot.alts:
                    if prog.temps[s].kind == "reg" and sec.rpair(d, s):
                        acc.append((op.id, i, d, s))
    return replace(m, security=replace(sec, accumulator=tuple(acc)))


# -- solutions and derived predicates ------------------------------------------


@dataclass(frozen=True)
class Solution:
    active: frozenset[int]
    cycles: tuple[tuple[int, int], ...]
    regs: tuple[tuple[int, int], ...]
    sels: tuple[tuple[tuple[int, int], int], ...]
    objective: int

    def reg_of(self, t: int) -> int | None:
        return dict(self.regs).get(t)

    def sort_key(self):
        return (self.objective, tuple(sorted(self.active)), self.cycles, self.regs, self.sels)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "active": sorted(self.active),
            "cycles": {f"o{o}": c for o, c in self.cycles},
            "regs": {f"t{t}": r for t, r in self.regs},
            "selections": {f"o{o}[{i}]": f"t{t}" for (o, i), t in self.sels},
        }


def make_solution(model, active, cycles, regs, sels) -> Solution:
    objective = dict(cycles)[model.program.out_op.id]
    return Solution(
        active=frozenset(active),
        cycles=tuple(sorted(dict(cycles).items())),
        regs=tuple(sorted(dict(regs).items())),
        sels=tuple(sorted(dict(sels).items())),
        objective=objective,
    )


class SolutionView:
    """Derived values (liveness, ranges, predicates) for one complete solution."""

    def __init__(self, model: ExtendedModel, sol: Solution):
        self.model = model
        self.prog = model.program
        self.sol = sol
        self.cycle = dict(sol.cycles)
        self.reg = dict(sol.regs)
        self.selmap = dict(sol.sels)
        self._derive()

    def _derive(self):
        prog = self.prog
        self.active = set(self.sol.active)
        self.live: set[int] = set()
        self.ls: dict[int, int] = {}
        self.le: dict[int, int] = {}
        readers: dict[int, list[int]] = {}
        for op in prog.ops:
            if op.id not in self.active:
                continue
            for i, slot in op.temp_slots():
                t = self.selmap.get((op.id, i), slot.alts[0])
                readers.setdefault(t, []).append(op.id)
        for tid, mt in prog.temps.items():
            if mt.kind == "out":
                continue
            if mt.defined_by in self.active:
                self.live.add(tid)
                start = self.cycle[mt.defined_by]
                self.ls[tid] = start
                self.le[tid] = max([self.cycle[o] for o in readers.get(tid, [])] + [start + 1])

    # -- predicates ------------------------------------------------------

    def is_live(self, t: int) -> bool:
        return t in self.live

    def samereg(self, t1: int, t2: int) -> bool:
        return (
            t1 in self.live
            and t2 in self.live
            and self.reg.get(t1) is not None
            and self.reg.get(t1) == self.reg.get(t2)
        )

    def is_before(self, t1: int, t2: int) -> bool:
        return self.samereg(t1, t2) and self.le[t1] <= self.ls[t2]

    def lk(self, t: int) -> int:
        if t not in self.live:
            return -1
        best = -1
        for t2 in self.live:
            if t2 != t and self.is_before(t2, t):
                best = max(best, self.le[t2])
        return best

    def subseq(self, t1: int, t2: int) -> bool:
        if t1 == t2:
            return False
        return self.samereg(t1, t2) and self.lk(t2) == self.le[t1]

    def mem_ops_active(self) -> list[int]:
        return sorted(
            (o for o in self.active if self.prog.op(o).is_memory),
            key=lambda o: self.cycle[o],
        )

    def is_before_mem(self, o1: int, o2: int) -> bool:
        return (
            o1 != o2
            and o1 in self.active
            and o2 in self.active
            and self.prog.op(o1).is_memory
            and self.prog.op(o2).is_memory
            and self.cycle[o1] <= self.cycle[o2]
        )

    def ok(self, o: int) -> int:
        if o not in self.active or not self.prog.op(o).is_memory:
            return -1
        best = -1
        for o2 in self.active:
            if self.prog.op(o2).is_memory and self.is_before_mem(o2, o):
                best = max(best, self.cycle[o2])
        return best

    def msubseq(self, o1: int, o2: int) -> bool:
        if o1 == o2:
            return False
        return (
            o1 in self.active
            and o2 in self.active
            and self.prog.op(o1).is_memory
            and self.prog.op(o2).is_memory
            and self.ok(o2) == self.cycle[o1]
        )

    def subseq_pairs(self) -> set[tuple[int, int]]:
        """All (t1, t2) register-temp pairs with subseq true."""
        regs = [t for t in self.live if self.prog.temps[t].kind == "reg"]
        return {
            (t1, t2)
            for t1 in regs
            for t2 in regs
            if t1 != t2 and self.subseq(t1, t2)
        }

    def msubseq_pairs(self) -> set[tuple[int, int]]:
        mems = self.mem_ops_active()
        return {
            (o1, o2)
            for o1 in mems
            for o2 in mems
            if o1 != o2 and self.msubseq(o1, o2)
        }


def check_solution(model: ExtendedModel, sol: Solution) -> list[str]:
    """Re-evaluate every model constraint on a complete assignment.

    Returns human-readable violations; empty means the solution satisfies the
    model. This is the solver-independent admissibility check.
    """
    v = SolutionView(model, sol)
    prog = model.program
    errs: list[str] = []
    active_ops = [prog.op(o) for o in sorted(v.active)]

    for op in prog.ops:
        if op.mandatory and op.id not in v.active:
            errs.append(f"mandatory {op} inactive")

    # cycles: in at 0, distinct, out last
    cycles = [(v.cycle[o.id], o.id) for o in active_ops]
    if len({c for c, _ in cycles}) != len(cycles):
        errs.append("single-issue violated (duplicate cycles)")
    out_op = prog.out_op
    if v.cycle.get(prog.in_op.id) != 0:
        errs.append("in not at cycle 0")
    if any(
        v.cycle[o.id] >= v.cycle[out_op.id] for o in active_ops if o.id != out_op.id
    ):
        errs.append("out not last")
    if sol.objective != v.cycle[out_op.id]:
        errs.append("objective != makespan")

    # data dependencies over selected temps
    for op in active_ops:
        for i, slot in op.temp_slots():
            t = v.selmap.get((op.id, i))
            if t is None:
                errs.append(f"{op} slot {i} unselected")
                continue
            if t not in slot.alts:
                errs.append(f"{op} slot {i} selected non-alternative t{t}")
                continue
            mt = prog.temps[t]
            if mt.defined_by not in v.active:
                errs.append(f"{op} reads t{t} whose definer is inactive")
                continue
            if op.kind == "out":
                continue
            def_op = prog.op(mt.defined_by)
            if mt.defined_by == op.id:
                errs.append(f"{op} reads its own def")
            elif v.cycle[def_op.id] + model.latency(def_op) > v.cycle[op.id]:
                errs.append(f"{op} issues before t{t} is ready")

    # registers assigned and in-domain for live temps
    for t in v.live:
        mt = prog.temps[t]
        if mt.kind == "out":
            continue
        r = v.reg.get(t)
        if r is None:
            errs.append(f"live t{t} has no location")
            continue
        if r not in model.r_dom[t]:
            errs.append(f"t{t} location {r} outside domain")

    # no-overlap per location
    by_loc: dict[int, list[int]] = {}
    for t in v.live:
        if prog.temps[t].kind == "out":
            continue
        by_loc.setdefault(v.reg[t], []).append(t)
    for loc, ts in by_loc.items():
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1 :]:
                if not (v.ls[t1] >= v.le[t2] or v.ls[t2] >= v.le[t1]):
                    errs.append(f"live ranges of t{t1} and t{t2} overlap in loc {loc}")

    # live-range strictness
    for t in v.live:
        if not v.le[t] > v.ls[t]:
            errs.append(f"le(t{t}) not strictly after ls")

    errs.extend(_check_base_families(model, v))
    errs.extend(_check_security(model.security, v))
    return errs


def _check_base_families(model: ExtendedModel, v: SolutionView) -> list[str]:
    """Spill chains, two-address, memory order and the register preassignments."""
    prog = model.program
    errs = []
    for op in prog.ops:
        if op.id not in v.active:
            continue
        if op.kind == "spill_load":
            store = op.id - 1
            if store not in v.active:
                errs.append(f"spill load {op} without its store")
            elif v.cycle[store] + model.latency(prog.op(store)) > v.cycle[op.id]:
                errs.append(f"spill load {op} before store data ready")
        if model.two_address(op):
            # an unselected slot or unplaced temp is reported above
            src_regs = [v.reg.get(v.selmap.get((op.id, i))) for i, _ in op.temp_slots()]
            if src_regs and v.reg.get(op.defs[0]) not in src_regs:
                errs.append(f"two-address {op} writes outside its source registers")
    for o2, deps in sorted(prog.mem_deps.items()):
        for o1 in deps:
            if o1 in v.active and o2 in v.active and v.cycle[o1] >= v.cycle[o2]:
                errs.append(f"memory order violated: o{o1} must precede o{o2}")
    for t, _cls in prog.inputs:
        reg = prog.temps[t.id].input_index
        if t.id in v.live and v.reg.get(t.id) != reg:
            errs.append(f"input t{t.id} not in argument register {reg}")
    first = v.selmap.get((prog.out_op.id, 0))
    if first is not None and v.reg.get(first) != model.result_reg:
        errs.append("first output not in result register")
    return errs


def _check_security(sec: SecurityTables, v: SolutionView) -> list[str]:
    errs = []
    for t1, t2 in sec.rpairs:
        if v.subseq(t1, t2) or v.subseq(t2, t1):
            errs.append(f"rpairs violated for (t{t1}, t{t2})")
    for ts, hiders in sec.spairs.items():
        if v.is_live(ts):
            if not any(v.is_live(h) and v.subseq(h, ts) for h in hiders):
                errs.append(f"spairs: no hider precedes t{ts}")
            if not any(v.is_live(h) and v.subseq(ts, h) for h in hiders):
                errs.append(f"spairs: no hider follows t{ts}")
    for ts, bad in sec.sec_input.items():
        for b in sorted(bad):
            if v.subseq(ts, b):
                errs.append(f"secret input t{ts} overwritten by leaking t{b}")
    for o1, o2 in sorted(sec.mmpairs):
        if o1 in v.active and o2 in v.active:
            if v.msubseq(o1, o2) or v.msubseq(o2, o1):
                errs.append(f"mmpairs violated for (o{o1}, o{o2})")
    for os_, hiders in sec.mspairs.items():
        if os_ in v.active:
            if not any(h in v.active and v.msubseq(h, os_) for h in hiders):
                errs.append(f"mspairs: no random memory op precedes o{os_}")
            if not any(h in v.active and v.msubseq(os_, h) for h in hiders):
                errs.append(f"mspairs: no random memory op follows o{os_}")
    for op_id, slot, d, s in sec.accumulator:
        if op_id in v.active and v.selmap.get((op_id, slot)) == s and v.samereg(d, s):
            errs.append(f"implied-accumulator: t{d}, t{s} share a register")
    return errs


def dump_model(model: ExtendedModel) -> dict:
    """Constraint-graph JSON for external inspection."""
    prog = model.program
    return {
        "program": prog.name,
        "target": model.target.name,
        "objective": "makespan",
        "maxc": model.maxc,
        "operations": [
            {
                "id": f"o{op.id}",
                "kind": op.kind,
                "opcode": op.opcode,
                "defs": [f"t{d}" for d in op.defs],
                "operands": [
                    {"alts": [f"t{t}" for t in s.alts]}
                    if isinstance(s, TempOperand)
                    else {"literal": s.value}
                    for s in op.operands
                ],
                "mandatory": op.mandatory,
                "memory": op.is_memory,
            }
            for op in prog.ops
        ],
        "temps": [
            {
                "id": f"t{t}",
                "class": f"t{mt.rep}",
                "kind": mt.kind,
                "locations": list(model.r_dom.get(t, ())),
            }
            for t, mt in sorted(prog.temps.items())
        ],
        "constraints": [
            {"family": c.family, "kind": c.kind, "args": list(c.args)}
            for c in model.constraints
        ],
    }
