"""Depth-first branch-and-bound over the canonical solution space.

Search order: activeness subsets of the optional operations first, explored
by increasing cardinality (all-inactive first), then an in-order machine
walk that picks the next operation among the ready ones (lowest id first),
its operand selections (original temp first), and the definition's location
(ascending index). Cycles follow from the issue order by compaction, so the
objective of a leaf is its makespan.

The walk state (issued ops, locations, selections, the last memory op and
the spairs/mspairs keys still waiting for a hider) lives on the searcher.
Each issue undoes its own changes, so one state, set up once with the
inputs in their argument registers, serves every activeness subset. What
the walk reads of the program is fixed per search and built once: a
per-op table (memory deps, temp slots and their alts, the definition and
its locations, two-address, latency) and a temp -> reader-slots index.
The walk does not recurse: each node is a `_walk` generator that yields
once per committed issue, and `_search` keeps the generators of the
current path on an explicit stack, so no program size is limited by the
Python stack.

Pruning: a makespan lower bound against the incumbent (the cardinality of
an activeness subset already bounds its best makespan), plus one forward
check per resource of the security families (`model.security`, one table
per family): `_write_ok` on every register overwrite, `_adjacent_ok` on
every memory adjacency, as they form. After an overwrite,
`_still_satisfiable` checks that each pending slot naming the lost temp
keeps an alt in place or defined by a pending op; no other slot can have
lost one. Every returned solution is re-validated by
`model.check_solution`, which checks the base families from the program
and target and each security family from the same tables.

Optimize mode adds two prunes that skip only repeats:

- Transposition table. What the rest of a walk can do depends only on the
  issued ops, each location's occupant (dead values included), the last
  memory op, the pending spairs/mspairs keys and, relative to
  `last_cycle`, the ready cycle of each value not yet readable at the next
  cycle. Each state carries a 64-bit Zobrist key over these, updated in
  `_issue` and restored on undo, and the table maps key -> earliest
  `last_cycle` seen in the current activeness subset (it is cleared per
  subset). A child state already reached at the same or an earlier cycle
  is dropped before its walk starts: every leaf under it repeats, one
  cycle or more later, a leaf already walked. Two distinct states may
  share a key; at 64 bits against at most millions of states per subset
  the chance is negligible.
- Fresh-location symmetry. When every non-input temp may take every
  register, or every slot, the locations never written so far, other
  than the result register, are interchangeable, so a definition tries
  only the lowest never-written one of its class. Renaming maps every
  skipped branch onto a tried one that comes earlier in search order.

Either prune removes only leaves that repeat, at no better makespan, a
leaf found earlier in search order, and the incumbent only improves; so
the first optimal leaf in search order is still reached, and optima and
returned solutions are those of the unpruned search. Enumerate mode uses
neither prune: its solution sets stay complete, renamings included.

A solve call is single-threaded and self-contained; models are never
mutated, so independent solves may run concurrently on shared models.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    ExtendedModel,
    Solution,
    check_solution,
    make_solution,
)


@dataclass(frozen=True)
class SolveBudget:
    seconds: float | None = 60.0
    nodes: int | None = None

    def __post_init__(self):
        if self.seconds is None and self.nodes is None:
            raise ValueError("at least one budget limit must be finite")


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    leaves: int = 0
    wall_time: float = 0.0
    table_prunes: int = 0  # child states dropped by the transposition table
    symmetry_skips: int = 0  # never-written locations skipped as renamings


@dataclass
class SolveOutcome:
    status: str  # Optimal | Feasible | Infeasible | Timeout
    solution: Solution | None
    stats: SolveStats
    infeasible_family: str | None = None
    message: str = ""


class _Budget(Exception):
    pass


def preflight_infeasible(model: ExtendedModel) -> tuple[str, str] | None:
    """Static unsatisfiability checks that can name the failing family."""
    prog = model.program
    sec = model.security
    for t, _cls in prog.inputs:
        reg = prog.temps[t.id].input_index
        if reg not in model.r_dom[t.id]:
            return (
                "preassign-arg",
                f"input t{t.id} arrives in argument register {reg}, outside its domain",
            )
    for ts, hiders in sec.spairs.items():
        if not hiders and prog.op(prog.temps[ts].defined_by).mandatory:
            return (
                "spairs",
                f"secret temp t{ts} is always live but no random temp can hide it",
            )
    for op, hiders in sec.mspairs.items():
        if not hiders and prog.op(op).mandatory:
            return (
                "mspairs",
                f"memory operation o{op} carries secret data but no random "
                f"memory operation can hide it",
            )
    return None


class _OpFacts(NamedTuple):
    """What the walk reads of one op; fixed for the whole search."""

    deps: tuple[int, ...]  # memory ops that must issue first
    idxs: tuple[int, ...]  # temp slot indices, the address slot as -1
    alts: tuple[tuple[int, ...], ...]  # each temp slot's alts, in branch order
    d: int | None  # the temp it defines, if any (never for the out op)
    locs: tuple[int, ...]  # the locations `d` may take
    two_address: bool
    latency: int
    is_out: bool
    is_memory: bool


# Any fixed value: Zobrist keys, and so the search, are the same in every run.
_ZOBRIST_SEED = 0x5EC0DE


class _Words(NamedTuple):
    """Random 64-bit words whose XOR is the Zobrist key of a walk state."""

    place: list[list[int]]  # [location][temp]: the temp occupies the location
    issued: list[int]  # [op]: the op has issued
    last_mem: list[int]  # [op]: the op is the last memory op
    s_pending: list[int]  # [temp]: an spairs key waits for a hider
    ms_pending: list[int]  # [op]: an mspairs key waits for a hider
    ready: list[list[int]]  # [cycles after last_cycle][temp]: readable then


class _Searcher:
    # Fewer than 30 attributes: past that, CPython 3.11 stops sharing the
    # instance-dict keys and every attribute load in the walk gets slower.
    def __init__(self, model: ExtendedModel, budget: SolveBudget,
                 enumerate_all: bool = False, cap: int | None = None,
                 makespan_cap: int | None = None):
        prog = model.program
        target = model.target
        self.model = model
        self.budget = budget
        self.enumerate_all = enumerate_all
        self.cap = cap
        self.sec = model.security
        self.stats = SolveStats()
        self.t0 = time.monotonic()
        self.nregs = target.num_registers
        self.result_reg = model.result_reg
        # Leaves must finish below `bound`: the incumbent's makespan in
        # optimize mode, one past `makespan_cap` in enumerate mode.
        self.bound = math.inf if makespan_cap is None else makespan_cap + 1
        # Every leaf in enumerate mode; each improving incumbent otherwise.
        self.solutions: list[Solution] = []

        # Static tables. `facts[o]` describes op o (index 0 is unused);
        # `readers[t]` lists (op, ((alt, alt's defining op), ...)) for each
        # temp slot that names temp t (temp ids are dense).
        self.facts: list[_OpFacts | None] = [None]
        self.readers: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [
            [] for _t in prog.temps
        ]
        for op in prog.ops:
            slots = list(op.temp_slots())
            is_out = op.kind == "out"
            d = op.defs[0] if op.defs and not is_out else None
            self.facts.append(_OpFacts(
                prog.mem_deps.get(op.id, ()),
                tuple(i for i, _slot in slots),
                tuple(slot.alts for _i, slot in slots),
                d, model.r_dom[d] if d is not None else (),
                model.two_address(op), model.latency(op), is_out, op.is_memory,
            ))
            for _i, slot in slots:
                entry = (op.id, tuple((t, prog.temps[t].defined_by) for t in slot.alts))
                for t in slot.alts:
                    self.readers[t].append(entry)

        rng = random.Random(_ZOBRIST_SEED)

        def words(n: int) -> list[int]:
            return [rng.getrandbits(64) for _ in range(n)]

        n_temps, n_ops = len(prog.temps), len(self.facts)
        max_latency = max(f.latency for f in self.facts[1:])
        self.words = _Words(
            [words(n_temps) for _loc in range(self.nregs + target.stack_slots)],
            words(n_ops), words(n_ops), words(n_temps), words(n_ops),
            [words(n_temps) for _c in range(max_latency + 1)],
        )
        # The prunes of optimize mode (see the module docstring).
        self.table: dict[int, int] | None = None if enumerate_all else {}
        inputs = {t.id for t, _cls in prog.inputs}
        classes = (tuple(range(self.nregs)),
                   tuple(range(self.nregs, self.nregs + target.stack_slots)))
        self.symmetric = not enumerate_all and all(
            dom in classes for t, dom in model.r_dom.items() if t not in inputs
        )

        # The walk state. Every `_issue` undoes its own changes, so each walk
        # leaves it as set up here and one state serves every subset.
        self.active: set[int] = set()  # the activeness subset being walked
        self.order: list[int] = []  # the same subset, ascending
        self.issued = {prog.in_op.id: 0}  # op -> cycle
        self.last_cycle = 0
        # temp -> the cycle it becomes readable, for the definitions of
        # latency > 1 only: any other value is readable at every later issue
        self.ready_at: dict[int, int] = {}
        self.loc_of: dict[int, int] = {}  # temp -> location while intact
        self.occupant: dict[int, int] = {}  # location -> temp
        self.assigned: dict[int, int] = {}  # temp -> location (permanent)
        self.sels: dict[tuple[int, int], int] = {}  # (op, slot) -> temp
        self.last_mem: int | None = None  # the memory op last on the bus
        self.s_pending: set[int] = set()  # spairs keys still waiting for a hider
        self.ms_pending: set[int] = set()  # mspairs keys still waiting for a hider
        self.key = self.words.issued[prog.in_op.id]  # the Zobrist key of this state
        for t, _cls in prog.inputs:
            loc = prog.temps[t.id].input_index
            self.loc_of[t.id] = loc
            self.occupant[loc] = t.id
            self.assigned[t.id] = loc
            self.key ^= self.words.place[loc][t.id]

    @property
    def best(self) -> Solution | None:
        """The incumbent (optimize mode)."""
        return self.solutions[-1] if self.solutions else None

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> None:
        self.stats.nodes += 1
        if self.budget.nodes is not None and self.stats.nodes > self.budget.nodes:
            raise _Budget()
        if self.budget.seconds is not None and self.stats.nodes % 256 == 0:
            if time.monotonic() - self.t0 > self.budget.seconds:
                raise _Budget()

    # -- activeness stage ----------------------------------------------------

    def run(self) -> None:
        """Explore activeness subsets in order of increasing cardinality.

        The fewest-active subsets carry the smallest possible makespans, so
        the first feasible leaf gives a tight incumbent and the cardinality
        bound then prunes whole subset families at once.
        """
        ops = self.model.program.ops
        mandatory = {o.id for o in ops if o.mandatory}
        n_mand_real = sum(1 for o in ops if o.mandatory and o.kind not in ("in", "out"))
        opt_ids = [o.id for o in ops if not o.mandatory]
        kind = {o.id: o.kind for o in ops}
        for k in range(len(opt_ids) + 1):
            if n_mand_real + k + 1 >= self.bound:
                self.stats.propagations += 1
                break
            for combo in itertools.combinations(opt_ids, k):
                self._tick()
                chosen = set(combo)
                if any(
                    kind[o] == "spill_load" and (o - 1) not in chosen
                    for o in combo
                ):
                    continue
                if n_mand_real + k + 1 >= self.bound:
                    self.stats.propagations += 1
                    break
                self.active = mandatory | chosen
                self.order = sorted(self.active)
                if self.table is not None:  # its states hold for this subset only
                    self.table.clear()
                self._search()

    # -- machine walk ---------------------------------------------------------

    def _search(self) -> None:
        """Drive the walk of the current subset with an explicit stack.

        Each `_walk` generator yields once per committed issue; the issue's
        child walk then runs on top of the stack, and resuming the parent
        after it is exhausted undoes the issue.
        """
        stack = [self._walk()]
        while stack:
            for _ in stack[-1]:
                stack.append(self._walk())
                break
            else:
                stack.pop()

    def _ready_ops(self) -> list[int]:
        """Unissued ops whose memory deps issued and whose slots each have an
        alt in place, lowest id first; the out op only when it is alone."""
        issued, loc_of, facts = self.issued, self.loc_of, self.facts
        unissued = [o for o in self.order if o not in issued]
        if len(unissued) == 1:  # the out op, ready exactly when it is alone
            return unissued
        ready = []
        for o in unissued:
            f = facts[o]
            if f.is_out:
                continue
            for dep in f.deps:
                if dep not in issued:
                    break
            else:
                for alts in f.alts:
                    for t in alts:
                        if t in loc_of:
                            break
                    else:
                        break
                else:
                    ready.append(o)
        return ready

    def _walk(self):
        """Issue each ready op with every operand selection and location.

        The selections are the product of the per-slot pools of temps still
        in place, in slot order. Yields once per committed issue, with the
        state of the child node in place.
        """
        remaining = len(self.active) - len(self.issued)
        if not remaining:
            self._leaf()
            return
        if self.last_cycle + remaining >= self.bound:
            self.stats.propagations += 1
            return
        loc_of, ready_at, occupant, nregs = self.loc_of, self.ready_at, self.occupant, self.nregs
        symmetric, result_reg = self.symmetric, self.result_reg
        for o in self._ready_ops():
            self._tick()
            f = self.facts[o]
            idxs, d = f.idxs, f.d
            pools = [[t for t in alts if t in loc_of] for alts in f.alts]
            for combo in itertools.product(*pools):
                # the first output must sit in the result register
                if f.is_out and combo and loc_of[combo[0]] != result_reg:
                    self.stats.propagations += 1
                    continue
                cycle = self.last_cycle + 1
                for t in combo:
                    if t in ready_at and ready_at[t] > cycle:
                        cycle = ready_at[t]
                # the ops left after this one each take a later distinct cycle
                if cycle + remaining - 1 >= self.bound:
                    self.stats.propagations += 1
                    continue
                chosen = list(zip(idxs, combo))
                if d is None:
                    yield from self._issue(o, f, chosen, cycle, None, None)
                    continue
                # a two-address op overwrites one of its temp operands, if any
                src_locs = {loc_of[t] for i, t in chosen if i >= 0} if f.two_address else None
                fresh_tried = False
                for loc in f.locs:
                    if src_locs and loc not in src_locs:
                        continue
                    if symmetric and loc not in occupant and loc != result_reg:
                        # never written: the lowest stands for its whole class
                        if fresh_tried:
                            self.stats.symmetry_skips += 1
                            continue
                        fresh_tried = True
                    if loc < nregs and not self._write_ok(occupant.get(loc), d):
                        self.stats.propagations += 1
                    else:
                        yield from self._issue(o, f, chosen, cycle, d, loc)

    def _write_ok(self, prev: int | None, d: int) -> bool:
        """May `d` overwrite `prev` (None: an empty register)?

        Checks rpairs and the secret-input guard, that a pending spairs key
        `prev` gets `d` as its hider, and that a new key `d` overwrites one.
        """
        sec = self.sec
        if prev is not None:
            if sec.rpair(prev, d) or d in sec.sec_input.get(prev, ()):
                return False
            if prev in self.s_pending and d not in sec.spairs[prev]:
                return False
        hiders = sec.spairs.get(d)
        return hiders is None or prev in hiders

    def _adjacent_ok(self, prev: int | None, o: int) -> bool:
        """May memory op `o` follow `prev` on the bus (None: the first one)?

        Checks mmpairs, that a pending mspairs key `prev` gets `o` as its
        hider, and that a new key `o` follows one.
        """
        sec = self.sec
        if prev is not None:
            if sec.mmpair(prev, o):
                return False
            if prev in self.ms_pending and o not in sec.mspairs[prev]:
                return False
        hiders = sec.mspairs.get(o)
        return hiders is None or prev in hiders

    def _issue(self, o: int, f: _OpFacts, chosen, cycle, d, loc):
        """Check the bus adjacency, commit `o` with its key, yield once for
        the child walk unless the overwrite strands a pending operand or the
        table has the child state, then undo. `_walk` has checked the
        register overwrite."""
        occupant = self.occupant.get(loc) if d is not None else None
        prev_mem = self.last_mem
        is_memory = f.is_memory
        if is_memory and not self._adjacent_ok(prev_mem, o):
            self.stats.propagations += 1
            return

        # commit, keying each change; the checks passed, so a pending
        # neighbour is now hidden
        w = self.words
        key = self.key
        s_resolved = occupant in self.s_pending
        ms_resolved = is_memory and prev_mem in self.ms_pending
        self.issued[o] = cycle
        last_cycle, self.last_cycle = self.last_cycle, cycle
        child = key ^ w.issued[o]
        for idx, t in chosen:
            self.sels[(o, idx)] = t
        if d is not None:
            place = w.place[loc]
            if occupant is not None:
                del self.loc_of[occupant]
                child ^= place[occupant]
            self.occupant[loc] = d
            self.loc_of[d] = loc
            self.assigned[d] = loc
            child ^= place[d]
            if f.latency > 1:
                self.ready_at[d] = cycle + f.latency
            if d in self.sec.spairs:  # keys are register temps: `_write_ok` ran
                self.s_pending.add(d)
                child ^= w.s_pending[d]
        if s_resolved:
            self.s_pending.discard(occupant)
            child ^= w.s_pending[occupant]
        if is_memory:
            if prev_mem is not None:
                child ^= w.last_mem[prev_mem]
            if ms_resolved:
                self.ms_pending.discard(prev_mem)
                child ^= w.ms_pending[prev_mem]
            if o in self.sec.mspairs:
                self.ms_pending.add(o)
                child ^= w.ms_pending[o]
            self.last_mem = o
            child ^= w.last_mem[o]
        self.key = child

        if (occupant is None or self._still_satisfiable(occupant)) and self._unseen():
            yield  # the child walk runs here

        # undo
        self.key = key
        del self.issued[o]
        self.last_cycle = last_cycle
        for idx, _t in chosen:
            del self.sels[(o, idx)]
        if d is not None:
            del self.loc_of[d]
            del self.assigned[d]
            if f.latency > 1:
                del self.ready_at[d]
            if occupant is not None:
                self.occupant[loc] = occupant
                self.loc_of[occupant] = loc
            else:
                del self.occupant[loc]
            self.s_pending.discard(d)
        if s_resolved:
            self.s_pending.add(occupant)
        if is_memory:
            self.last_mem = prev_mem
            self.ms_pending.discard(o)
            if ms_resolved:
                self.ms_pending.add(prev_mem)

    def _still_satisfiable(self, lost: int) -> bool:
        """After `lost` is clobbered, every pending operand must keep one
        obtainable alt: one in place or defined by a pending op.

        Only slots that name `lost` need checking. Each subset starts with
        every slot satisfiable (inputs sit in their argument registers, each
        class representative is defined by a mandatory op, and `run` keeps
        each spill load's store), and only a clobber takes an alt away.
        """
        active, issued, loc_of = self.active, self.issued, self.loc_of
        for op_id, alts in self.readers[lost]:
            if op_id not in active or op_id in issued:
                continue
            for t, def_op in alts:
                if t in loc_of or (def_op in active and def_op not in issued):
                    break
            else:
                self.stats.propagations += 1
                return False
        return True

    def _unseen(self) -> bool:
        """Optimize mode: record the state in the transposition table, or
        count a prune when the table holds it at the same or an earlier
        cycle. Enumerate mode walks every state."""
        table = self.table
        if table is None:
            return True
        cycle, key, ready, loc_of = self.last_cycle, self.key, self.words.ready, self.loc_of
        for t, at in self.ready_at.items():
            if at > cycle + 1 and t in loc_of:
                key ^= ready[at - cycle][t]
        seen = table.get(key)
        if seen is not None and seen <= cycle:
            self.stats.table_prunes += 1
            return False
        table[key] = cycle
        return True

    def _leaf(self) -> None:
        if self.s_pending or self.ms_pending:
            self.stats.propagations += 1
            return
        self.stats.leaves += 1
        sol = make_solution(self.model, self.active, self.issued, self.assigned, self.sels)
        self.solutions.append(sol)
        if self.enumerate_all:
            if self.cap is not None and len(self.solutions) > self.cap:
                raise _Budget()
            return
        # `_walk` issues the out op only below `bound`, so the leaf improves
        self.bound = sol.objective


def solve(model: ExtendedModel, budget: SolveBudget | None = None) -> SolveOutcome:
    """Minimize makespan; deterministic for a fixed node budget."""
    budget = budget or SolveBudget()
    pre = preflight_infeasible(model)
    stats = SolveStats()
    if pre is not None:
        family, msg = pre
        return SolveOutcome("Infeasible", None, stats, family, msg)
    s = _Searcher(model, budget)
    try:
        s.run()
        exhausted = True
    except _Budget:
        exhausted = False
    s.stats.wall_time = time.monotonic() - s.t0
    if s.best is not None:
        errs = check_solution(model, s.best)
        if errs:
            raise AssertionError(f"solver produced an invalid solution: {errs}")
        status = "Optimal" if exhausted else "Feasible"
        return SolveOutcome(status, s.best, s.stats)
    if exhausted:
        return SolveOutcome(
            "Infeasible", None, s.stats,
            message="search exhausted without a feasible solution",
        )
    return SolveOutcome("Timeout", None, s.stats, message="budget exhausted")


def enumerate_solutions(
    model: ExtendedModel,
    cap: int = 100000,
    makespan_cap: int | None = None,
) -> tuple[list[Solution], bool]:
    """All canonical solutions (optionally bounded by makespan), sorted.

    Returns (solutions, truncated). `truncated` reports that the cap was hit.
    """
    if preflight_infeasible(model) is not None:
        return [], False
    s = _Searcher(model, SolveBudget(seconds=600.0), enumerate_all=True, cap=cap,
                  makespan_cap=makespan_cap)
    try:
        s.run()
    except _Budget:
        pass
    sols = sorted(set(s.solutions), key=lambda x: x.sort_key())
    truncated = len(s.solutions) > cap
    return sols[:cap], truncated
