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

A solve call is single-threaded and self-contained; models are never
mutated, so independent solves may run concurrently on shared models.
"""

from __future__ import annotations

import itertools
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


class _Searcher:
    # Fewer than 30 attributes: past that, CPython 3.11 stops sharing the
    # instance-dict keys and every attribute load in the walk gets slower.
    def __init__(self, model: ExtendedModel, budget: SolveBudget,
                 enumerate_all: bool = False, cap: int | None = None,
                 makespan_cap: int | None = None):
        prog = model.program
        self.model = model
        self.budget = budget
        self.enumerate_all = enumerate_all
        self.cap = cap
        self.makespan_cap = makespan_cap
        self.sec = model.security
        self.stats = SolveStats()
        self.t0 = time.monotonic()
        self.nregs = model.target.num_registers
        self.result_reg = model.result_reg
        self.best: Solution | None = None
        self.best_obj: int | None = None
        self.solutions: list[Solution] = []
        self.truncated = False

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

        # The walk state. Every `_issue` undoes its own changes, so each walk
        # leaves it as set up here and one state serves every subset.
        self.active: set[int] = set()  # the activeness subset being walked
        self.order: list[int] = []  # the same subset, ascending
        self.issued = {prog.in_op.id: 0}  # op -> cycle
        self.last_cycle = 0
        self.ready_at: dict[int, int] = {}  # temp -> cycle its value becomes readable
        self.loc_of: dict[int, int] = {}  # temp -> location while intact
        self.occupant: dict[int, int] = {}  # location -> temp
        self.assigned: dict[int, int] = {}  # temp -> location (permanent)
        self.sels: dict[tuple[int, int], int] = {}  # (op, slot) -> temp
        self.last_mem: int | None = None  # the memory op last on the bus
        self.s_pending: set[int] = set()  # spairs keys still waiting for a hider
        self.ms_pending: set[int] = set()  # mspairs keys still waiting for a hider
        for t, _cls in prog.inputs:
            loc = prog.temps[t.id].input_index
            self.loc_of[t.id] = loc
            self.occupant[loc] = t.id
            self.assigned[t.id] = loc
            self.ready_at[t.id] = 1  # available after entry

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> None:
        self.stats.nodes += 1
        if self.budget.nodes is not None and self.stats.nodes > self.budget.nodes:
            raise _Budget()
        if self.budget.seconds is not None and self.stats.nodes % 256 == 0:
            if time.monotonic() - self.t0 > self.budget.seconds:
                raise _Budget()

    def _bound_exceeded(self, lower: int) -> bool:
        if self.makespan_cap is not None and lower > self.makespan_cap:
            return True
        if self.enumerate_all:
            return False
        return self.best_obj is not None and lower >= self.best_obj

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
            if self._bound_exceeded(n_mand_real + k + 1):
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
                if self._bound_exceeded(n_mand_real + k + 1):
                    self.stats.propagations += 1
                    break
                self.active = mandatory | chosen
                self.order = sorted(self.active)
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
        if self._bound_exceeded(self.last_cycle + remaining):
            self.stats.propagations += 1
            return
        loc_of, ready_at, occupant, nregs = self.loc_of, self.ready_at, self.occupant, self.nregs
        for o in self._ready_ops():
            self._tick()
            f = self.facts[o]
            idxs, d = f.idxs, f.d
            pools = [[t for t in alts if t in loc_of] for alts in f.alts]
            for combo in itertools.product(*pools):
                # the first output must sit in the result register
                if f.is_out and combo and loc_of[combo[0]] != self.result_reg:
                    self.stats.propagations += 1
                    continue
                cycle = self.last_cycle + 1
                for t in combo:
                    if ready_at[t] > cycle:
                        cycle = ready_at[t]
                # the ops left after this one each take a later distinct cycle
                if self._bound_exceeded(cycle + remaining - 1):
                    self.stats.propagations += 1
                    continue
                chosen = list(zip(idxs, combo))
                if d is None:
                    yield from self._issue(o, f, chosen, cycle, None, None)
                    continue
                # a two-address op overwrites one of its temp operands, if any
                src_locs = {loc_of[t] for i, t in chosen if i >= 0} if f.two_address else None
                for loc in f.locs:
                    if src_locs and loc not in src_locs:
                        continue
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
        """Check the bus adjacency, commit `o`, yield once for the child walk
        unless the overwrite strands a pending operand, then undo. `_walk`
        has checked the register overwrite."""
        occupant = self.occupant.get(loc) if d is not None else None
        prev_mem = self.last_mem
        is_memory = f.is_memory
        if is_memory and not self._adjacent_ok(prev_mem, o):
            self.stats.propagations += 1
            return

        # commit; the checks passed, so a pending neighbour is now hidden
        s_resolved = occupant in self.s_pending
        ms_resolved = is_memory and prev_mem in self.ms_pending
        self.issued[o] = cycle
        last_cycle, self.last_cycle = self.last_cycle, cycle
        for idx, t in chosen:
            self.sels[(o, idx)] = t
        if d is not None:
            if occupant is not None:
                del self.loc_of[occupant]
            self.occupant[loc] = d
            self.loc_of[d] = loc
            self.assigned[d] = loc
            self.ready_at[d] = cycle + f.latency
            if d in self.sec.spairs:  # keys are register temps: `_write_ok` ran
                self.s_pending.add(d)
        if s_resolved:
            self.s_pending.discard(occupant)
        if is_memory:
            if ms_resolved:
                self.ms_pending.discard(prev_mem)
            if o in self.sec.mspairs:
                self.ms_pending.add(o)
            self.last_mem = o

        if occupant is None or self._still_satisfiable(occupant):
            yield  # the child walk runs here

        # undo
        del self.issued[o]
        self.last_cycle = last_cycle
        for idx, _t in chosen:
            del self.sels[(o, idx)]
        if d is not None:
            del self.loc_of[d]
            del self.assigned[d]
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

    def _leaf(self) -> None:
        if self.s_pending or self.ms_pending:
            self.stats.propagations += 1
            return
        self.stats.leaves += 1
        sol = make_solution(self.model, self.active, self.issued, self.assigned, self.sels)
        if self.enumerate_all:
            self.solutions.append(sol)
            if self.cap is not None and len(self.solutions) > self.cap:
                self.truncated = True
                raise _Budget()
            return
        if self.best_obj is None or sol.objective < self.best_obj:
            self.best = sol
            self.best_obj = sol.objective


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
    if s.truncated:
        sols = sols[:cap]
    return sols, s.truncated
