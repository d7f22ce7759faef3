"""Depth-first branch-and-bound over the canonical solution space.

Search order: activeness subsets of the optional operations first, explored
by increasing cardinality (all-inactive first), then an in-order machine
walk that picks the next operation among the ready ones (lowest id first),
its operand selections (original temp first), and the definition's location
(ascending index). Cycles follow from the issue order by compaction, so the
objective of a leaf is its makespan.

Pruning: a makespan lower bound against the incumbent (the cardinality of
an activeness subset already bounds its best makespan), plus forward checks
of the security families (`model.security`, one table per family) on every
register overwrite and memory adjacency as they form. Every returned
solution is re-validated by `model.check_solution`, which checks the base
families from the program and target and each security family from the
same tables.

A solve call is single-threaded and self-contained; models are never
mutated, so independent solves may run concurrently on shared models.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .model import (
    ExtendedModel,
    ModelOp,
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


class _Searcher:
    def __init__(self, model: ExtendedModel, budget: SolveBudget,
                 enumerate_all: bool = False, cap: int | None = None,
                 makespan_cap: int | None = None):
        self.model = model
        self.prog = model.program
        self.target = model.target
        self.budget = budget
        self.enumerate_all = enumerate_all
        self.cap = cap
        self.makespan_cap = makespan_cap
        self.sec = model.security
        self.stats = SolveStats()
        self.t0 = time.monotonic()
        self.nregs = self.target.num_registers
        self.best: Solution | None = None
        self.best_obj: int | None = None
        self.solutions: list[Solution] = []
        self.truncated = False

        self.optional = [o for o in self.prog.ops if not o.mandatory]
        self.mandatory = [o for o in self.prog.ops if o.mandatory]
        self.result_reg = model.result_reg
        self.pins = dict(model.pins)

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
        n_mand_real = sum(
            1 for o in self.mandatory if o.kind not in ("in", "out")
        )
        opt_ids = [o.id for o in self.optional]
        kind = {o.id: o.kind for o in self.optional}
        for k in range(len(opt_ids) + 1):
            if self._bound_exceeded(n_mand_real + k + 1):
                self.stats.propagations += 1
                if not self.enumerate_all or self.makespan_cap is not None:
                    break
                continue
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
                active = {o.id for o in self.mandatory} | chosen
                self._walk_init(active)

    # -- machine walk ---------------------------------------------------------

    def _walk_init(self, active: set[int]) -> None:
        st = {
            "active": active,
            "issued": {self.prog.in_op.id: 0},
            "last_cycle": 0,
            "ready_at": {},  # temp -> cycle its value becomes readable
            "loc_of": {},  # temp -> location while intact
            "occupant": {},  # location -> temp
            "assigned": {},  # temp -> location (permanent)
            "sels": {},
            "last_mem": None,
            "s_pending": set(),
            "ms_pending": set(),
        }
        for t, _cls in self.prog.inputs:
            mt = self.prog.temps[t.id]
            loc = mt.input_index
            st["loc_of"][t.id] = loc
            st["occupant"][loc] = t.id
            st["assigned"][t.id] = loc
            st["ready_at"][t.id] = 1  # available after entry
        self._walk(st)

    def _ready_ops(self, st) -> list[ModelOp]:
        active = st["active"]
        issued = st["issued"]
        unissued = [self.prog.op(o) for o in sorted(active) if o not in issued]
        if not unissued:
            return []
        only_out_left = len(unissued) == 1 and unissued[0].kind == "out"
        ready = []
        for op in unissued:
            if op.kind == "out":
                if only_out_left:
                    ready.append(op)
                continue
            if self._operands_selectable(st, op):
                ready.append(op)
        return ready

    def _operands_selectable(self, st, op: ModelOp) -> bool:
        for dep in self.prog.mem_deps.get(op.id, ()):
            if dep not in st["issued"]:
                return False
        for _i, slot in op.temp_slots():
            if not any(t in st["loc_of"] for t in slot.alts):
                return False
        return True

    def _walk(self, st) -> None:
        issued = st["issued"]
        if len(issued) == len(st["active"]):
            self._leaf(st)
            return
        remaining = len(st["active"]) - len(issued)
        if self._bound_exceeded(st["last_cycle"] + remaining):
            self.stats.propagations += 1
            return
        for op in self._ready_ops(st):
            self._tick()
            self._branch_selections(st, op, [], list(op.temp_slots()))

    def _branch_selections(self, st, op: ModelOp, chosen, slots) -> None:
        if slots:
            idx, slot = slots[0]
            for t in slot.alts:
                if t in st["loc_of"]:
                    self._branch_selections(st, op, chosen + [(idx, t)], slots[1:])
            return
        if op.kind == "out":  # the first output must sit in the result register
            first = next((t for i, t in chosen if i == 0), None)
            if first is not None and st["loc_of"].get(first) != self.result_reg:
                self.stats.propagations += 1
                return
        cycle = st["last_cycle"] + 1
        for idx, t in chosen:
            cycle = max(cycle, st["ready_at"][t])
        # ops still unissued after this one, each on a later distinct cycle
        rest = len(st["active"]) - len(st["issued"]) - 1
        if self._bound_exceeded(cycle + rest):
            self.stats.propagations += 1
            return
        if op.kind == "out" or not op.defs:
            self._issue(st, op, chosen, cycle, None, None)
            return
        d = op.defs[0]
        for loc in self._loc_candidates(st, op, chosen, d):
            self._issue(st, op, chosen, cycle, d, loc)

    def _loc_candidates(self, st, op: ModelOp, chosen, d: int):
        dom = self.model.vars.r_dom[d]
        if d in self.pins:
            dom = tuple(loc for loc in dom if loc == self.pins[d])
        if self.model.two_address(op):
            src_locs = {st["loc_of"][t] for i, t in chosen if i >= 0}
            dom = tuple(loc for loc in dom if loc in src_locs)
        return dom

    def _issue(self, st, op: ModelOp, chosen, cycle, d, loc) -> None:
        sec = self.sec
        prog = self.prog
        occupant = st["occupant"].get(loc) if loc is not None else None

        if d is not None and loc is not None and loc < self.nregs:
            new_is_key = d in sec.spairs
            if occupant is not None:
                if sec.rpair(occupant, d):
                    self.stats.propagations += 1
                    return
                if occupant in sec.sec_input and d in sec.sec_input[occupant]:
                    self.stats.propagations += 1
                    return
                if occupant in st["s_pending"]:
                    if d not in sec.spairs.get(occupant, frozenset()):
                        self.stats.propagations += 1
                        return
            if new_is_key:
                if occupant is None or occupant not in sec.spairs[d]:
                    self.stats.propagations += 1
                    return

        if op.is_memory and (sec.mmpairs or sec.mspairs):
            prev = st["last_mem"]
            if prev is not None:
                if sec.mmpair(prev, op.id):
                    self.stats.propagations += 1
                    return
                if prev in st["ms_pending"] and op.id not in sec.mspairs.get(prev, frozenset()):
                    self.stats.propagations += 1
                    return
            if op.id in sec.mspairs:
                if prev is None or prev not in sec.mspairs[op.id]:
                    self.stats.propagations += 1
                    return

        # commit
        undo_occ = st["occupant"].get(loc) if loc is not None else None
        st["issued"][op.id] = cycle
        old_last = st["last_cycle"]
        st["last_cycle"] = cycle
        for idx, t in chosen:
            st["sels"][(op.id, idx)] = t
        removed_loc = None
        if d is not None:
            if occupant is not None:
                del st["loc_of"][occupant]
                removed_loc = occupant
            st["occupant"][loc] = d
            st["loc_of"][d] = loc
            st["assigned"][d] = loc
            st["ready_at"][d] = cycle + self.model.latency(op)
        mem_prev = st["last_mem"]
        s_resolved = None
        ms_resolved = None
        if d is not None and loc is not None and loc < self.nregs:
            if occupant is not None and occupant in st["s_pending"]:
                st["s_pending"].discard(occupant)
                s_resolved = occupant
            if d in sec.spairs:
                st["s_pending"].add(d)
        if op.is_memory:
            prev = st["last_mem"]
            if prev is not None and prev in st["ms_pending"] and op.id in sec.mspairs.get(prev, frozenset()):
                st["ms_pending"].discard(prev)
                ms_resolved = prev
            if op.id in sec.mspairs:
                st["ms_pending"].add(op.id)
            st["last_mem"] = op.id

        if removed_loc is None or self._still_satisfiable(st):
            self._walk(st)

        # undo
        del st["issued"][op.id]
        st["last_cycle"] = old_last
        for idx, _t in chosen:
            del st["sels"][(op.id, idx)]
        if d is not None:
            del st["loc_of"][d]
            del st["assigned"][d]
            del st["ready_at"][d]
            if undo_occ is not None:
                st["occupant"][loc] = undo_occ
                st["loc_of"][undo_occ] = loc
            else:
                del st["occupant"][loc]
            if d in st["s_pending"]:
                st["s_pending"].discard(d)
        if s_resolved is not None:
            st["s_pending"].add(s_resolved)
        if op.is_memory:
            st["last_mem"] = mem_prev
            st["ms_pending"].discard(op.id)
            if ms_resolved is not None:
                st["ms_pending"].add(ms_resolved)

    def _still_satisfiable(self, st) -> bool:
        """After a clobber, every pending operand must keep one obtainable alt."""
        for op_id in st["active"]:
            if op_id in st["issued"]:
                continue
            op = self.prog.op(op_id)
            for _i, slot in op.temp_slots():
                ok = False
                for t in slot.alts:
                    if t in st["loc_of"]:
                        ok = True
                        break
                    def_op = self.prog.temps[t].defined_by
                    if def_op in st["active"] and def_op not in st["issued"]:
                        ok = True
                        break
                if not ok:
                    self.stats.propagations += 1
                    return False
        return True

    def _leaf(self, st) -> None:
        if st["s_pending"] or st["ms_pending"]:
            self.stats.propagations += 1
            return
        self.stats.leaves += 1
        sol = make_solution(
            self.model,
            st["active"],
            dict(st["issued"]),
            dict(st["assigned"]),
            dict(st["sels"]),
        )
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
    exhausted = True
    try:
        s.run()
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
    budget: SolveBudget | None = None,
) -> tuple[list[Solution], bool]:
    """All canonical solutions (optionally bounded by makespan), sorted.

    Returns (solutions, truncated). `truncated` reports that the cap was hit.
    """
    budget = budget or SolveBudget(seconds=600.0)
    s = _Searcher(model, budget, enumerate_all=True, cap=cap, makespan_cap=makespan_cap)
    if preflight_infeasible(model) is not None:
        return [], False
    try:
        s.run()
    except _Budget:
        pass
    sols = sorted(set(s.solutions), key=lambda x: x.sort_key())
    if s.truncated:
        sols = sols[:cap]
    return sols, s.truncated
