"""Depth-first branch-and-bound over the canonical solution space.

Search order: activeness subsets of the optional operations first, explored
by increasing cardinality (all-inactive first), then an in-order machine
walk that picks the next operation among the ready ones (lowest id first),
its operand selections (original temp first), and the definition's location
(ascending index). Cycles follow from the issue order by compaction, so the
objective of a leaf is its makespan.

The walk state (issued ops, locations, selections and the last memory op)
lives on the searcher. It also tells which keys still wait for the hider
that must follow them, with no set of its own: a value leaves its location
only when overwritten, and the walk lets only a hider overwrite an spairs
key, so the keys waiting are the keys among the occupants; likewise only a
hider may follow an mspairs key on the bus, so a memory key waits exactly
while it is the last memory op. Each issue undoes its own changes, so one
state, set up once with the inputs in their argument registers, serves
every activeness subset. What the walk reads of the program is fixed per
search and built once: a per-op table (memory deps, temp slots and their
alts, the definition and its locations, two-address, latency, the temps
the definition may not overwrite, its spairs hiders and how its writes
bear on the result-register rule) and a temp -> reader-slots index. The
walk does not recurse: each node is a `_walk` generator that yields once
per committed issue, and `_search` keeps the generators of the current
path on an explicit stack, so no program size is limited by the Python
stack.

Pruning: a makespan lower bound against the incumbent (the cardinality of
an activeness subset already bounds its best makespan), plus one forward
check per resource of the security families (`model.security`, one table
per family), as the transitions form. `_walk` checks every register
overwrite: the static rules (rpairs, the secret-input guard, a new key
over a non-hider) come from the per-op table, and the pending-key rule (a
key in place overwritten by a non-hider) from the occupant it would
replace. `_issue` checks every memory adjacency with `_adjacent_ok`.
Before an overwrite commits, `_still_satisfiable` checks that each pending
slot naming the lost temp keeps an alt in place or defined by a pending
op, judging on the pre-issue state what the issue would leave; no other
slot can lose one. So an issue that would strand an operand is rejected
without committing and undoing it. Every returned solution is re-validated
by `model.check_solution`, which checks the base families from the program
and target and each security family from the same tables.

Pruning also checks the result-register rule (the out op's first
selection sits in the result register) as each value is placed, not only
when the out op issues. Call the first out slot's alts A. A write is
rejected when it writes an alt of A outside the result register, or a
temp outside A over an alt of A there, and afterwards no alt of A sits
intact in the result register and none is defined by a pending active op. Temps never move
and an overwritten value never comes back, so no alt can reach the result
register after such a write: it roots a subtree with no leaf. When A has
one alt, `_op_facts` narrows its definition's locations to the result
register instead, and an overwrite of it there strands the out op's slot,
which `_still_satisfiable` rejects. The cut removes only leafless
subtrees, so it keeps every leaf, in search order, and runs in both
modes; `SolveStats.result_prunes` counts it.

Before any walk, `preflight_infeasible` proves some models infeasible
statically and names the family. Besides an input outside its argument
register's domain and a key with no hider at all, it has four proofs.
Three show that some spairs key can never get a hider on both sides: a
key the out op reads (the out op issues last, so nothing follows it), a
mandatory two-address op whose key overwrites an operand that cannot hide
it, and fewer hider temps in the whole program than always-live keys plus
one (in each register, hiders bracket and separate its keys). The fourth,
family `rpairs`, reads the per-op table: a mandatory two-address op whose
definition may overwrite no alt of any temp operand. They only reject
models with no solution, so they change no search order and no solution;
such a model stops after 0 nodes instead of exhausting or timing out.

Optimize mode adds two prunes that skip only repeats:

- Transposition table. What the rest of a walk can do depends only on the
  issued ops, each location's occupant (dead values included), the last
  memory op (these two also fix the pending keys) and, relative to
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
    """Limits of one search; None or inf means no limit of that kind."""

    seconds: float | None = 60.0
    nodes: int | None = None

    def __post_init__(self):
        for name in ("seconds", "nodes"):
            limit = getattr(self, name)
            if limit == math.inf:
                object.__setattr__(self, name, None)
            elif limit is not None and not limit >= 0:  # negative or NaN
                raise ValueError(f"the {name} limit must be a number >= 0, got {limit}")
        if self.seconds is None and self.nodes is None:
            raise ValueError("at least one budget limit must be finite")


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    leaves: int = 0
    table_prunes: int = 0  # child states dropped by the transposition table
    symmetry_skips: int = 0  # never-written locations skipped as renamings
    result_prunes: int = 0  # writes after which the first output cannot reach the result register
    wall_time: float = 0.0  # last: the report lists the fields in this order


@dataclass
class SolveOutcome:
    status: str  # Optimal | Feasible | Infeasible | Timeout
    solution: Solution | None
    stats: SolveStats
    infeasible_family: str | None = None
    message: str = ""


class _Budget(Exception):
    pass


def preflight_infeasible(model: ExtendedModel,
                         facts: list[_OpFacts | None]) -> tuple[str, str] | None:
    """Static unsatisfiability checks that can name the failing family.

    `facts` is the model's per-op table, `_op_facts(model)`.
    Besides a misplaced input and a key with no hider at all, three proofs
    show that some spairs key (a secret temp) can never have a hider (a
    random temp) written just before and just after it in its register:

    - Secret output. An out-op slot whose alts are all keys makes the out
      op read a key. The out op issues last and a read value is not
      overwritten before its read, so nothing follows the key.
    - Two-address key over a non-hider. A mandatory two-address op with a
      temp data slot writes its key `d` over the operand it selects (the
      walk's `src_locs`), so that operand is `d`'s predecessor. If no alt
      of any such slot hides `d`, no hider can precede it.
    - Hider count. Every temp is written once, to one location, so each
      has at most one predecessor and one successor there. In a register
      holding j >= 1 keys, each key's successor is a distinct hider and
      the first key's predecessor is one more, so the register holds at
      least j + 1 hiders and the whole program at least k + 1, where k
      counts the keys of mandatory ops (always live). Fewer temps in the
      union of all hider sets, optional copies and reloads included,
      leave some key unhidden.

    A fourth proof shows that some overwrite is always forbidden:

    - Two-address op over operands it may not overwrite. A mandatory
      two-address op with a temp data slot writes its definition `d` to
      the register of an operand it selects. That operand is read there at
      the op's cycle, so it is intact and is the temp `d` overwrites. If
      every alt of every such slot is in `d`'s `never` set (an rpair with
      `d`, or a secret input that `d` may not overwrite), each choice
      breaks rpairs or the secret-input guard. Family `rpairs`.
    """
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
    for _i, slot in prog.out_op.temp_slots():
        if all(t in sec.spairs for t in slot.alts):
            return (
                "spairs",
                f"secret temp t{slot.alts[0]} is an output: the out op reads it "
                f"last, so no random temp can follow it",
            )
    for op in prog.ops:
        if not (op.mandatory and model.two_address(op) and op.defs[0] in sec.spairs):
            continue
        srcs = [t for i, slot in op.temp_slots() if i >= 0 for t in slot.alts]
        if srcs and sec.spairs[op.defs[0]].isdisjoint(srcs):
            return (
                "spairs",
                f"two-address o{op.id} writes secret temp t{op.defs[0]} over an "
                f"operand that cannot hide it",
            )
    keys = [ts for ts in sec.spairs if prog.op(prog.temps[ts].defined_by).mandatory]
    hiders = frozenset().union(*sec.spairs.values())
    if keys and len(hiders) <= len(keys):
        return (
            "spairs",
            f"the always-live secret temps ({', '.join(f't{t}' for t in keys)}) need "
            f"at least {len(keys) + 1} random temps to hide them, but only "
            f"{len(hiders)} can",
        )
    for o, f in enumerate(facts):
        if f is None or not (f.two_address and prog.op(o).mandatory):
            continue
        srcs = [t for alts in f.alts for t in alts]  # a binary op's slots hold data
        if srcs and f.never.issuperset(srcs):
            return (
                "rpairs",
                f"two-address o{o} must write t{f.d} over an operand it may not "
                f"overwrite",
            )
    return None


class _ResultRule(NamedTuple):
    """The first output's alts, when it has several, as one op's writes can
    lose the last way of one into the result register (`_Searcher._result_lost`).

    Kept out of `never`, which `preflight_infeasible` reads: its `rpairs`
    proof would then name that family for a result-register failure.
    """

    alts: tuple[int, ...]
    defs: tuple[int, ...]  # the ops defining them, the in op left out
    # the op defines an alt, so its writes outside the result register are
    # at stake; otherwise its writes over an alt in the result register are
    own: bool


class _OpFacts(NamedTuple):
    """What the walk reads of one op; fixed for the whole search."""

    deps: tuple[int, ...]  # memory ops that must issue first
    idxs: tuple[int, ...]  # temp slot indices, the address slot as -1
    alts: tuple[tuple[int, ...], ...]  # each temp slot's alts, in branch order
    d: int | None  # the temp it defines, if any (never for the out op)
    # the locations `d` may take, ascending; only the result register when
    # `d` is the first output's one alt
    locs: tuple[int, ...]
    two_address: bool
    latency: int
    is_out: bool
    is_memory: bool
    never: frozenset[int]  # temps `d` may not overwrite: rpairs, secret-input guard
    hiders: frozenset[int] | None  # `d`'s spairs hiders; None if `d` is no key
    result: _ResultRule | None  # None if `d` is None or the first output has one alt


def _op_facts(model: ExtendedModel) -> list[_OpFacts | None]:
    """One `_OpFacts` per op id (index 0 is unused)."""
    prog, sec = model.program, model.security
    never: dict[int, set[int]] = {}
    for a, b in sec.rpairs:
        never.setdefault(a, set()).add(b)
        never.setdefault(b, set()).add(a)
    for prev, bad in sec.sec_input.items():
        for d in bad:
            never.setdefault(d, set()).add(prev)
    first = next((slot.alts for _i, slot in prog.out_op.temp_slots()), ())
    first_defs = tuple(prog.temps[t].defined_by for t in first
                       if not prog.temps[t].is_input)
    if len(first) > 1:
        own, other = _ResultRule(first, first_defs, True), _ResultRule(first, first_defs, False)
    else:
        own = other = None
    facts: list[_OpFacts | None] = [None]
    for op in prog.ops:
        slots = list(op.temp_slots())
        is_out = op.kind == "out"
        d = op.defs[0] if op.defs and not is_out else None
        locs = model.r_dom[d] if d is not None else ()
        result = None if d is None else other
        if op.id in first_defs:
            result = own
            if own is None:  # the one alt: it must be written to the result register
                locs = tuple(loc for loc in locs if loc == model.result_reg)
        facts.append(_OpFacts(
            prog.mem_deps.get(op.id, ()),
            tuple(i for i, _slot in slots),
            tuple(slot.alts for _i, slot in slots),
            d, locs, model.two_address(op), model.latency(op), is_out, op.is_memory,
            frozenset(never.get(d, ())), sec.spairs.get(d), result,
        ))
    return facts


# Any fixed value: Zobrist keys, and so the search, are the same in every run.
_ZOBRIST_SEED = 0x5EC0DE


class _Words(NamedTuple):
    """Random 64-bit words whose XOR is the Zobrist key of a walk state."""

    place: list[list[int]]  # [location][temp]: the temp occupies the location
    issued: list[int]  # [op]: the op has issued
    last_mem: list[int]  # [op]: the op is the last memory op
    ready: list[list[int]]  # [cycles after last_cycle][temp]: readable then


class _Searcher:
    """One search over a model: the static tables and the walk state.

    The walk state keeps no pending keys. A value leaves its location only
    when overwritten, and `_walk` lets only a hider overwrite an spairs
    key, so a key waits for its hider exactly while it is an occupant. An
    mspairs key waits exactly while it is `last_mem`, since `_adjacent_ok`
    lets only a hider follow it on the bus.
    """

    # Fewer than 30 attributes: past that, CPython 3.11 stops sharing the
    # instance-dict keys and every attribute load in the walk gets slower.
    def __init__(self, model: ExtendedModel, budget: SolveBudget,
                 enumerate_all: bool = False, cap: int | None = None,
                 makespan_cap: int | None = None,
                 facts: list[_OpFacts | None] | None = None):
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

        # Static tables. `facts[o]` describes op o; `readers[t]` lists
        # (op, ((alt, alt's defining op), ...)) for each temp slot that names
        # temp t (temp ids are dense).
        self.facts = _op_facts(model) if facts is None else facts
        self.readers: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [
            [] for _t in prog.temps
        ]
        for o, f in enumerate(self.facts[1:], start=1):
            for alts in f.alts:
                entry = (o, tuple((t, prog.temps[t].defined_by) for t in alts))
                for t in alts:
                    self.readers[t].append(entry)

        rng = random.Random(_ZOBRIST_SEED)

        def words(n: int) -> list[int]:
            return [rng.getrandbits(64) for _ in range(n)]

        n_temps, n_ops = len(prog.temps), len(self.facts)
        max_latency = max(f.latency for f in self.facts[1:])
        self.words = _Words(
            [words(n_temps) for _loc in range(self.nregs + target.stack_slots)],
            words(n_ops), words(n_ops),
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
        in place, in slot order. A two-address op tries only its temp
        operands' locations. A location is rejected here, before `_issue`
        commits anything, when the overwrite breaks a static rule of the
        op's `never`/`hiders` tables or the pending-key rule, leaves the
        first output no way into the result register (`_result_lost`, asked
        once per op), or strands a pending operand (`_still_satisfiable`).
        The pending-key rule reads the occupant: a key in place still waits
        for its hider, as nothing but a hider ever overwrites it.
        The out op still checks that its first selection sits in the result
        register: no write puts the rule at stake when, say, the first
        output is an input outside the result register. Yields once per committed
        issue, with the state of the child node in place.
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
        spairs = self.sec.spairs
        for o in self._ready_ops():
            self._tick()
            f = self.facts[o]
            idxs, d, never, hiders, rule = f.idxs, f.d, f.never, f.hiders, f.result
            pools = [[t for t in alts if t in loc_of] for alts in f.alts]
            # `lost`: the writes of `o` that the result-register rule puts at
            # stake (see `_ResultRule.own`) are dead ends. The occupant test
            # skips the call where they cannot be: an alt stays in the result
            # register after a write elsewhere, or one into it loses no alt.
            lost = rule is not None and (
                occupant.get(result_reg) in rule.alts) != rule.own and self._result_lost(o, rule)
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
                if f.two_address and combo:
                    # it overwrites one of its temp operands (a binary op's
                    # slots are all data slots), in `f.locs` order: ascending
                    locs = [loc for loc in sorted({loc_of[t] for t in combo}) if loc in f.locs]
                else:
                    locs = f.locs
                fresh_tried = False
                for loc in locs:
                    if symmetric and loc not in occupant and loc != result_reg:
                        # never written: the lowest stands for its whole class
                        if fresh_tried:
                            self.stats.symmetry_skips += 1
                            continue
                        fresh_tried = True
                    prev = occupant.get(loc)
                    if loc < nregs and (
                        prev in never
                        or (hiders is not None and prev not in hiders)
                        or (prev in spairs and d not in spairs[prev])
                    ):
                        self.stats.propagations += 1
                    elif lost and (loc == result_reg) != rule.own:
                        self.stats.result_prunes += 1
                    elif prev is None or self._still_satisfiable(prev, o):
                        yield from self._issue(o, f, chosen, cycle, loc, prev)

    def _adjacent_ok(self, prev: int | None, o: int) -> bool:
        """May memory op `o` follow `prev` on the bus (None: the first one)?

        Checks mmpairs, that a key `prev` gets `o` as its hider, and that a
        new key `o` follows one. A key waits for its hider exactly while it
        is the last memory op, since only a hider may follow it here.
        """
        sec = self.sec
        if prev is not None:
            if sec.mmpair(prev, o):
                return False
            if prev in sec.mspairs and o not in sec.mspairs[prev]:
                return False
        hiders = sec.mspairs.get(o)
        return hiders is None or prev in hiders

    def _issue(self, o: int, f: _OpFacts, chosen, cycle, loc, occupant):
        """Check the bus adjacency, commit `o` with its key (writing `f.d`,
        if any, to `loc` over `occupant`), yield once for the child walk
        unless the table has the child state, then undo. `_walk` has
        checked the overwrite and that it strands no pending operand.

        No pending keys are kept: a key waits while it is an occupant or
        `last_mem`, and the checks let only a hider replace it."""
        d = f.d
        prev_mem = self.last_mem
        is_memory = f.is_memory
        if is_memory and not self._adjacent_ok(prev_mem, o):
            self.stats.propagations += 1
            return

        # commit, keying each change
        w = self.words
        key = self.key
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
        if is_memory:
            if prev_mem is not None:
                child ^= w.last_mem[prev_mem]
            self.last_mem = o
            child ^= w.last_mem[o]
        self.key = child

        if self._unseen():
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
        if is_memory:
            self.last_mem = prev_mem

    def _result_lost(self, o: int, rule: _ResultRule) -> bool:
        """Would a write of op `o` that `rule` puts at stake leave the out
        op no alt of the first output to read from the result register?

        Two kinds of write are at stake: `o` writes an alt outside the
        result register (`rule.own`) while no alt sits there, or `o` writes
        a temp that is no alt over one that does. `_walk` tests for the
        alt in the result register and asks before the issue commits. After
        either write the result register holds no alt, so the rule can hold
        only through an alt defined by an active op still pending after the
        issue: not `o`, and not the in op, which has issued. Temps never
        move, so an alt placed anywhere else, or overwritten, never reaches
        the result register again: no leaf lies below a write this rejects.
        """
        active, issued = self.active, self.issued
        for p in rule.defs:
            if p != o and p in active and p not in issued:
                return False
        return True

    def _still_satisfiable(self, lost: int, o: int) -> bool:
        """May op `o` clobber `lost`? After the issue, every pending operand
        must keep one obtainable alt: one in place or defined by a pending
        op.

        Only slots that name `lost` need checking. Each subset starts with
        every slot satisfiable (inputs sit in their argument registers, each
        class representative is defined by a mandatory op, and `run` keeps
        each spill load's store), and only a clobber takes an alt away.

        `_walk` asks before `_issue` commits anything, so the check reads
        the pre-issue state. The issue changes three things: `o` issues,
        `lost` leaves `loc_of`, and `o`'s definition `d` takes its place.
        So `o`'s own slots are skipped (it is no longer pending) and `lost`
        does not count as in place. `d` needs no adjustment: its defining
        op is `o`, which is pending before the issue, so `d` counts as
        obtainable then as it counts as in place after. `o` defines no
        other temp that a slot could name. The verdict is the one a scan of
        the committed state would give.
        """
        active, issued, loc_of = self.active, self.issued, self.loc_of
        for op_id, alts in self.readers[lost]:
            if op_id == o or op_id not in active or op_id in issued:
                continue
            for t, def_op in alts:
                if (t in loc_of and t != lost) or (def_op in active and def_op not in issued):
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
        """Record a complete walk, unless a key still waits for the hider
        that must follow it: an spairs key still in place, or an mspairs
        key last on the bus. Inputs are never keys."""
        sec = self.sec
        if self.last_mem in sec.mspairs or any(t in sec.spairs for t in self.occupant.values()):
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
    facts = _op_facts(model)
    pre = preflight_infeasible(model, facts)
    stats = SolveStats()
    if pre is not None:
        family, msg = pre
        return SolveOutcome("Infeasible", None, stats, family, msg)
    s = _Searcher(model, budget, facts=facts)
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
    facts = _op_facts(model)
    if preflight_infeasible(model, facts) is not None:
        return [], False
    s = _Searcher(model, SolveBudget(seconds=600.0), enumerate_all=True, cap=cap,
                  makespan_cap=makespan_cap, facts=facts)
    try:
        s.run()
    except _Budget:
        pass
    sols = sorted(set(s.solutions), key=lambda x: x.sort_key())
    truncated = len(s.solutions) > cap
    return sols[:cap], truncated
