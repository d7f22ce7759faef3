"""Depth-first branch-and-bound over the canonical solution space.

Search order: activeness subsets of the optional operations first, explored
by increasing cardinality (all-inactive first), then an in-order machine
walk that picks the next operation among the ready ones (lowest id first),
its operand selections (original temp first), and the definition's location
(ascending index). Cycles follow from the issue order by compaction, so the
objective of a leaf is its makespan.

The walk state (issued ops, locations, selections, the last memory op and,
for optimize mode's prunes, the pending readers of each plain temp) lives
on the searcher. It also tells which keys still wait for the hider
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
selection sits in the result register) at every node, not only when the
out op issues. Call the first out slot's alts A and the result register
R. Each `_walk` first asks whether a chain of allowed overwrites by
pending active ops still leads from R's `held` entry to an alt of A: the
chain of `preflight_infeasible`'s sixth proof, with the same link rules
(`_ResultReach`, one table per model, shared with the proof). Temps never
move and each is written once, so below any leaf R's later occupants form
such a chain, one link per pending active op; a node with none roots a
subtree with no leaf and returns. The verdict depends only on R's entry
and the pending ops that may write R, so it is memoized by those two for
as long as the model's table lives (`SolverTable`: a caller that both
solves and enumerates one model shares it). A chain found stays a chain
while R keeps its entry and none of its ops issues, so the walk keeps the
last one and asks again only when one of those changes. Before that check
would see it, a cheaper test rules out single writes: when an op writes
an alt of A outside R, or a temp outside A over an alt of A in R, and
afterwards no alt of A sits intact in R and none is defined by a pending
active op, the op tries only its other locations (`_result_lost`). When A
has one alt, `_op_facts` narrows its definition's locations to R instead,
and an overwrite of it there strands the out op's slot, which
`_still_satisfiable` rejects. Both cuts remove only leafless subtrees, so
they keep every leaf, in search order, and run in both modes;
`SolveStats.result_prunes` counts the nodes the chain check cuts and the
ops whose writes at stake the test rules out.

Before it walks an activeness subset, `run` checks Hall's condition on
the operand instances that two-address ops destroy. The instances of a
value class (`ModelTemp.rep`) are its register members: its input or
definition, its copies and its reloads. A mandatory two-address op with a
temp slot writes its definition over an operand it selects, so it destroys
an instance of one of its operand classes:

- each instance is overwritten at most once: a temp is written once, to
  one location, and an overwritten value never comes back;
- every two-address op overwrites the operand instance it selects: it
  writes only to its selected operands' locations, where they sit intact,
  as the op reads them;
- so two ops cannot destroy the same instance, and each destroys one whose
  defining op is in the subset;
- a class the out op reads keeps one instance to the end: the out op
  issues last and reads that instance intact.

So a subset has a leaf only if each such op can be matched to one of its
operand classes, a class taking at most its capacity: its instances that
ops of the subset define, less one if the out op reads it. An
augmenting-path matching (`_Capacity`) decides this, and a subset it fails
is skipped unwalked. The check removes only subsets with no leaf, so it runs
in both modes; `SolveStats.capacity_skips` counts the skips. Capacities only
grow as optional ops join a subset: when the mandatory ops alone pass, every
subset passes and the check is left out (as on a model with no two-address
op), and when the subset of every optional op fails, no subset can pass.

Before any walk, `preflight_infeasible` proves some models infeasible
statically and names the family. Besides an input outside its argument
register's domain and a key with no hider at all, it has six proofs.
Three show that some spairs key can never get a hider on both sides: a
key the out op reads (the out op issues last, so nothing follows it), a
mandatory two-address op whose key overwrites an operand that cannot hide
it, and fewer hider temps in the whole program than always-live keys plus
one (in each register, hiders bracket and separate its keys). The fourth,
family `rpairs`, reads the per-op table: a mandatory two-address op whose
definition may overwrite no alt of any temp operand. The fifth, family
`two-address`, is the capacity check failing with every optional op
active. The sixth, family `preassign-result`, follows the overwrites the
walk may make in the result register from its input and finds that none
leads to an alt of the first output; the walk asks the same question at
every node. They only reject models with no
solution, so they change no search order and no solution; such a model
stops after 0 nodes instead of exhausting or timing out.

The walk reads each location through `held`: `held[loc]` is the occupant
of `loc` as the rules see it, or None when `loc` is empty or holds a dead
plain temp. A temp is plain when no security rule names it: it is no
spairs key, in no hider set and in no op's `never` set. It is dead once no
pending active op has an operand slot naming it. Every check of the walk
sees such an occupant exactly as it sees an empty location: the `never`,
new-key and pending-key tests (a new key needs a hider under it, and
neither a plain temp nor `None` is one), the clobber check (no pending
slot names it), the result-register rule (the out op's slots name every
output, so no output is dead before the leaf) and the leaf's key test.
So every check in `_walk` reads `held`; only `_issue`, which must restore
what it overwrites, reads the true `occupant`. Plainness is fixed per
search, and a temp that died stays dead below, so the walk keeps a count
of pending reader slots per plain temp (`unread`), updated as each op
issues, and clears a temp's `held` entry when the count reaches 0.

Optimize mode adds two prunes that skip only repeats, and both read `held`.

- Transposition table. What the rest of a walk can do depends only on the
  issued ops, `held`, the last memory op (these two also fix the pending
  keys) and, relative to `last_cycle`, the ready cycle of each value not
  yet readable at the next cycle. The table maps that state, as the exact
  tuple (issued ops as a bit set, `held`, `last_mem`, ready offsets), to
  the earliest `last_cycle` it was reached at in the current activeness
  subset (it is cleared per subset). A child state already reached at the
  same or an earlier cycle is dropped before its walk starts: the two
  states have the same future, so every leaf under it repeats, one cycle
  or more later, a leaf already walked. A probe copies `held`, one entry
  per location: 24 on `mips-like`, the largest preset, but as many as the
  stack slots a target file declares (up to `target.MAX_STACK_SLOTS`).
- Location symmetry. When every non-input temp may take every register,
  or every slot, the locations whose `held` entry is None, other than the
  result register, are interchangeable, so a definition tries only the
  lowest of them in its class. Swapping two such locations
  in the rest of the walk maps every skipped branch onto the tried one,
  which comes earlier in search order: after the swap the state differs
  from the tried branch's only in which dead plain temp, if any, sits in
  each of the two locations, and no check tells those apart.

Either prune removes only leaves that repeat, at no better makespan, a
leaf found earlier in search order, and the incumbent only improves; so
the first optimal leaf in search order is still reached, and optima and
returned solutions are those of the unpruned search. Enumerate mode uses
neither prune: its solution sets stay complete, renamings included.

A solve call is single-threaded and self-contained; models are never
mutated, so independent solves may run concurrently on shared models. A
`SolverTable` a caller hands in serves one search at a time.
"""

from __future__ import annotations

import itertools
import math
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
    symmetry_skips: int = 0  # empty or plain-dead locations skipped as renamings
    # nodes from which no chain of allowed overwrites leads the first output
    # into the result register, and ops whose writes at stake would lose it
    result_prunes: int = 0
    capacity_skips: int = 0  # subsets whose two-address ops cannot all destroy an operand instance
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


def preflight_infeasible(model: ExtendedModel, facts: list) -> tuple[str, str] | None:
    """Static unsatisfiability checks that can name the failing family.

    `facts` is the model's table, `_op_facts(model)`.
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

    A fifth proof shows that two-address ops run out of operands to
    overwrite:

    - Capacity. With every optional op active, the mandatory two-address
      ops with a temp slot cannot each be matched to a distinct instance of
      an operand class that the out op does not keep (see the module
      docstring). No smaller subset has more instances. Family
      `two-address`.

    A sixth proof, run last so that every model an earlier proof rejects
    keeps its family, shows that the first output can never reach the
    result register R:

    - Result-register chain. Temps never move, and each temp is written
      once, to one location, so R's occupants form a chain in time. It
      starts at the input whose argument register is R (or with R empty),
      and the out op reads its first selection, an alt of its first slot,
      intact from R, so the chain reaches such an alt. Each link prev -> d
      is a write of d over prev in R that both `_walk` and
      `model.check_solution` must allow: R is in d's locations (the op's
      `locs`, so not the in op, whose inputs sit in their own argument
      registers); prev is not in d's `never` set; a key d has prev among
      its hiders (nothing, or an empty R, hides it); a key prev has d among
      its hiders; and a two-address op with temp slots writes d over an
      operand it selects, intact in R at its cycle, so prev is an alt of
      one of its slots. The links over all ops, every optional op counted
      as available and a two-address op limited only by its alts,
      over-approximate those writes. If no alt can be reached from the
      start, no solution exists. Family `preassign-result`. The link
      rules are `_ResultReach.links_from`, which the walk's check at every
      node reads too.
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
    for o, f in enumerate(facts[1:], start=1):
        if f is None or not (f.two_address and prog.op(o).mandatory):
            continue
        srcs = [t for alts in f.alts for t in alts]  # a binary op's slots hold data
        if srcs and f.never.issuperset(srcs):
            return (
                "rpairs",
                f"two-address o{o} must write t{f.d} over an operand it may not "
                f"overwrite",
            )
    capacity = facts[0].capacity
    short = capacity and capacity.violation(o.id for o in prog.ops if not o.mandatory)
    if short:
        ops, classes, spare = short
        return (
            "two-address",
            f"two-address {', '.join(f'o{o}' for o in ops)}: each overwrites an operand "
            f"instance, but the operand classes ({', '.join(f't{c}' for c in classes)}) "
            f"have only {spare} to lose, every copy and reload included",
        )
    rr = model.result_reg
    reach = facts[0].reach
    start = next((t.id for t, _cls in prog.inputs if prog.temps[t.id].input_index == rr),
                 None)
    if reach is None or start in reach.first or reach.chain(start, reach.mask):
        return None
    return (
        "preassign-result",
        f"the first output t{reach.first[0]} can never reach result register "
        f"{model.target.reg_name(rr)}: no chain of allowed overwrites leads from "
        f"its initial occupant ({'empty' if start is None else f't{start}'}) to "
        f"t{reach.first[0]} or a copy of it",
    )


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


class _Capacity(NamedTuple):
    """Hall's condition on the operand instances that two-address ops
    destroy (see the module docstring), fixed per model."""

    ops: tuple[int, ...]  # the mandatory two-address ops with a temp slot
    classes: tuple[tuple[int, ...], ...]  # each one's operand classes
    # class -> its instances that mandatory ops define, less one if the out
    # op reads it
    base: dict[int, int]
    adds: dict[int, int]  # optional op -> the class of the instance it defines

    def violation(self, optional) -> tuple[list[int], list[int], int] | None:
        """Match `ops` to classes within the capacities of the mandatory ops
        plus `optional`, by augmenting paths. None if every op matches; else
        a Hall violator, (ops, classes, capacity): the ops have no operand
        class outside the classes, whose capacities sum to fewer than the
        ops."""
        cap = self.base
        grown = [self.adds[o] for o in optional if o in self.adds]
        if grown:
            cap = dict(cap)
            for c in grown:
                cap[c] += 1
        taken: dict[int, list[int]] = {c: [] for c in cap}  # class -> ops matched to it
        for i in range(len(self.ops)):
            # search from op i over alternating paths; `came[c]` is the op
            # that would move into c and the class it would leave
            came: dict[int, tuple[int, int | None]] = {}
            queue: list[tuple[int, int | None]] = [(i, None)]
            end = None
            for j, left in queue:  # the queue grows as it is read
                for c in self.classes[j]:
                    if c not in came:
                        came[c] = (j, left)
                        if len(taken[c]) < cap[c]:
                            end = c
                            break
                        queue.extend((k, c) for k in taken[c])
                if end is not None:
                    break
            else:  # every class reached is full of ops reached
                return (sorted(self.ops[j] for j, _left in queue), sorted(came),
                        sum(cap[c] for c in came))
            while end is not None:
                j, left = came[end]
                taken[end].append(j)
                if left is not None:
                    taken[left].remove(j)
                end = left
        return None


def _capacity_of(model: ExtendedModel) -> _Capacity | None:
    """The model's `_Capacity`, or None when no subset can fail it: no
    two-address op has a temp slot, or the mandatory ops alone pass."""
    prog = model.program
    ops, classes = [], []
    for op in prog.ops:
        if op.mandatory and model.two_address(op):
            reps = tuple(dict.fromkeys(prog.temps[slot.alts[0]].rep
                                       for _i, slot in op.temp_slots()))
            if reps:
                ops.append(op.id)
                classes.append(reps)
    base = {c: 0 for reps in classes for c in reps}
    adds = {}
    for t in prog.temps.values():
        if t.kind == "reg" and t.rep in base:
            if prog.op(t.defined_by).mandatory:
                base[t.rep] += 1
            else:
                adds[t.defined_by] = t.rep
    for c in {prog.temps[slot.alts[0]].rep for _i, slot in prog.out_op.temp_slots()}:
        if c in base:
            base[c] -= 1
    capacity = _Capacity(tuple(ops), tuple(classes), base, adds)
    return capacity if ops and capacity.violation(()) else None


class _ResultReach:
    """The result-register chain of `preflight_infeasible`'s sixth proof,
    which `_Searcher._walk` also asks at every node.

    A link prev -> d is a write of d over prev in the result register R
    that the walk and `model.check_solution` both allow. Each temp has one
    defining op, so the links from prev are a bit set of ops
    (`links_from`, which holds the link rules); each predecessor's set
    (None: an empty R) is found on first use. `memo` maps (R's `held`
    entry, the pending writers) to the walk's verdict, the ops of a chain
    (0: none). The key names every op the verdict reads, so the memo holds
    across activeness subsets and searches; `run` sets `active` to each
    subset's writers and clears `last`, the walk's last chain and its start.
    """

    __slots__ = ("first", "writers", "spairs", "mask", "firsts", "defs", "links",
                 "active", "memo", "last")

    def __init__(self, first, writers, spairs):
        self.first = first  # the alts of the out op's first slot
        self.writers = writers  # (op, facts) of each op that may write R, the in op left out
        self.spairs = spairs
        self.mask = sum(1 << o for o, _f in writers)
        self.firsts = sum(1 << o for o, f in writers if f.d in first)
        self.defs = {o: f.d for o, f in writers}
        self.links: dict[int | None, int] = {}
        self.active = self.mask
        self.memo: dict[tuple[int | None, int], int] = {}  # verdict: `chain`'s bit set
        self.last: tuple[int | None, int] = (None, 0)  # R's entry and the chain last found

    def links_from(self, prev: int | None) -> int:
        """The ops whose writes may overwrite `prev` in R: prev is not in
        d's `never` set, a key d has prev among its hiders, a key prev has
        d among its hiders, and a two-address op with temp slots writes over
        an alt of one of its slots."""
        got = self.links.get(prev)
        if got is None:
            prev_hiders = self.spairs.get(prev)
            got = self.links[prev] = sum(
                1 << o for o, f in self.writers
                if prev not in f.never
                and (f.hiders is None or prev in f.hiders)
                and (prev_hiders is None or f.d in prev_hiders)
                and not (f.two_address and f.alts and all(prev not in a for a in f.alts))
            )
        return got

    def chain(self, start: int | None, pending: int) -> int:
        """The ops of a chain of links by the ops in the bit set `pending`
        from `start`, R's occupant, to an alt of the first output, as a bit
        set; 0 if there is none."""
        defs, queue, via = self.defs, [start], [0]  # via: the ops that led to each
        for k, prev in enumerate(queue):  # the queue grows as it is read
            new = self.links_from(prev) & pending
            hit = new & self.firsts
            if hit:
                return via[k] | (hit & -hit)
            pending ^= new  # each op's temp is queued once
            while new:
                low = new & -new
                queue.append(defs[low.bit_length() - 1])
                via.append(via[k] | low)
                new ^= low
        return 0


class _ModelFacts(NamedTuple):
    """Index 0 of the `_op_facts` table: what concerns the whole model."""

    capacity: _Capacity | None
    reach: _ResultReach | None  # None when the out op reads no temp


def _op_facts(model: ExtendedModel) -> list:
    """One `_OpFacts` per op id; index 0, which no op has, holds the
    model's `_ModelFacts`."""
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
    facts: list = [None]
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
    writers = tuple((o, f) for o, f in enumerate(facts[1:], start=1)
                    if f.d is not None and model.result_reg in f.locs and o != prog.in_op.id)
    reach = _ResultReach(first, writers, sec.spairs) if first else None
    facts[0] = _ModelFacts(_capacity_of(model), reach)
    return facts


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
                 facts: list | None = None):
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

        # Static tables. `facts[o]` describes op o (and `facts[0]` the
        # two-address capacities and the result-register links, with the
        # walk's chain verdicts); `readers[t]` lists
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

        # The prunes of optimize mode (see the module docstring).
        self.table: dict[tuple, int] | None = None if enumerate_all else {}
        inputs = {t.id for t, _cls in prog.inputs}
        classes = (tuple(range(self.nregs)),
                   tuple(range(self.nregs, self.nregs + target.stack_slots)))
        self.symmetric = not enumerate_all and all(
            dom in classes for t, dom in model.r_dom.items() if t not in inputs
        )
        # `reads[o]`: the plain temps op o's slots name, once per slot alt
        plain = self._plain_temps()
        self.reads = [()] + [tuple(t for alts in f.alts for t in alts if t in plain)
                             for f in self.facts[1:]]

        # The walk state. Every `_issue` undoes its own changes, so each walk
        # leaves it as set up here and one state serves every subset.
        self.active: set[int] = set()  # the activeness subset being walked
        self.order: list[int] = []  # the same subset, ascending
        self.issued = {prog.in_op.id: 0}  # op -> cycle
        self.issued_bits = 1 << prog.in_op.id  # the same ops, as a bit set
        self.last_cycle = 0
        # temp -> the cycle it becomes readable, for the definitions of
        # latency > 1 only: any other value is readable at every later issue
        self.ready_at: dict[int, int] = {}
        self.loc_of: dict[int, int] = {}  # temp -> location while intact
        n_locs = self.nregs + target.stack_slots
        self.occupant: list[int | None] = [None] * n_locs  # location -> temp
        # location -> the occupant, or None if it is a dead plain temp
        self.held: list[int | None] = [None] * n_locs
        self.assigned: dict[int, int] = {}  # temp -> location (permanent)
        self.sels: dict[tuple[int, int], int] = {}  # (op, slot) -> temp
        self.last_mem: int | None = None  # the memory op last on the bus
        # temp -> its pending reader slots if plain, else 1, so that 0 means
        # a dead plain temp. It counts the mandatory ops; `run` adds each
        # subset's optional ones for the subset's walk.
        self.unread = [0 if t in plain else 1 for t in range(len(prog.temps))]
        self._count_readers([op.id for op in prog.ops if op.mandatory], 1)
        for t, _cls in prog.inputs:
            loc = prog.temps[t.id].input_index
            self.loc_of[t.id] = loc
            self.occupant[loc] = t.id
            self.assigned[t.id] = loc
            if self.unread[t.id]:
                self.held[loc] = t.id

    def _plain_temps(self) -> frozenset[int]:
        """The temps no security rule names: no spairs key, no hider and in
        no op's `never` set. The walk sees such a temp, once dead, as it
        sees an empty location (see the module docstring)."""
        spairs = self.sec.spairs
        named = set(spairs).union(*spairs.values(), *(f.never for f in self.facts[1:]))
        return frozenset(t for t in range(len(self.model.program.temps)) if t not in named)

    def _count_readers(self, ops, step: int) -> None:
        """Add `step` to `unread` for each plain temp the slots of `ops`
        name, and set the `held` entry of each such temp in place."""
        unread, loc_of, held = self.unread, self.loc_of, self.held
        for o in ops:
            for t in self.reads[o]:
                unread[t] += step
                if t in loc_of:
                    held[loc_of[t]] = t if unread[t] else None

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
        bound then prunes whole subset families at once. A subset whose
        two-address ops cannot each destroy an operand instance of their
        own has no leaf and is skipped (see the module docstring).
        """
        ops = self.model.program.ops
        mandatory = {o.id for o in ops if o.mandatory}
        n_mand_real = sum(1 for o in ops if o.mandatory and o.kind not in ("in", "out"))
        opt_ids = [o.id for o in ops if not o.mandatory]
        kind = {o.id: o.kind for o in ops}
        capacity, reach = self.facts[0]
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
                if capacity is not None and capacity.violation(combo):
                    self.stats.capacity_skips += 1
                    continue
                self.active = mandatory | chosen
                self.order = sorted(self.active)
                if self.table is not None:  # its states hold for this subset only
                    self.table.clear()
                if reach is not None:
                    reach.active = sum(1 << o for o in self.active) & reach.mask
                    reach.last = (None, 0)
                self._count_readers(combo, 1)
                self._search()
                self._count_readers(combo, -1)

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

        First, a node from which no chain of allowed overwrites by pending
        ops leads the first output into the result register returns (see
        the module docstring); the verdict is memoized in `_ResultReach`.
        The selections are the product of the per-slot pools of temps still
        in place, in slot order. A two-address op tries only its temp
        operands' locations. A location is left out when the write would
        leave the first output no way into the result register
        (`_result_lost`, asked once per op), and rejected here, before
        `_issue` commits anything, when the overwrite breaks a static rule
        of the op's `never`/`hiders` tables or the pending-key rule, or
        strands a pending operand (`_still_satisfiable`).
        Each check reads the location's `held` entry. The pending-key rule
        reads it too: a key in place still waits for its hider, as nothing
        but a hider ever overwrites it.
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
        loc_of, ready_at, held, nregs = self.loc_of, self.ready_at, self.held, self.nregs
        symmetric, result_reg = self.symmetric, self.result_reg
        spairs, stats = self.sec.spairs, self.stats
        reach = self.facts[0].reach
        start = held[result_reg]
        if reach is not None and start not in reach.first:
            # may the first output still reach the result register? The
            # chain last found still leads there while R holds its start
            # and none of its ops has issued
            last_start, chain = reach.last
            if not chain or chain & self.issued_bits or start != last_start:
                pending = reach.active & ~self.issued_bits
                key = (start, pending)
                chain = reach.memo.get(key)
                if chain is None:
                    chain = reach.memo[key] = reach.chain(start, pending)
                if not chain:
                    stats.result_prunes += 1
                    return
                reach.last = (start, chain)
        for o in self._ready_ops():
            self._tick()
            f = self.facts[o]
            idxs, d, never, hiders, rule = f.idxs, f.d, f.never, f.hiders, f.result
            pools = [[t for t in alts if t in loc_of] for alts in f.alts]
            # When the writes of `o` that the result-register rule puts at
            # stake (see `_ResultRule.own`) are dead ends, `o` tries only the
            # others. The `held` test skips the call where they cannot be: an
            # alt stays in the result register after a write elsewhere, or
            # one into it loses no alt.
            open_locs = f.locs
            if rule is not None and (held[result_reg] in rule.alts) != rule.own and (
                    self._result_lost(o, rule)):
                open_locs = [loc for loc in open_locs if (loc == result_reg) == rule.own]
                stats.result_prunes += 1
            for combo in itertools.product(*pools):
                # the first output must sit in the result register
                if f.is_out and combo and loc_of[combo[0]] != result_reg:
                    stats.propagations += 1
                    continue
                cycle = self.last_cycle + 1
                for t in combo:
                    if t in ready_at and ready_at[t] > cycle:
                        cycle = ready_at[t]
                # the ops left after this one each take a later distinct cycle
                if cycle + remaining - 1 >= self.bound:
                    stats.propagations += 1
                    continue
                chosen = list(zip(idxs, combo))
                if d is None:
                    yield from self._issue(o, f, chosen, cycle, None)
                    continue
                if f.two_address and combo:
                    # it overwrites one of its temp operands (a binary op's
                    # slots are all data slots), in `f.locs` order: ascending
                    locs = [loc for loc in sorted({loc_of[t] for t in combo}) if loc in open_locs]
                else:
                    locs = open_locs
                free_tried = False
                for loc in locs:
                    prev = held[loc]
                    if symmetric and loc != result_reg and prev is None:
                        # empty or a dead plain temp: the lowest stands for its class
                        if free_tried:
                            stats.symmetry_skips += 1
                            continue
                        free_tried = True
                    if loc < nregs and (
                        prev in never
                        or (hiders is not None and prev not in hiders)
                        or (prev in spairs and d not in spairs[prev])
                    ):
                        stats.propagations += 1
                    elif prev is None or self._still_satisfiable(prev, o):
                        yield from self._issue(o, f, chosen, cycle, loc)

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

    def _issue(self, o: int, f: _OpFacts, chosen, cycle, loc):
        """Check the bus adjacency, commit `o` (writing `f.d`, if any, to
        `loc` over its occupant), yield once for the child walk unless the
        table has the child state, then undo. `_walk` has checked the
        overwrite and that it strands no pending operand.

        No pending keys are kept: a key waits while it is an occupant or
        `last_mem`, and the checks let only a hider replace it. Each plain
        temp a slot of `o` names loses a pending reader, and `held` drops
        one left in place with none; a plain `f.d` with no pending reader
        is held as None from the start."""
        d = f.d
        prev_mem = self.last_mem
        is_memory = f.is_memory
        if is_memory and not self._adjacent_ok(prev_mem, o):
            self.stats.propagations += 1
            return

        # commit
        loc_of, unread, occupant, held = self.loc_of, self.unread, self.occupant, self.held
        self.issued[o] = cycle
        self.issued_bits |= 1 << o
        last_cycle, self.last_cycle = self.last_cycle, cycle
        for idx, t in chosen:
            self.sels[(o, idx)] = t
        if d is not None:
            prev, prev_held = occupant[loc], held[loc]
            if prev is not None:
                del loc_of[prev]
            occupant[loc] = d
            held[loc] = d if unread[d] else None
            loc_of[d] = loc
            self.assigned[d] = loc
            if f.latency > 1:
                self.ready_at[d] = cycle + f.latency
        reads = self.reads[o]
        for t in reads:
            unread[t] -= 1
            if not unread[t] and t in loc_of:
                held[loc_of[t]] = None
        if is_memory:
            self.last_mem = o

        if self._unseen():
            yield  # the child walk runs here

        # undo; each temp `o` reads was live, as `o` was pending
        del self.issued[o]
        self.issued_bits ^= 1 << o
        self.last_cycle = last_cycle
        for idx, _t in chosen:
            del self.sels[(o, idx)]
        for t in reads:
            unread[t] += 1
            if t in loc_of:
                held[loc_of[t]] = t
        if d is not None:
            del loc_of[d]
            del self.assigned[d]
            if f.latency > 1:
                del self.ready_at[d]
            occupant[loc], held[loc] = prev, prev_held
            if prev is not None:
                loc_of[prev] = loc
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
        cycle, loc_of = self.last_cycle, self.loc_of
        ready = None  # the values in place not readable at the next cycle
        if self.ready_at:
            ready = frozenset((t, at - cycle) for t, at in self.ready_at.items()
                              if at > cycle + 1 and t in loc_of) or None
        key = (self.issued_bits, tuple(self.held), self.last_mem, ready)
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
        if self.last_mem in sec.mspairs or any(t in sec.spairs for t in self.occupant):
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


class SolverTable(NamedTuple):
    """What `solve` and `enumerate_solutions` read of one model before they
    search: the `_op_facts` table, which carries the result-register chain
    memo, and `preflight_infeasible`'s verdict on it.

    A caller that runs both on one model builds it once (`solver_table`)
    and hands it to each. The memo grows as a search runs and `run` keeps
    per-subset state in it, so a table serves one search at a time; it is
    never stored on the model, which concurrent solves may share.
    """

    facts: list
    infeasible: tuple[str, str] | None


def solver_table(model: ExtendedModel) -> SolverTable:
    facts = _op_facts(model)
    return SolverTable(facts, preflight_infeasible(model, facts))


def solve(model: ExtendedModel, budget: SolveBudget | None = None,
          table: SolverTable | None = None) -> SolveOutcome:
    """Minimize makespan; deterministic for a fixed node budget."""
    budget = budget or SolveBudget()
    table = table or solver_table(model)
    stats = SolveStats()
    if table.infeasible is not None:
        family, msg = table.infeasible
        return SolveOutcome("Infeasible", None, stats, family, msg)
    s = _Searcher(model, budget, facts=table.facts)
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
    table: SolverTable | None = None,
) -> tuple[list[Solution], bool]:
    """All canonical solutions (optionally bounded by makespan), sorted.

    Returns (solutions, truncated). `truncated` reports that the walk
    stopped early: the cap was hit or the time budget ran out.
    """
    table = table or solver_table(model)
    if table.infeasible is not None:
        return [], False
    s = _Searcher(model, SolveBudget(seconds=600.0), enumerate_all=True, cap=cap,
                  makespan_cap=makespan_cap, facts=table.facts)
    try:
        s.run()
        truncated = False
    except _Budget:
        truncated = True
    sols = sorted(set(s.solutions), key=lambda x: x.sort_key())
    return sols[:cap], truncated
