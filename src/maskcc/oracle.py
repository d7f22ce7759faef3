"""Brute-force reference: an exhaustive walk over small models.

The oracle shares the Solution type with the solver but none of its search
machinery. For each activeness subset one recursive walk issues the
subset's operations in every order; each operation takes every operand
selection whose reads find their temps in place and every allowed location
of its definition, and the walk state is passed down as fresh dicts rather
than undone. Security families are judged from the walked register-overwrite
chains and the memory-operation order, not from the model's live-range
algebra, so comparing the two sides exercises the subsequence
characterizations end to end. Each pairwise rule is checked as its
transition forms, and `_security_ok` still judges every complete candidate.

Schedules are canonical (each operation at the first cycle after the
previous one that its operands and aliasing memory predecessors allow),
which makes the solution space finite and directly comparable with the
solver's enumeration. Optima are found by
iterative deepening over the makespan.

Each level's walk reads per-op tables (memory deps, operand slots and their
alternatives, the definition's locations, two-address flag, latency and
forbidden predecessors) built once when the level starts.
`compare_with_solver` at slack 0 takes the optimum's walk from
`brute_force` as its enumeration instead of walking that level again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    ExtendedModel,
    SecurityTables,
    Solution,
    SolutionView,
    make_solution,
)
from .solver import SolveBudget, enumerate_solutions, solve


class OracleError(Exception):
    pass


@dataclass
class OracleReport:
    program: str
    target: str
    insecure_optimum: int | None
    secure_optimum: int | None
    insecure_count: int
    secure_count: int
    discrepancies: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "target": self.target,
            "insecure_optimum": self.insecure_optimum,
            "secure_optimum": self.secure_optimum,
            "insecure_count": self.insecure_count,
            "secure_count": self.secure_count,
            "discrepancies": self.discrepancies,
        }


def _valid_active_sets(model: ExtendedModel):
    """Every activeness subset in which each spill load follows its spill store."""
    optional = [o for o in model.program.ops if not o.mandatory]
    mandatory = {o.id for o in model.program.ops if o.mandatory}
    for bits in itertools.product((False, True), repeat=len(optional)):
        chosen = {op.id for op, b in zip(optional, bits) if b}
        ok = True
        for op, b in zip(optional, bits):
            if b and op.kind == "spill_load" and (op.id - 1) not in chosen:
                ok = False
                break
        if not ok:
            continue
        yield mandatory | chosen


def _security_ok(sec: SecurityTables, succ, mems, written) -> bool:
    succ_of = {a: b for a, b in succ}
    pred_of = {b: a for a, b in succ}
    for a, b in succ:
        if sec.rpair(a, b):
            return False
        if a in sec.sec_input and b in sec.sec_input[a]:
            return False
    for ts, hiders in sec.spairs.items():
        if ts not in written:  # key temps are never inputs: live iff written
            continue
        if pred_of.get(ts) not in hiders:
            return False
        if succ_of.get(ts) not in hiders:
            return False
    for i, a in enumerate(mems):
        if i + 1 < len(mems):
            b = mems[i + 1]
            if sec.mmpair(a, b):
                return False
        if a in sec.mspairs:
            prev = mems[i - 1] if i > 0 else None
            nxt = mems[i + 1] if i + 1 < len(mems) else None
            if prev not in sec.mspairs[a] or nxt not in sec.mspairs[a]:
                return False
    return True


def _forbidden_before(pairs, follows, keyed, universe) -> dict[int, frozenset]:
    """x -> every y such that x right after y is a transition `_security_ok`
    rejects, whatever the rest of the candidate.

    `pairs` are unordered pairs that may never be adjacent, `follows` maps y
    to the x that may not come right after it, and `keyed` maps each key to
    its hiders, which must come right before and right after it. `None`
    stands for nothing before, and it never hides a key. `universe` holds
    every x and y.
    """
    bad: dict[int, set] = {}
    for a, b in pairs:
        bad.setdefault(a, set()).add(b)
        bad.setdefault(b, set()).add(a)
    for y, xs in follows.items():
        for x in xs:
            bad.setdefault(x, set()).add(y)
    for k, hiders in keyed.items():
        bad.setdefault(k, set()).update({None, *universe} - hiders)
        for x in universe - hiders:
            bad.setdefault(x, set()).add(k)
    return {x: frozenset(ys) for x, ys in bad.items()}


WORK_LIMIT = 5_000_000  # operand selections one oracle call may try


def _enumerate_level(model: ExtendedModel, level: int,
                     limit: int) -> tuple[list[Solution], int, bool]:
    """Every canonical solution with makespan <= level, the operand
    selections tried to find them, and whether the level cut anything;
    `OracleError` past `limit` selections.

    One walk per activeness subset issues the subset's operations in every
    order. Each operation takes every operand selection whose reads find
    their temps issued and still in place, its canonical cycle, and every
    location of its definition that `r_dom` and the two-address rule
    allow. An order is dropped once one cycle per remaining operation
    would pass the level. Iterative deepening makes the first non-empty
    level exact.

    A branch is also dropped as soon as it forms a transition that
    `_security_ok` rejects for every completion. Along a walk the register
    overwrite chains (`succ`) only grow, and cycles rise with issue order,
    so the memory operations' bus order only grows too. A pair, once
    formed, stays in the complete candidate:
    - writing `d` to register `loc` over `prev` (None if `loc` was never
      written) makes `prev` the predecessor of `d` and `d` the successor of
      `prev` for good. The candidate fails if `(prev, d)` is an rpair, if
      `d` may not follow the secret input `prev`, if `d` is an spairs key
      and `prev` is none of its hiders (None never is), or if `prev` is a
      key (it sat in a register, so it is written) and `d` is none of its
      hiders;
    - issuing memory op `o` right after `last_mem` (None if none was
      issued) fixes them as neighbours on the bus. The candidate fails if
      they form an mmpair, if `last_mem` is an mspairs key that `o` does
      not hide, or if `o` is a key that `last_mem` does not hide.
    Each definition's and memory op's forbidden predecessors are one
    static set, so the walk tests one membership per transition. A key
    left without a successor is caught only at the leaf, where
    `_security_ok` still judges every complete candidate. A base model has
    no pairs, so its walk is the unpruned one.

    The level cuts something when the one-cycle-per-op prune fires, when
    the out op would end past it, or when a subset has too many operations
    to fit. If none of these happened, a deeper level walks the very same
    tree: cycles are canonical and no other rule reads the level. So a
    level with no solution and no cut has no solution at any makespan.
    """
    prog = model.program
    sec = model.security
    out_id = prog.out_op.id
    nregs = model.target.num_registers
    result_reg = model.result_reg
    memory = {o.id for o in prog.ops if o.is_memory}
    never = _forbidden_before(sec.rpairs, sec.sec_input, sec.spairs, set(prog.temps))
    bus_never = _forbidden_before(sec.mmpairs, {}, sec.mspairs, memory)
    # op id -> (memory deps, slot keys, slot alts, operand positions, def,
    # its locations, two-address, latency, the temps the def may not
    # overwrite, the memory ops it may not follow on the bus or None if it
    # is no memory op), read on every child of the walk
    facts = {}
    for op in prog.ops:
        slots = tuple(op.temp_slots())
        d = op.defs[0] if op.defs else None
        facts[op.id] = (
            prog.mem_deps.get(op.id, ()),
            tuple((op.id, i) for i, _slot in slots),
            tuple(slot.alts for _i, slot in slots),
            tuple(k for k, (i, _slot) in enumerate(slots) if i >= 0),
            d,
            model.r_dom.get(d, ()),  # out temps have no locations
            model.two_address(op),
            model.latency(op),
            never.get(d, frozenset()),
            bus_never.get(op.id, frozenset()) if op.id in memory else None,
        )
    out_keys, out_alts = facts[out_id][1:3]
    first_at = out_keys.index((out_id, 0)) if (out_id, 0) in out_keys else None
    found = []
    work = 0
    cut = False

    def selections(alts, contents, regs):
        """Every operand selection, each counted as one unit of work."""
        nonlocal work
        pools = [[t for t in ts if t in regs and contents[regs[t]] == t] for ts in alts]
        n = 1
        for pool in pools:
            n *= len(pool)
        work += n  # every selection of the product is tried
        if work > limit:
            raise OracleError(
                f"enumeration at makespan {level} exceeds the oracle "
                f"work limit; the model is too large for brute force"
            )
        return itertools.product(*pools)

    def finish(last, contents, regs, ready, cycles, sels, succ):
        nonlocal cut
        ends = []
        for combo in selections(out_alts, contents, regs):
            if first_at is not None and regs[combo[first_at]] != result_reg:
                continue
            c = max([last + 1] + [ready[t] for t in combo])
            if c <= level:
                ends.append((combo, c))
            else:
                cut = True
        if not ends:
            return
        mems = sorted((o for o in cycles if o in memory), key=cycles.get)
        written = {t for t, loc in regs.items() if loc < nregs}
        if not _security_ok(sec, succ, mems, written):
            return  # security reads the walked state, not the out op's selection
        for combo, c in ends:
            cycles_out = {**cycles, out_id: c}  # its keys are the active ops
            found.append(make_solution(model, cycles_out, cycles_out, regs,
                                       {**sels, **dict(zip(out_keys, combo))}))

    def walk(rest, last, last_mem, contents, regs, ready, cycles, sels, succ):
        nonlocal cut
        if not rest:
            finish(last, contents, regs, ready, cycles, sels, succ)
            return
        for op_id in rest:
            deps, keys, alts, src_at, d, locs, two_addr, lat, bad_prev, bad_mem = facts[op_id]
            if any(dep not in cycles for dep in deps):
                continue  # aliasing memory ops keep program order
            if bad_mem and last_mem in bad_mem:
                continue  # a bus pair no completion can make secure
            mem = last_mem if bad_mem is None else op_id
            later = [o for o in rest if o != op_id]
            start = max([last + 1] + [cycles[dep] + 1 for dep in deps])
            for combo in selections(alts, contents, regs):
                c = max([start] + [ready[t] for t in combo])
                if c + len(later) + 1 > level:
                    cut = True
                    continue  # one cycle per op left, the out op included
                now_cycles = {**cycles, op_id: c}
                now_sels = {**sels, **dict(zip(keys, combo))}
                if d is None:
                    walk(later, c, mem, contents, regs, ready, now_cycles, now_sels, succ)
                    continue
                src_locs = [regs[combo[k]] for k in src_at] if two_addr else ()
                for loc in locs:
                    if src_locs and loc not in src_locs:
                        continue
                    prev = contents.get(loc) if loc < nregs else None
                    if loc < nregs and prev in bad_prev:
                        continue  # an overwrite no completion can make secure
                    pair = ((prev, d),) if prev is not None else ()
                    walk(later, c, mem, {**contents, loc: d}, {**regs, d: loc},
                         {**ready, d: c + lat}, now_cycles, now_sels, succ + pair)

    regs = {t.id: prog.temps[t.id].input_index for t, _cls in prog.inputs}
    if any(loc not in model.r_dom[t] for t, loc in regs.items()):
        return found, work, cut
    contents = {loc: t for t, loc in regs.items()}
    ready = dict.fromkeys(regs, 1)
    for active in _valid_active_sets(model):
        real = [o.id for o in prog.ops if o.id in active and o.kind not in ("in", "out")]
        if len(real) + 1 > level:
            cut = True
            continue  # one cycle per op, the out op included
        walk(real, 0, None, contents, regs, ready, {prog.in_op.id: 0}, {}, ())
    return found, work, cut


def _check_op_bound(model: ExtendedModel, op_bound: int) -> None:
    n_mand = sum(1 for o in model.program.ops if o.mandatory)
    if n_mand > op_bound:
        raise OracleError(
            f"model has {n_mand} mandatory operations; oracle bound is {op_bound}"
        )


def brute_force(
    model: ExtendedModel,
    op_bound: int = 8,
    max_makespan: int | None = None,
) -> tuple[int | None, list[Solution]]:
    """Optimum by iterative deepening; returns (optimum, solutions at optimum).

    (None, []) means the model is infeasible up to the horizon, or at
    every makespan once a level without solutions cut nothing (see
    `_enumerate_level`). All levels share one budget of `WORK_LIMIT`
    operand selections. Work grows about geometrically with the level, so
    a level whose predicted work (the last level's times the last growth
    ratio) exceeds what is left raises `OracleError` before it is walked.
    """
    _check_op_bound(model, op_bound)
    lb = sum(
        1 for o in model.program.ops if o.mandatory and o.kind not in ("in", "out")
    ) + 1
    hi = max_makespan if max_makespan is not None else model.maxc
    left = WORK_LIMIT
    before = last = 0  # the work of the last two levels walked
    for level in range(lb, hi + 1):
        predicted = last * last // before if before else 0
        if predicted > left:
            raise OracleError(
                f"enumeration at makespan {level} would exceed the oracle work "
                f"limit: about {predicted} operand selections predicted, {left} "
                f"left; the model is too large for brute force"
            )
        sols, work, cut = _enumerate_level(model, level, left)
        if sols:
            return level, sorted(set(sols), key=lambda s: s.sort_key())
        if not cut:
            return None, []  # every deeper level walks the same tree
        left -= work
        before, last = last, work
    return None, []


def enumerate_all(
    model: ExtendedModel, makespan_cap: int, op_bound: int = 8
) -> list[Solution]:
    """Every canonical solution with makespan <= cap."""
    _check_op_bound(model, op_bound)
    sols = _enumerate_level(model, makespan_cap, WORK_LIMIT)[0]
    return sorted(set(sols), key=lambda s: s.sort_key())


# -- trace-level characterizations ------------------------------------------------


def trace_subseq(model: ExtendedModel, sol: Solution) -> set[tuple[int, int]]:
    """(t1, t2) pairs written back to back to one register, by walking the code."""
    prog = model.program
    nregs = model.target.num_registers
    contents: dict[int, int] = {}
    for t, _cls in prog.inputs:
        contents[prog.temps[t.id].input_index] = t.id
    regs = dict(sol.regs)
    pairs = set()
    for op_id in sorted(sol.active, key=lambda o: dict(sol.cycles)[o]):
        op = prog.op(op_id)
        if op.kind in ("in", "out") or not op.defs:
            continue
        d = op.defs[0]
        loc = regs.get(d)
        if loc is None or loc >= nregs:
            continue
        prev = contents.get(loc)
        if prev is not None:
            pairs.add((prev, d))
        contents[loc] = d
    return pairs


def trace_msubseq(model: ExtendedModel, sol: Solution) -> set[tuple[int, int]]:
    """Consecutive active memory operations, in schedule order."""
    prog = model.program
    cyc = dict(sol.cycles)
    mems = sorted(
        (o for o in sol.active if prog.op(o).is_memory), key=lambda o: cyc[o]
    )
    return {(a, b) for a, b in zip(mems, mems[1:])}


def compare_with_solver(
    base_model: ExtendedModel,
    secure_model: ExtendedModel,
    op_bound: int = 8,
    count_slack: int = 0,
) -> OracleReport:
    """Full cross-check: optima, counts and subsequence characterizations."""
    prog = base_model.program
    report = OracleReport(
        program=prog.name,
        target=base_model.target.name,
        insecure_optimum=None,
        secure_optimum=None,
        insecure_count=0,
        secure_count=0,
    )
    checks = []
    for label, model in (("insecure", base_model), ("secure", secure_model)):
        opt, sols = brute_force(model, op_bound=op_bound)
        out = solve(model, SolveBudget(seconds=300.0))
        solver_opt = out.solution.objective if out.solution else None
        if opt != solver_opt:
            report.discrepancies.append(
                f"{label}: oracle optimum {opt} != solver {solver_opt}"
            )
        if label == "insecure":
            report.insecure_optimum = opt
        else:
            report.secure_optimum = opt
        if opt is None:
            continue
        cap = opt + count_slack
        # brute force has just walked level opt, which is the slack-0 enumeration
        oracle_sols = sols if count_slack == 0 else enumerate_all(model, cap, op_bound=op_bound)
        solver_sols, truncated = enumerate_solutions(model, makespan_cap=cap)
        if truncated:
            report.discrepancies.append(f"{label}: solver enumeration truncated")
        if label == "insecure":
            report.insecure_count = len(oracle_sols)
        else:
            report.secure_count = len(oracle_sols)
        if {s.sort_key() for s in oracle_sols} != {s.sort_key() for s in solver_sols}:
            report.discrepancies.append(
                f"{label}: oracle enumerates {len(oracle_sols)} solutions, "
                f"solver {len(solver_sols)}, sets differ"
            )
        checks.append((label, model, oracle_sols))
    for label, model, sols in checks:
        for sol in sols:
            v = SolutionView(model, sol)
            if trace_subseq(model, sol) != v.subseq_pairs():
                report.discrepancies.append(
                    f"{label}: subseq characterization mismatch on {sol.to_dict()}"
                )
                break
            if trace_msubseq(model, sol) != v.msubseq_pairs():
                report.discrepancies.append(
                    f"{label}: msubseq characterization mismatch on {sol.to_dict()}"
                )
                break
    return report
