"""Brute-force reference: exhaustive generate-and-test over small models.

The oracle shares the Solution type with the solver but none of its search
machinery: candidates are produced by raw recursive generation (activeness
subsets, operation permutations, operand selections, register assignments)
and filtered by directly executing the machine walk. Security families are
judged from the walked register-overwrite chains and the memory-operation
order, not from the model's live-range algebra, so comparing the two sides
exercises the subsequence characterizations end to end.

Schedules are canonical (compacted from the operation order), which makes
the solution space finite and directly comparable with the solver's
enumeration. Optima are found by iterative deepening over the makespan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    ExtendedModel,
    ModelOp,
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


def _valid_active_sets(model: ExtendedModel, max_real: int):
    optional = [o for o in model.program.ops if not o.mandatory]
    mandatory = {o.id for o in model.program.ops if o.mandatory}
    n_mand_real = sum(1 for o in model.program.ops if o.mandatory and o.kind not in ("in", "out"))
    for bits in itertools.product((False, True), repeat=len(optional)):
        chosen = {op.id for op, b in zip(optional, bits) if b}
        ok = True
        for op, b in zip(optional, bits):
            if b and op.kind == "spill_load" and (op.id - 1) not in chosen:
                ok = False
                break
        if not ok:
            continue
        if n_mand_real + len(chosen) > max_real:
            continue
        yield mandatory | chosen


def _selection_combos(ops: list[ModelOp]):
    keys = []
    pools = []
    for op in ops:
        for i, slot in op.temp_slots():
            keys.append((op.id, i))
            pools.append(slot.alts)
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


def _walk_order(model: ExtendedModel, order, sels, regs, cycles):
    """Execute the order on the register file and the stack slots.

    `regs` places every temp the order reads or writes. Returns the
    register-overwrite adjacencies, the memory-op order and the temps written
    to registers, or None on any broken read or write.
    """
    prog = model.program
    nregs = model.target.num_registers
    contents: dict[int, int] = {}
    for t, _cls in prog.inputs:
        contents[prog.temps[t.id].input_index] = t.id
    ready = {t.id: 1 for t, _ in prog.inputs}
    pins = dict(model.pins)
    for t, loc in regs.items():
        if loc not in model.r_dom[t]:
            return None
        if t in pins and loc != pins[t]:
            return None
    succ: list[tuple[int, int]] = []
    for op in order:
        c = cycles[op.id]
        src_locs = []
        for i, slot in op.temp_slots():
            t = sels[(op.id, i)]
            loc = regs[t]
            if contents.get(loc) != t:
                return None
            if ready.get(t, 10**9) > c:
                return None
            if i >= 0:
                src_locs.append(loc)
        if op.defs and op.kind != "out":
            d = op.defs[0]
            loc = regs[d]
            if model.two_address(op) and src_locs and loc not in src_locs:
                return None
            if loc < nregs and loc in contents:
                succ.append((contents[loc], d))
            contents[loc] = d
            ready[d] = c + model.latency(op)
    out_op = prog.out_op
    first = sels.get((out_op.id, 0))
    if first is not None:
        if contents.get(regs[first]) != first:
            return None
        if regs[first] != model.result_reg:
            return None
    for i, slot in out_op.temp_slots():
        t = sels[(out_op.id, i)]
        if contents.get(regs[t]) != t:
            return None
    # only the few valid candidates get here, so these two are not kept per op
    mems = [op.id for op in order if op.is_memory]
    written = {op.defs[0] for op in order
               if op.defs and op.kind != "out" and regs[op.defs[0]] < nregs}
    return succ, mems, written


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


WORK_LIMIT = 5_000_000  # candidate walks per level before giving up


def _enumerate_level(model: ExtendedModel, level: int, exact: bool):
    """All canonical solutions with makespan == level (exact) or <= level."""
    prog = model.program
    out_op = prog.out_op
    sec = model.security
    found = []
    work = 0

    def spend() -> None:
        nonlocal work
        work += 1
        if work > WORK_LIMIT:
            raise OracleError(
                f"enumeration at makespan {level} exceeds the oracle "
                f"work limit; the model is too large for brute force"
            )

    for active in _valid_active_sets(model, max_real=level - 1):
        real = [o for o in prog.ops if o.id in active and o.kind not in ("in", "out")]
        for perm in itertools.permutations(real):
            ops_for_sel = list(perm) + [out_op]
            for sels in _selection_combos(ops_for_sel):
                spend()
                cycles = _compact(model, perm, sels)
                if cycles is None:
                    continue
                obj = cycles[out_op.id]
                if (exact and obj != level) or obj > level:
                    continue
                def_temps = [o.defs[0] for o in perm if o.defs]
                pools = [model.r_dom[t] for t in def_temps]
                for combo in itertools.product(*pools):
                    spend()
                    regs = dict(zip(def_temps, combo))
                    for t, _c in prog.inputs:
                        regs[t.id] = prog.temps[t.id].input_index
                    order = list(perm) + [out_op]
                    walked = _walk_order(model, order, sels, regs, cycles)
                    if walked is None or not _security_ok(sec, *walked):
                        continue
                    live_regs = {
                        t: regs[t]
                        for t in regs
                        if prog.temps[t].defined_by in active or prog.temps[t].is_input
                    }
                    found.append(
                        make_solution(model, active, cycles, live_regs, sels)
                    )
    return found


def _compact(model: ExtendedModel, perm, sels):
    """Cycles from the issue order; None if the order breaks a dependency."""
    prog = model.program
    ready = {t.id: 1 for t, _ in prog.inputs}
    cycles = {prog.in_op.id: 0}
    last = 0
    for op in perm:
        c = last + 1
        for dep in prog.mem_deps.get(op.id, ()):
            if dep not in cycles:
                return None  # aliasing memory op out of program order
            c = max(c, cycles[dep] + 1)
        for i, slot in op.temp_slots():
            t = sels[(op.id, i)]
            if t not in ready:
                return None  # producer not yet issued
            c = max(c, ready[t])
        cycles[op.id] = c
        last = c
        for d in op.defs:
            ready[d] = c + model.latency(op)
    out_op = prog.out_op
    c = last + 1
    for i, slot in out_op.temp_slots():
        t = sels[(out_op.id, i)]
        if t not in ready:
            return None
        c = max(c, ready[t])
    cycles[out_op.id] = c
    return cycles


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

    (None, []) means the model is infeasible up to the horizon.
    """
    _check_op_bound(model, op_bound)
    lb = sum(
        1 for o in model.program.ops if o.mandatory and o.kind not in ("in", "out")
    ) + 1
    hi = max_makespan if max_makespan is not None else model.maxc
    for level in range(lb, hi + 1):
        sols = _enumerate_level(model, level, exact=True)
        if sols:
            return level, sorted(set(sols), key=lambda s: s.sort_key())
    return None, []


def enumerate_all(
    model: ExtendedModel, makespan_cap: int, op_bound: int = 8
) -> list[Solution]:
    """Every canonical solution with makespan <= cap."""
    _check_op_bound(model, op_bound)
    sols = _enumerate_level(model, makespan_cap, exact=False)
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
        oracle_sols = enumerate_all(model, cap, op_bound=op_bound)
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
