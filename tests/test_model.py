"""Model structure, predicates and the independent constraint checker."""

import pytest

from conftest import MINI, TARGETS, build_models, fixture_program
from maskcc.ir import parse_program
from maskcc.model import (
    ModelBuildError,
    SolutionView,
    add_security_constraints,
    build_base_model,
    check_solution,
    dump_model,
    elaborate,
    make_solution,
)
from maskcc.solver import enumerate_solutions
from maskcc.target import TargetDesc, _ops


# -- elaboration ----------------------------------------------------------------


def test_elaborated_shape_of_running_example(xor_program):
    elab = elaborate(xor_program, "full")
    kinds = [(op.id, op.kind) for op in elab.ops[:9]]
    assert kinds == [
        (1, "in"), (2, "copy"), (3, "copy"), (4, "copy"),
        (5, "body"), (6, "copy"), (7, "body"), (8, "copy"), (9, "out"),
    ]
    o5 = elab.op(5)
    assert o5.opcode == "xor"
    assert o5.defs == (6,)
    assert o5.operands[0].alts[:2] == (1, 4)
    assert o5.operands[1].alts[:2] == (2, 5)
    o9 = elab.op(9)
    assert o9.operands[0].alts[:2] == (8, 9)
    assert elab.out_temps == (10,)
    # one spill pair per value class, after the visible program
    spill_kinds = {op.kind for op in elab.ops[9:]}
    assert spill_kinds == {"spill_store", "spill_load"}
    assert len(elab.ops) == 9 + 2 * 5


def test_copy_budgets_shrink_model(xor_program):
    assert len(elaborate(xor_program, "none").ops) == 4
    assert len(elaborate(xor_program, "reg").ops) == 9


def test_memory_order_dependencies():
    src = (
        "func f width 4\nin t0:random t1:random\n"
        "store 0, t0\nstore 1, t1\nt2 = load 0\nstore 0, t1\nout t2\n"
    )
    elab = elaborate(parse_program(src), "none")
    mem_ops = [op.id for op in elab.ops if op.is_memory]
    s0, s1, ld, s0b = mem_ops
    deps = elab.mem_deps
    assert deps[ld] == (s0,)  # load after the aliasing store
    assert s1 not in deps.get(ld, ())  # distinct literal addresses don't alias
    assert set(deps[s0b]) == {s0, ld}  # rewrite waits for store and load


def test_temp_address_is_conservative():
    src = (
        "func f width 4\nin t0:random t1:random\n"
        "store t0, t1\nt2 = load 7\nout t2\n"
    )
    elab = elaborate(parse_program(src), "none")
    st, ld = [op.id for op in elab.ops if op.is_memory]
    assert elab.mem_deps[ld] == (st,)


def test_capacity_diagnostic():
    nano = TargetDesc(
        name="nano",
        registers=("R0", "R1", "R2"),
        args=("R0", "R1", "R2"),
        result="R0",
        stack_slots=0,
        ops=_ops(alu_two_address=False),
    )
    with pytest.raises(ModelBuildError) as e:
        build_base_model(fixture_program("spill_force"), nano)
    assert "live" in str(e.value)


def test_too_many_inputs_rejected():
    src = "func f width 4\nin t0:random t1:random t2:random t3:random\nt4 = xor t0, t1\nout t4\n"
    with pytest.raises(ModelBuildError):
        build_base_model(parse_program(src), MINI)


# -- hand-built solutions over the running example -------------------------------


def plain_solution(model):
    """Copies inactive; both xors overwrite left-to-right (the leaky shape)."""
    return make_solution(
        model,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 1, 8: 0},
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )


def hiding_solution(model):
    """Copies of mask and key both routed through R3 before the first xor."""
    return make_solution(
        model,
        active={1, 3, 4, 5, 7, 9},
        cycles={1: 0, 3: 1, 4: 2, 5: 3, 7: 4, 9: 5},
        regs={0: 0, 1: 1, 2: 2, 4: 3, 5: 3, 6: 3, 8: 0},
        sels={(3, 0): 1, (4, 0): 2, (5, 0): 1, (5, 1): 5,
              (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )


@pytest.fixture
def thumb_models(xor_models):
    return xor_models  # (base, secure, sets) on thumb-like, full budget


def test_plain_solution_satisfies_base(thumb_models):
    base, _secure, _ = thumb_models
    assert check_solution(base, plain_solution(base)) == []


def test_plain_solution_violates_rpairs(thumb_models):
    _base, secure, _ = thumb_models
    errs = check_solution(secure, plain_solution(secure))
    assert any("rpairs" in e and "t1" in e and "t6" in e for e in errs)


def test_hiding_solution_fully_secure(thumb_models):
    _base, secure, _ = thumb_models
    assert check_solution(secure, hiding_solution(secure)) == []


def test_samereg_examples(thumb_models):
    base, _, _ = thumb_models
    v = SolutionView(base, plain_solution(base))
    assert v.samereg(0, 8)  # both live in R0
    assert not v.samereg(2, 6)  # different registers
    assert not v.samereg(1, 7)  # t7's copy op is inactive


def test_is_before_examples(thumb_models):
    base, _, _ = thumb_models
    v = SolutionView(base, plain_solution(base))
    assert v.is_before(1, 6)  # mask ends exactly when the first xor lands
    assert not v.is_before(6, 6)  # strict live ranges exclude self
    assert not v.is_before(2, 6)  # different registers


def test_lk_examples(thumb_models):
    base, _, _ = thumb_models
    v = SolutionView(base, plain_solution(base))
    assert v.lk(6) == v.le[1]
    assert v.lk(1) == -1  # first occupant of its register
    assert v.lk(8) == v.le[0]


def test_subseq_examples(thumb_models):
    base, _, _ = thumb_models
    v = SolutionView(base, plain_solution(base))
    assert v.subseq(1, 6)
    assert v.subseq(0, 8)
    assert not v.subseq(2, 6)  # different registers
    assert not v.subseq(6, 1)  # wrong direction
    assert v.subseq_pairs() == {(1, 6), (0, 8)}


def test_hiding_solution_subseq_chain(thumb_models):
    base, _, _ = thumb_models
    v = SolutionView(base, hiding_solution(base))
    assert v.subseq(4, 5)  # hider precedes the key copy
    assert v.subseq(5, 6)  # the masked value follows it
    assert not v.subseq(4, 6)  # not adjacent: the key copy is between them


def test_msubseq_and_ok_on_memory_solution():
    base, secure, _ = build_models("mem_secret", "mips-like", "reg")
    from maskcc.solver import solve

    out = solve(secure)
    v = SolutionView(secure, out.solution)
    mems = v.mem_ops_active()
    assert len(mems) == 3
    a, b, c = mems
    assert v.ok(b) == v.cycle[a]
    assert v.ok(c) == v.cycle[b]
    assert v.ok(a) == -1
    assert v.msubseq(a, b) and v.msubseq(b, c)
    assert not v.msubseq(a, c)
    assert v.msubseq_pairs() == {(a, b), (b, c)}


# -- the live-range algebra, evaluated literally --------------------------------


def reference_ranges(model, sol):
    """(live, ls, le) as defined: a temp other than an out temp is live
    when its defining op is active; it starts at that op's cycle and ends
    at its last reader's cycle, or one after its start if that is later.
    An unselected slot reads its first alt."""
    prog = model.program
    cycle, selmap, active = dict(sol.cycles), dict(sol.sels), set(sol.active)
    readers = {}
    for op in prog.ops:
        if op.id in active:
            for i, slot in op.temp_slots():
                readers.setdefault(selmap.get((op.id, i), slot.alts[0]), []).append(op.id)
    live, ls, le = set(), {}, {}
    for tid, mt in prog.temps.items():
        if mt.kind != "out" and mt.defined_by in active:
            live.add(tid)
            ls[tid] = cycle[mt.defined_by]
            le[tid] = max([cycle[o] for o in readers.get(tid, [])] + [ls[tid] + 1])
    return live, ls, le


def reference_lk(v, t):
    """The latest le among the other live temps before t in its location."""
    if t not in v.live:
        return -1
    best = -1
    for t2 in v.live:
        if t2 != t and v.is_before(t2, t):
            best = max(best, v.le[t2])
    return best


def reference_ok(v, o):
    """The latest cycle among the other active memory ops before o."""
    if o not in v.active or not v.prog.op(o).is_memory:
        return -1
    best = -1
    for o2 in v.active:
        if v.prog.op(o2).is_memory and v.is_before_mem(o2, o):
            best = max(best, v.cycle[o2])
    return best


def reference_subseq_pairs(v):
    regs = [t for t in v.live if v.prog.temps[t].kind == "reg"]
    return {(t1, t2) for t1 in regs for t2 in regs
            if t1 != t2 and v.samereg(t1, t2) and reference_lk(v, t2) == v.le[t1]}


def reference_msubseq_pairs(v):
    mems = v.mem_ops_active()
    return {(o1, o2) for o1 in mems for o2 in mems
            if o1 != o2 and reference_ok(v, o2) == v.cycle[o1]}


def assert_view_is_literal(model, sol):
    v = SolutionView(model, sol)
    assert (v.live, v.ls, v.le) == reference_ranges(model, sol)
    for t in model.program.temps:
        assert v.lk(t) == reference_lk(v, t), t
    for op in model.program.ops:
        assert v.ok(op.id) == reference_ok(v, op.id), op.id
    assert v.subseq_pairs() == reference_subseq_pairs(v)
    assert v.msubseq_pairs() == reference_msubseq_pairs(v)
    return v


def test_view_matches_reference_on_oracle_solutions():
    """Every solution within one cycle of each oracle combo's optimum."""
    from conftest import ORACLE_CASES
    from maskcc.oracle import brute_force, enumerate_all

    checked = 0
    for name, tgt, budget in ORACLE_CASES:
        for model in build_models(name, tgt, budget)[:2]:
            opt, _ = brute_force(model)
            if opt is None:
                continue
            for sol in enumerate_all(model, opt + 1):
                assert_view_is_literal(model, sol)
                checked += 1
    assert checked > 1000


THREE_MEMOPS = "func f width 4\nin t0:random\nstore 0, t0\nstore 1, t0\nt1 = load 0\nout t1\n"


@pytest.mark.parametrize("cycles, pairs", [
    ({1: 0, 2: 1, 3: 1, 4: 2, 5: 3}, {(2, 3), (3, 2), (2, 4), (3, 4)}),
    ({1: 0, 2: 1, 3: 2, 4: 2, 5: 3}, {(3, 4), (4, 3)}),  # the tie hides o2
    ({1: 0, 2: 1, 3: 1, 4: 1, 5: 2}, {(a, b) for a in (2, 3, 4) for b in (2, 3, 4) if a != b}),
])
def test_view_matches_reference_on_memory_ops_sharing_a_cycle(cycles, pairs):
    model = build_base_model(parse_program(THREE_MEMOPS), MINI, "none")
    sol = make_solution(model, active={1, 2, 3, 4, 5}, cycles=cycles,
                        regs={0: 0, 1: 1}, sels={(2, 0): 0, (3, 0): 0, (5, 0): 1})
    assert "single-issue violated (duplicate cycles)" in check_solution(model, sol)
    assert assert_view_is_literal(model, sol).msubseq_pairs() == pairs


def test_view_matches_reference_on_invalid_register_assignments(thumb_models):
    base, _, _ = thumb_models
    shape = dict(active={1, 5, 7, 9}, cycles={1: 0, 5: 1, 7: 2, 9: 3})
    sels = {(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8}
    overlap = make_solution(base, **shape, regs={0: 0, 1: 1, 2: 2, 6: 0, 8: 0}, sels=sels)
    v = assert_view_is_literal(base, overlap)  # t6 lands on R0 while t0 lives
    assert (v.lk(6), v.lk(8)) == (-1, 2)
    assert v.subseq_pairs() == {(0, 8), (6, 8)}
    unselected = make_solution(base, **shape, regs={0: 0, 1: 1, 2: 2, 6: 1, 8: 0},
                               sels={k: t for k, t in sels.items() if k != (7, 0)})
    assert assert_view_is_literal(base, unselected).le[0] == 2  # o7[0] reads its first alt
    unplaced = make_solution(base, **shape, regs={0: 0, 1: 1, 6: 1, 8: 0}, sels=sels)
    v = assert_view_is_literal(base, unplaced)
    assert 2 in v.live and v.lk(2) == -1  # t2 has no location
    overlaps = [e for e in check_solution(base, overlap) if "overlap" in e]
    assert overlaps == ["live ranges of t0 and t6 overlap in loc 0"]
    assert "o7 slot 0 unselected" in check_solution(base, unselected)
    assert "live t2 has no location" in check_solution(base, unplaced)


def test_overlapping_live_ranges_detected(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 0, 8: 0},  # t6 lands on R0 while t0 lives
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )
    errs = check_solution(base, bad)
    assert any("overlap" in e for e in errs)


def test_two_address_violation_detected(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 3, 8: 0},  # xor writes a third register
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )
    errs = check_solution(base, bad)
    assert any("two-address" in e for e in errs)


def test_result_register_violation_detected(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 2, 8: 2},
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )
    errs = check_solution(base, bad)
    assert any("result register" in e for e in errs)


def test_unselected_two_address_slot_reported(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 1, 8: 0},
        sels={(5, 0): 1, (7, 0): 0, (7, 1): 6, (9, 0): 8},  # o5[1] missing
    )
    assert "o5 slot 1 unselected" in check_solution(base, bad)


def test_spill_chain_violation_detected(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9, 11},  # o11 reloads t0's slot, its store o10 is off
        cycles={1: 0, 5: 1, 7: 2, 11: 3, 9: 4},
        regs={0: 0, 1: 1, 2: 2, 6: 1, 8: 0, 12: 3},
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (11, 0): 11, (9, 0): 8},
    )
    errs = check_solution(base, bad)
    assert "spill load o11 without its store" in errs


def test_mem_order_violation_detected():
    src = "func f width 4\nin t0:random\nstore 0, t0\nt1 = load 0\nout t1\n"
    model = build_base_model(parse_program(src), MINI, "none")
    bad = make_solution(
        model,
        active={1, 2, 3, 4},
        cycles={1: 0, 3: 1, 2: 3, 4: 4},  # the load overtakes the store
        regs={0: 0, 1: 1},
        sels={(2, 0): 0, (4, 0): 1},
    )
    errs = check_solution(model, bad)
    assert "memory order violated: o2 must precede o3" in errs


def test_preassign_arg_violation_detected(thumb_models):
    base, _, _ = thumb_models
    bad = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 3, 1: 1, 2: 2, 6: 1, 8: 0},  # t0 claimed outside R0
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )
    errs = check_solution(base, bad)
    assert "input t0 not in argument register 0" in errs


def test_checker_agrees_with_oracle_on_insecure_solutions():
    """The secure checker accepts exactly the solutions the oracle's walk keeps.

    Every insecure solution up to the insecure optimum + 1 of each oracle
    combo is judged twice: by `check_solution` on the secure model (with the
    implied family) and by membership in the oracle's secure enumeration.
    """
    from conftest import ORACLE_CASES
    from maskcc.oracle import brute_force, enumerate_all

    mismatches, messages, judged = [], [], 0
    for name, tgt, budget in ORACLE_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        opt, _ = brute_force(base)
        secure_keys = {s.sort_key() for s in enumerate_all(secure, opt + 1)}
        for sol in enumerate_all(base, opt + 1):
            errs = check_solution(secure, sol)
            judged += 1
            messages.extend(errs)
            if (errs == []) != (sol.sort_key() in secure_keys):
                mismatches.append((name, tgt, budget, sol.to_dict(), errs))
    assert mismatches == []
    assert judged > 1000
    for family in ("rpairs violated", "spairs: no hider", "secret input",
                   "mmpairs violated", "mspairs: no random", "implied-accumulator"):
        assert any(e.startswith(family) for e in messages), family


def test_empty_sets_leave_model_unchanged():
    base, secure, sets = build_models("allpub", "thumb-like", "none")
    assert sets.is_empty()
    assert [c for c in secure.constraints if c.kind == "security"] == []
    s_base, _ = enumerate_solutions(base, makespan_cap=3)
    s_sec, _ = enumerate_solutions(secure, makespan_cap=3)
    assert s_base == s_sec


@pytest.mark.parametrize(
    "case",
    [("xor_p0", "thumb-like", "none"), ("two_shares", "mini", "none"),
     ("sec_reload", "thumb-like", "reg"), ("mem_pair", "mini", "none")],
)
def test_implied_constraints_are_neutral(case):
    """Adding the implied family never removes a secure solution."""
    name, tgt, budget = case
    base, with_implied, sets = build_models(name, tgt, budget)
    plain = add_security_constraints(base, sets)
    from maskcc.solver import solve

    opt = solve(plain).solution
    cap = opt.objective + 1 if opt else 6
    plain_sols, _ = enumerate_solutions(plain, makespan_cap=cap)
    implied_sols, _ = enumerate_solutions(with_implied, makespan_cap=cap)
    assert {s.sort_key() for s in plain_sols} == {s.sort_key() for s in implied_sols}
    for sol in plain_sols:
        assert check_solution(with_implied, sol) == []


def test_two_address_allows_either_commutative_operand(thumb_models):
    """The destination may take either source register of a commutative op."""
    base, _, _ = thumb_models
    swapped = make_solution(
        base,
        active={1, 5, 7, 9},
        cycles={1: 0, 5: 1, 7: 2, 9: 3},
        regs={0: 0, 1: 1, 2: 2, 6: 2, 8: 0},  # result over the second operand
        sels={(5, 0): 1, (5, 1): 2, (7, 0): 0, (7, 1): 6, (9, 0): 8},
    )
    assert check_solution(base, swapped) == []


def test_dump_model_structure(thumb_models):
    base, _, sets = thumb_models
    d = dump_model(add_security_constraints(base, sets))
    assert d["program"] == "xor_p0"
    assert {c["kind"] for c in d["constraints"]} == {"base", "security"}
    assert any(c["family"] == "rpairs" for c in d["constraints"])
    ids = [o["id"] for o in d["operations"]]
    assert ids[:3] == ["o1", "o2", "o3"]


def test_multi_output_program_routes_first_output():
    from maskcc.leakage import linearize
    from maskcc.solver import solve

    src = (
        "func pairout width 4\nin t0:random t1:random\n"
        "t2 = xor t0, t1\nt3 = not t2\nout t2 t3\n"
    )
    model = build_base_model(parse_program(src), TARGETS["mips-like"], "none")
    out_op = next(o for o in model.program.ops if o.kind == "out")
    assert len(out_op.operands) == 2 and len(out_op.defs) == 2
    out = solve(model)
    assert out.status == "Optimal"
    h = linearize(model, out.solution)
    assert h.result_reg == 0  # first output lands in the result register


def test_solutions_hashable_and_ordered(thumb_models):
    base, _, _ = thumb_models
    a = plain_solution(base)
    b = hiding_solution(base)
    assert len({a, b, a}) == 2
    assert a.sort_key() < b.sort_key()
