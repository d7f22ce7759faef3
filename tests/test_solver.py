"""Solver behaviour: statuses, budgets, determinism, soundness."""

import copy
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (EQUIV_CASES, FIXTURE_SOURCES, MINI, ORACLE_CASES, QUAD, TARGETS,
                      build_models, narrow)
from maskcc.cli import front_end
from maskcc.ir import parse_program
from maskcc.model import ModelBuildError, build_base_model, check_solution, make_solution
from maskcc.oracle import brute_force
from maskcc.solver import SolveBudget, _Budget, _Searcher, enumerate_solutions, solve
from maskcc.target import PRESETS
from test_cli import chain_source
from test_stress import gen_kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_budget_requires_a_limit():
    with pytest.raises(ValueError):
        SolveBudget(seconds=None, nodes=None)


def test_xor_zero_overhead_on_thumb():
    base, secure, _ = build_models("xor_p0", "thumb-like", "full")
    ob, os_ = solve(base), solve(secure)
    assert ob.status == os_.status == "Optimal"
    assert ob.solution.objective == os_.solution.objective


def test_infeasible_names_spair_family():
    _, secure, _ = build_models("nohide", "thumb-like", "reg")
    out = solve(secure)
    assert out.status == "Infeasible"
    assert out.infeasible_family == "spairs"
    assert "t" in out.message


def test_infeasible_by_exhaustion():
    # without copies the final result cannot reach the return register securely
    _, secure, _ = build_models("goubin_mask", "thumb-like", "none")
    out = solve(secure)
    assert out.status == "Infeasible"
    assert out.solution is None


# One kernel per static spairs proof of `preflight_infeasible` (copy budget
# none): (target, source, a phrase of the proof's message). Each kernel's
# key has a hider, so the check for a key without one stays silent.
SPAIRS_PROOFS = {
    # t5 is hidden by t3 and t4 (enough for the count), but it is the output
    "secret output": ("mini", """
func secret_out width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
t4 = xor t0, t2
t5 = not t0
out t5
""", "is an output"),
    # on thumb-like `t4 = and t0, t1` writes key t4 over input t0 or t1;
    # only t3 and t5 hide it
    "two-address": ("thumb-like", """
func two_addr_key width 4
in t0:secret t1:random t2:random
t3 = xor t1, t2
t4 = and t0, t1
t5 = xor t4, t2
out t5
""", "two-address o3 writes secret temp t4"),
    # the sec_reload kernel without copies: key t2 has the one hider t3
    "hider count": ("mini", """
func hider_count width 4
in t0:secret t1:random
t2 = not t0
t3 = xor t2, t1
out t3
""", "need at least 2 random temps"),
}


@pytest.mark.parametrize("proof", SPAIRS_PROOFS)
def test_spairs_preflight_proofs(proof):
    target, src, says = SPAIRS_PROOFS[proof]
    base, _, secure = front_end(parse_program(src), TARGETS[target], "none")
    out = solve(secure)
    assert out.status == "Infeasible" and out.infeasible_family == "spairs"
    assert out.stats.nodes == 0 and says in out.message
    # the brute force judges hiding on complete schedules and agrees
    base_opt, _ = brute_force(base)
    assert base_opt is not None
    assert brute_force(secure, max_makespan=base_opt + 4) == (None, [])


# `t4 = and t3, t2` on two-address thumb-like writes t4 over t3 or t2, and
# both form an rpair with t4
TWO_ADDRESS_RPAIRS = """
func two_addr_rpairs width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
t4 = and t3, t2
out t4
"""

# The 2-share ISW AND (Ishai, Sahai, Wagner, CRYPTO 2003): a, b secret and
# ra, rb, r random; c0 = a0 b0 ^ ((r ^ a0 rb) ^ ra b0), c1 = ra rb ^ r over
# the shares a0 = a ^ ra, b0 = b ^ rb.
ISW2 = """
func isw2 width 8
in t0:secret t1:secret t2:random t3:random t4:random
t5 = xor t0, t2
t6 = xor t1, t3
t7 = and t5, t6
t8 = and t5, t3
t9 = and t2, t6
t10 = and t2, t3
t11 = xor t4, t8
t12 = xor t11, t9
t13 = xor t7, t12
t14 = xor t10, t4
out t13 t14
"""

# The 3-share ISW AND, width 8: a, b secret (t0, t1); the share randoms
# ra1, ra2, rb1, rb2 (t2-t5); the fresh randoms r01, r02, r12 (t6-t8).
# Shares a0 = (a ^ ra1) ^ ra2, a1 = ra1, a2 = ra2, likewise for b; the nine
# products ai bj in row order (t13-t21); then c0 = (a0b0 ^ r01) ^ r02,
# c1 = (a1b1 ^ ((r01 ^ a0b1) ^ a1b0)) ^ r12 and
# c2 = (a2b2 ^ ((r02 ^ a0b2) ^ a2b0)) ^ ((r12 ^ a1b2) ^ a2b1), one xor per
# line, innermost first.
ISW3 = """
func isw3 width 8
in t0:secret t1:secret t2:random t3:random t4:random t5:random t6:random t7:random t8:random
t9 = xor t0, t2
t10 = xor t9, t3
t11 = xor t1, t4
t12 = xor t11, t5
t13 = and t10, t12
t14 = and t10, t4
t15 = and t10, t5
t16 = and t2, t12
t17 = and t2, t4
t18 = and t2, t5
t19 = and t3, t12
t20 = and t3, t4
t21 = and t3, t5
t22 = xor t13, t6
t23 = xor t22, t7
t24 = xor t6, t14
t25 = xor t24, t16
t26 = xor t17, t25
t27 = xor t26, t8
t28 = xor t7, t15
t29 = xor t28, t19
t30 = xor t21, t29
t31 = xor t8, t18
t32 = xor t31, t20
t33 = xor t30, t32
out t23 t27 t33
"""


def test_two_address_rpairs_preflight_proof():
    base, _, secure = front_end(parse_program(TWO_ADDRESS_RPAIRS), PRESETS["thumb-like"],
                                "none")
    out = solve(secure)
    assert (out.status, out.infeasible_family, out.stats.nodes) == ("Infeasible", "rpairs", 0)
    assert "two-address o3 must write t4" in out.message
    # the brute force judges every overwrite on complete schedules and agrees
    base_opt, _ = brute_force(base)
    assert base_opt is not None
    assert brute_force(secure, max_makespan=base_opt + 4) == (None, [])


def _with_args(preset: str, n: int):
    t = PRESETS[preset]
    return replace(t, args=t.registers[:n])


def test_isw2_and_needs_three_address():
    """Each share product overwrites a share it forms an rpair with on
    thumb-like, which the search alone cannot see within 200k nodes."""
    budget = SolveBudget(seconds=None, nodes=200_000)
    _, _, secure = front_end(parse_program(ISW2), _with_args("thumb-like", 6), "reg")
    out = solve(secure, budget)
    assert (out.status, out.infeasible_family, out.stats.nodes) == ("Infeasible", "rpairs", 0)
    _, _, secure = front_end(parse_program(ISW2), _with_args("mips-like", 8), "reg")
    out = solve(secure, budget)
    assert (out.status, out.solution.objective, out.stats.nodes) == ("Optimal", 11, 90)


@pytest.mark.parametrize("copies", ["none", "reg"])
def test_isw3_and_reaches_its_bound(copies):
    """Without the result-register rule checked as each value is placed,
    every walk places c0 outside the result register early and learns it
    only at the leaves: 200k nodes end in a Timeout. 26 is the subset's
    lower bound (25 ops and the out op), so the first leaf is optimal."""
    base, _, secure = front_end(parse_program(ISW3), _with_args("mips-like", 10), copies)
    for model in (base, secure):
        out = solve(model, SolveBudget(seconds=None, nodes=200_000))
        assert (out.status, out.solution.objective) == ("Optimal", 26)
        assert out.stats.nodes < 1000


def test_node_limit_one_times_out():
    base, _, _ = build_models("xor_p0", "thumb-like", "full")
    out = solve(base, SolveBudget(seconds=None, nodes=1))
    assert out.status == "Timeout"
    assert out.solution is None


def test_determinism_under_node_budget():
    _, secure, _ = build_models("goubin_mask", "thumb-like", "reg")
    runs = [solve(secure, SolveBudget(seconds=None, nodes=5000)) for _ in range(3)]
    assert len({r.status for r in runs}) == 1
    assert len({r.stats.nodes for r in runs}) == 1
    dumps = {r.solution.sort_key() for r in runs if r.solution}
    assert len(dumps) <= 1


def test_every_solution_passes_independent_check():
    for name, tgt, budget in EQUIV_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        for model in (base, secure):
            out = solve(model, SolveBudget(seconds=120))
            if out.solution is not None:
                assert check_solution(model, out.solution) == [], (name, tgt)


def test_secure_optimum_never_beats_insecure():
    for name, tgt, budget in ORACLE_CASES + EQUIV_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        ob = solve(base, SolveBudget(seconds=120))
        os_ = solve(secure, SolveBudget(seconds=120))
        if ob.solution is None or os_.solution is None:
            continue
        assert os_.solution.objective >= ob.solution.objective, (name, tgt)


def test_enumerate_counts_and_cap():
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    sols, truncated = enumerate_solutions(base, makespan_cap=3)
    assert len(sols) == 2 and not truncated
    # the base model admits both destructive placements of the first xor
    assert {s.reg_of(3) for s in sols} == {1, 2}
    capped, truncated = enumerate_solutions(base, cap=1, makespan_cap=3)
    assert len(capped) == 1 and truncated


def test_secure_model_forces_operand_swap():
    """On a two-address machine the first xor must land on the key's register."""
    _, secure, _ = build_models("xor_p0", "thumb-like", "none")
    sols, _ = enumerate_solutions(secure, makespan_cap=3)
    assert len(sols) == 1
    assert sols[0].reg_of(3) == 2  # over the key, never over the mask


def test_enumerate_canonical_order_stable():
    base, _, _ = build_models("xor_p0", "mips-like", "none")
    a, _ = enumerate_solutions(base, makespan_cap=3)
    b, _ = enumerate_solutions(base, makespan_cap=3)
    assert [s.sort_key() for s in a] == [s.sort_key() for s in b]
    assert all(x.sort_key() <= y.sort_key() for x, y in zip(a, a[1:]))


def test_enumerate_infeasible_model_is_empty():
    _, secure, _ = build_models("nohide", "thumb-like", "reg")
    sols, truncated = enumerate_solutions(secure, makespan_cap=10)
    assert sols == [] and not truncated


def test_pinned_register_is_respected():
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    pinned = narrow(base, {3: 1})  # first xor lands on the mask's register
    out = solve(pinned)
    assert out.status == "Optimal"
    assert out.solution.reg_of(3) == 1
    assert check_solution(pinned, out.solution) == []


def test_input_domain_without_argument_register_is_infeasible():
    from maskcc.oracle import brute_force

    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    model = narrow(base, {0: 3})  # t0 arrives in R0
    out = solve(model)
    assert out.status == "Infeasible" and out.infeasible_family == "preassign-arg"
    assert brute_force(model) == (None, [])


def test_literal_only_two_address_op_is_placed():
    """`t1 = xor 3, 5` has no temp operand to overwrite, so on a two-address
    target any register may take its result."""
    from maskcc.oracle import brute_force

    base, secure, _ = build_models("lit_xor", "thumb-like", "none")
    for model in (base, secure):
        out = solve(model)
        assert out.status == "Optimal" and out.solution.objective == 2
        optimum, sols = brute_force(model)
        assert optimum == 2 and out.solution in sols


def test_walk_depth_does_not_grow_the_python_stack():
    """The walk keeps its own stack: a 500-op solve fits in a recursion limit
    of 60 frames above the caller's."""
    model = front_end(parse_program(chain_source(500)), PRESETS["mips-like"], "none")[0]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        out = solve(model, SolveBudget(seconds=None, nodes=20000))
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "Optimal" and out.solution.objective == 501


def test_literal_operands_supported():
    from maskcc.ir import parse_program
    from maskcc.leakage import linearize, simulate
    from maskcc.model import build_base_model
    from maskcc.target import PRESETS

    src = (
        "func lit width 4\nin t0:random\n"
        "t1 = xor t0, 0x5\nt2 = add t1, 3\nout t2\n"
    )
    model = build_base_model(parse_program(src), PRESETS["thumb-like"])
    out = solve(model)
    assert out.status == "Optimal"
    h = linearize(model, out.solution)
    st, _ = simulate(h.instrs, 4, h.initial_regs({0: 0xA}))
    assert st.regs[h.result_reg] == ((0xA ^ 0x5) + 3) & 0xF


def test_solver_stats_populated():
    base, _, _ = build_models("goubin_mask", "thumb-like", "reg")
    out = solve(base)
    assert out.stats.nodes > 0
    assert out.stats.leaves >= 1
    assert out.stats.wall_time >= 0


WALK_FIELDS = ("issued", "last_cycle", "ready_at", "loc_of", "occupant", "assigned",
               "sels", "last_mem", "key")


class _CheckedSearcher(_Searcher):
    """A searcher that asserts each walk leaves the state as it found it."""

    walks = 0

    def _walk(self):
        before = {f: copy.deepcopy(getattr(self, f)) for f in WALK_FIELDS + ("active", "order")}
        yield from super()._walk()
        assert {f: getattr(self, f) for f in before} == before
        self.walks += 1


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_walk_state_restored_after_search(enumerate_all):
    """Every issue undoes its own changes, so all subsets share one walk state.

    On mem_secret (thumb-like, reg) the exhaustive search overwrites
    registers, issues memory ops and leaves spairs and mspairs keys pending.
    `active` and `order` (the same subset, sorted) are left out of the
    run-level comparison: `run` sets them to each subset in turn.
    """
    _, secure, _ = build_models("mem_secret", "thumb-like", "reg")
    assert secure.security.spairs and secure.security.mspairs
    s = _CheckedSearcher(secure, SolveBudget(seconds=None, nodes=10**6),
                         enumerate_all=enumerate_all,
                         makespan_cap=8 if enumerate_all else None)
    before = {f: copy.deepcopy(getattr(s, f)) for f in WALK_FIELDS}
    assert before["loc_of"] and before["issued"]  # inputs sit in argument registers
    assert len(vars(s)) < 30  # see the note on _Searcher
    s.run()
    assert s.stats.nodes < 10**6
    assert s.stats.propagations > 0 and s.stats.leaves > 0 and s.walks > 0
    assert {f: getattr(s, f) for f in WALK_FIELDS} == before


# The search itself is pinned: a change that only claims to make nodes cheaper
# must reproduce these counts exactly. Rows: ladder (gen seed, body ops) ->
# (status, objective, nodes, propagations, leaves), solved as the `ladder`
# benchmark workload does (thumb-like, full copies, secure, 15k nodes).
LADDER_COUNTS = {
    (0, 3): ("Infeasible", None, 0, 0, 0),
    (0, 5): ("Infeasible", None, 0, 0, 0),
    (0, 7): ("Optimal", 10, 2545, 1968, 1),
    (0, 9): ("Optimal", 12, 2495, 4861, 1),
    (0, 12): ("Infeasible", None, 0, 0, 0),
    (1, 3): ("Optimal", 5, 37, 48, 1),
    (1, 5): ("Infeasible", None, 0, 0, 0),
    (1, 7): ("Optimal", 10, 14909, 19248, 1),
    (1, 9): ("Infeasible", None, 0, 0, 0),
    (1, 12): ("Infeasible", None, 0, 0, 0),
    (2, 3): ("Optimal", 4, 6, 4, 1),
    (2, 5): ("Infeasible", None, 0, 0, 0),
    (2, 7): ("Infeasible", None, 0, 0, 0),
    (2, 9): ("Optimal", 12, 6021, 10683, 1),
    (2, 12): ("Infeasible", None, 0, 0, 0),
    (3, 3): ("Infeasible", None, 0, 0, 0),
    (3, 5): ("Infeasible", None, 0, 0, 0),
    (3, 7): ("Infeasible", None, 0, 0, 0),
    (3, 9): ("Infeasible", None, 0, 0, 0),
    (3, 12): ("Infeasible", None, 0, 0, 0),
}

# (fixture, target, copy budget, secure?, makespan cap) ->
# (solutions, nodes, propagations, leaves) in enumerate mode
ENUMERATE_COUNTS = {
    ("xor_p0", "mips-like", "none", False, 4): (15, 32, 1, 15),
    ("xor_p0", "mips-like", "none", True, 4): (14, 30, 2, 14),
    ("xor_p0", "thumb-like", "reg", False, 4): (156, 309, 35, 156),
    ("xor_p0", "thumb-like", "reg", True, 4): (57, 130, 113, 57),
    ("secmult_gf", "quad", "reg", False, 4): (110, 227, 57, 110),
    ("secmult_gf", "quad", "reg", True, 6): (25, 411, 1217, 25),
    ("sec_reload", "quad", "reg", False, 4): (103, 208, 46, 103),
    ("sec_reload", "quad", "reg", True, 6): (4, 148, 412, 4),
    ("mem_secret", "mini", "reg", False, 7): (1023, 10546, 3851, 1023),
    ("mem_secret", "mini", "reg", True, 7): (9, 419, 607, 9),
    ("mem_pair", "mini", "none", False, 7): (32, 135, 15, 32),
    ("mem_pair", "mini", "none", True, 7): (12, 85, 31, 12),
    ("nohide", "thumb-like", "reg", False, 3): (31, 54, 16, 31),
    ("nohide", "thumb-like", "reg", True, 8): (0, 10, 48, 0),
}


def test_ladder_search_counts_pinned():
    got = {}
    for seed, n_ops in LADDER_COUNTS:
        prog = parse_program(workloads.ladder_kernel(seed, n_ops))
        _, _, secure = front_end(prog, PRESETS["thumb-like"], "full")
        out = solve(secure, SolveBudget(seconds=None, nodes=workloads.LADDER_NODES))
        st = out.stats
        got[seed, n_ops] = (out.status, out.solution and out.solution.objective,
                            st.nodes, st.propagations, st.leaves)
    assert got == LADDER_COUNTS


def test_enumerate_search_counts_pinned():
    got = {}
    for name, tgt, budget, secure, cap in ENUMERATE_COUNTS:
        base, sec_model, _ = build_models(name, tgt, budget)
        s = _Searcher(sec_model if secure else base, SolveBudget(seconds=600.0),
                      enumerate_all=True, cap=100000, makespan_cap=cap)
        s.run()
        st = s.stats
        got[name, tgt, budget, secure, cap] = (len(s.solutions), st.nodes,
                                               st.propagations, st.leaves)
    assert got == ENUMERATE_COUNTS


class _FullScanSearcher(_Searcher):
    """Checks each clobber-local satisfiability test against a full scan.

    `_walk` asks before op `o` commits, so the full scan models the state
    after the issue: the pending ops minus `o`, and the temps in place
    minus `lost` plus `o`'s definition. It asks of every operand slot of
    every pending op whether one alt is in place or defined by a pending
    op. `by_pending_def` counts the clobbers that some slot survives only
    through a pending definition (a spill load whose store has issued, say).
    """

    checks = 0
    by_pending_def = 0

    def _still_satisfiable(self, lost, o):
        local = super()._still_satisfiable(lost, o)
        prog = self.model.program
        pending = self.active - self.issued.keys() - {o}
        in_place = (self.loc_of.keys() - {lost}) | {self.facts[o].d}
        slots = [slot.alts for p in pending for _i, slot in prog.op(p).temp_slots()]
        full = all(
            any(t in in_place or prog.temps[t].defined_by in pending for t in alts)
            for alts in slots
        )
        assert local == full, (lost, o, sorted(self.issued))
        self.checks += 1
        if full and not all(any(t in in_place for t in alts) for alts in slots):
            self.by_pending_def += 1
        return local


def _full_scan_models():
    """Every fixture on thumb-like (none/reg/full) and, with spills, on mini,
    plus some generated kernels; base and secure models each."""
    for name in FIXTURE_SOURCES:
        for target, budget in [("thumb-like", b) for b in ("none", "reg", "full")] + [
            ("mini", "full")
        ]:
            try:
                base, secure, _ = build_models(name, target, budget)
            except ModelBuildError:
                continue
            yield from (base, secure)
    for seed in range(0, 200, 7):
        prog = parse_program(gen_kernel(random.Random(1000 + seed), seed, seed % 3 == 0))
        try:
            base, _, secure = front_end(prog, QUAD if seed % 2 else MINI, "reg")
        except ModelBuildError:
            continue
        yield from (base, secure)


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_clobber_local_check_matches_full_scan(enumerate_all):
    checks = by_pending_def = 0
    for model in _full_scan_models():
        s = _FullScanSearcher(model, SolveBudget(seconds=None, nodes=2000),
                              enumerate_all=enumerate_all)
        try:
            s.run()
        except _Budget:  # the node budget ends most searches
            pass
        checks += s.checks
        by_pending_def += s.by_pending_def
    assert checks > 1000 and by_pending_def > 0


class _ResultScanSearcher(_Searcher):
    """Checks each result-register verdict against a full scan.

    `_walk` asks `_result_lost` before op `o` commits a write that the rule
    puts at stake: an alt of the first output written outside the result
    register, or a temp that is no alt written into it. The full scan
    models the state after such a write: the pending ops minus `o`, and the
    result register holding its old occupant or `o`'s definition. The rule
    is lost when no alt of the first output is intact there and none is
    defined by a pending active op. `rejected` counts the writes cut.
    """

    checks = 0
    rejected = 0

    def _result_lost(self, o, rule):
        local = super()._result_lost(o, rule)
        prog = self.model.program
        first = next(slot.alts for _i, slot in prog.out_op.temp_slots())
        d = prog.op(o).defs[0]
        pending = self.active - self.issued.keys() - {o}
        in_result = self.occupant.get(self.result_reg) if d in first else d
        full = in_result not in first and not any(
            prog.temps[t].defined_by in pending for t in first)
        assert local == full, (o, sorted(self.issued))
        self.checks += 1
        self.rejected += local
        return local


def _result_rule_models():
    """The `ORACLE_CASES` (base and secure) and the `LADDER_COUNTS` kernels."""
    for name, target, copies in ORACLE_CASES:
        base, secure, _ = build_models(name, target, copies)
        yield from (base, secure)
    for seed, n_ops in LADDER_COUNTS:
        yield front_end(parse_program(workloads.ladder_kernel(seed, n_ops)),
                        PRESETS["thumb-like"], "full")[2]


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_result_register_cut_matches_full_scan(enumerate_all):
    checks = rejected = prunes = 0
    for model in _result_rule_models():
        s = _ResultScanSearcher(model, SolveBudget(seconds=None, nodes=3000),
                                enumerate_all=enumerate_all)
        try:
            s.run()
        except _Budget:
            pass
        checks += s.checks
        rejected += s.rejected
        prunes += s.stats.result_prunes
    assert checks > rejected > 0 and prunes > 0


class _LeafCheckSearcher(_Searcher):
    """Checks each leaf verdict against `check_solution`.

    The walk keeps no pending keys: `_leaf` rejects a complete walk that
    leaves an spairs key in place or an mspairs key last on the bus. That
    must be exactly the complete walks whose solution breaks some rule.
    """

    checked = 0
    rejected = 0

    def _leaf(self):
        sol = make_solution(self.model, self.active, self.issued, self.assigned, self.sels)
        errs = check_solution(self.model, sol)
        leaves = self.stats.leaves
        super()._leaf()
        accepted = self.stats.leaves > leaves
        assert accepted == (not errs), (errs, sorted(self.issued))
        self.checked += 1
        self.rejected += not accepted


def _leaf_check_models():
    """The secure `ORACLE_CASES`, xor_p0 spilled on mini (complete walks that
    end on an mspairs key) and small ladder kernels (thumb-like, full)."""
    for name, target, copies in ORACLE_CASES + [("xor_p0", "mini", "full")]:
        yield build_models(name, target, copies)[1]
    for seed in range(4):
        for n_ops in (3, 5, 7, 9):
            yield front_end(parse_program(workloads.ladder_kernel(seed, n_ops)),
                            PRESETS["thumb-like"], "full")[2]


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_leaf_verdict_matches_check_solution(enumerate_all):
    checked = rejected = 0
    for model in _leaf_check_models():
        s = _LeafCheckSearcher(model, SolveBudget(seconds=None, nodes=3000),
                               enumerate_all=enumerate_all)
        try:
            s.run()
        except _Budget:
            pass
        checked += s.checked
        rejected += s.rejected
    assert checked > rejected > 0


def _unpruned_best(model, budget):
    """The incumbent of the search without the transposition table and the
    fresh-location symmetry, and whether that search finished."""
    s = _Searcher(model, budget)
    s.table, s.symmetric = None, False
    try:
        s.run()
    except _Budget:
        return s.best, False
    return s.best, True


def test_prunes_keep_every_optimum_and_returned_solution():
    """The first optimal leaf in search order survives both prunes, so
    `solve` returns exactly the solution of the unpruned search."""
    budget = SolveBudget(seconds=None, nodes=200_000)
    models = []
    combos = [(t, c) for t in ("thumb-like", "mips-like") for c in ("none", "reg")]
    combos += [("mini", c) for c in ("none", "reg", "full")]  # mini forces spills
    for name in FIXTURE_SOURCES:
        for target, copies in combos:
            try:
                base, secure, _ = build_models(name, target, copies)
            except ModelBuildError:
                continue
            models += [base, secure]
    for seed, n_ops in [(1, 3), (2, 3)]:
        models.append(front_end(parse_program(workloads.ladder_kernel(seed, n_ops)),
                                PRESETS["thumb-like"], "full")[2])
    pruned = 0
    for model in models:
        out = solve(model, budget)
        best, exhausted = _unpruned_best(model, budget)
        assert exhausted and out.status in ("Optimal", "Infeasible")
        assert out.solution == best
        pruned += out.stats.table_prunes + out.stats.symmetry_skips
    assert pruned > 0


def test_narrowed_domain_turns_symmetry_off():
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    budget = SolveBudget(seconds=None, nodes=1000)
    assert _Searcher(base, budget).symmetric
    assert not _Searcher(narrow(base, {3: 1}), budget).symmetric
    # enumerate mode keeps every renaming, and every revisit
    enum = _Searcher(base, budget, enumerate_all=True)
    assert not enum.symmetric and enum.table is None


def _recomputed_key(s):
    """The Zobrist key of the searcher's state, built from scratch."""
    w = s.words
    key = 0
    for loc, t in s.occupant.items():
        key ^= w.place[loc][t]
    for o in s.issued:
        key ^= w.issued[o]
    if s.last_mem is not None:
        key ^= w.last_mem[s.last_mem]
    return key


def _probed_keys(model):
    """Each key the transposition table is probed with, checked against a
    recomputation from the state."""
    keys = []

    class Logged(_Searcher):
        def _unseen(self):
            assert self.key == _recomputed_key(self)
            keys.append(self.key)
            return super()._unseen()

    s = Logged(model, SolveBudget(seconds=None, nodes=20_000))
    s.run()
    return keys, s.stats.table_prunes


def test_zobrist_keys_are_incremental_and_reproducible():
    _, secure, _ = build_models("goubin_mask", "mini", "full")
    keys, prunes = _probed_keys(secure)
    again, _ = _probed_keys(secure)
    assert keys == again  # the words come from a fixed seed
    assert len(set(keys)) > 50 and prunes > 0


def test_empty_result_register_is_not_folded_into_fresh_registers():
    """With fewer inputs than argument registers, a result register after
    the inputs starts empty. It is special (the result must end there), so
    symmetry tries it beside the lowest fresh register."""
    target = replace(PRESETS["thumb-like"], result="R3")
    src = "func r3 width 4\nin t0:random t1:random\nt2 = not t0\nout t2\n"
    model = build_base_model(parse_program(src), target, copy_budget="none")
    assert _Searcher(model, SolveBudget()).symmetric
    out = solve(model)
    optimum, sols = brute_force(model)
    assert out.status == "Optimal" and out.solution.objective == optimum
    assert out.solution in sols
