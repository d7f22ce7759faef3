"""Solver behaviour: statuses, budgets, determinism, soundness."""

import copy

import pytest

from conftest import EQUIV_CASES, ORACLE_CASES, build_models, narrow
from maskcc.model import check_solution
from maskcc.solver import SolveBudget, _Searcher, enumerate_solutions, solve


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
               "sels", "last_mem", "s_pending", "ms_pending")


class _CheckedSearcher(_Searcher):
    """A searcher that asserts each walk leaves the state as it found it."""

    walks = 0

    def _walk(self):
        before = {f: copy.deepcopy(getattr(self, f)) for f in WALK_FIELDS + ("active",)}
        super()._walk()
        assert {f: getattr(self, f) for f in before} == before
        self.walks += 1


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_walk_state_restored_after_search(enumerate_all):
    """Every issue undoes its own changes, so all subsets share one walk state.

    On mem_secret (thumb-like, reg) the exhaustive search overwrites
    registers, issues memory ops and leaves spairs and mspairs keys pending.
    `active` is left out of the run-level comparison: `run` sets it to each
    subset in turn.
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
