"""Solver behaviour: statuses, budgets, determinism, soundness."""

import copy
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import EQUIV_CASES, FIXTURE_SOURCES, MINI, ORACLE_CASES, QUAD, build_models, narrow
from maskcc.cli import front_end
from maskcc.ir import parse_program
from maskcc.model import ModelBuildError, build_base_model, check_solution
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
               "sels", "last_mem", "s_pending", "ms_pending", "key")


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
    (0, 7): ("Optimal", 10, 3521, 2925, 1),
    (0, 9): ("Optimal", 12, 3247, 6862, 1),
    (0, 12): ("Timeout", None, 15001, 33084, 0),
    (1, 3): ("Optimal", 5, 47, 67, 1),
    (1, 5): ("Timeout", None, 15001, 40567, 0),
    (1, 7): ("Timeout", None, 15001, 23414, 0),
    (1, 9): ("Timeout", None, 15001, 56895, 0),
    (1, 12): ("Infeasible", None, 0, 0, 0),
    (2, 3): ("Optimal", 4, 6, 5, 1),
    (2, 5): ("Timeout", None, 15001, 33210, 0),
    (2, 7): ("Timeout", None, 15001, 33093, 0),
    (2, 9): ("Optimal", 12, 7229, 12527, 1),
    (2, 12): ("Infeasible", None, 0, 0, 0),
    (3, 3): ("Timeout", None, 15001, 25698, 0),
    (3, 5): ("Timeout", None, 15001, 26460, 0),
    (3, 7): ("Timeout", None, 15001, 46977, 0),
    (3, 9): ("Timeout", None, 15001, 26201, 0),
    (3, 12): ("Timeout", None, 15001, 43855, 0),
}

# (fixture, target, copy budget, secure?, makespan cap) ->
# (solutions, nodes, propagations, leaves) in enumerate mode
ENUMERATE_COUNTS = {
    ("xor_p0", "mips-like", "none", False, 4): (15, 257, 226, 15),
    ("xor_p0", "mips-like", "none", True, 4): (14, 212, 212, 14),
    ("xor_p0", "thumb-like", "reg", False, 4): (156, 509, 253, 156),
    ("xor_p0", "thumb-like", "reg", True, 4): (57, 141, 124, 57),
    ("secmult_gf", "quad", "reg", False, 4): (110, 550, 412, 110),
    ("secmult_gf", "quad", "reg", True, 6): (25, 500, 1419, 25),
    ("sec_reload", "quad", "reg", False, 4): (103, 512, 378, 103),
    ("sec_reload", "quad", "reg", True, 6): (4, 182, 492, 4),
    ("mem_secret", "mini", "reg", False, 7): (1023, 18749, 11979, 1023),
    ("mem_secret", "mini", "reg", True, 7): (9, 466, 668, 9),
    ("mem_pair", "mini", "none", False, 7): (32, 254, 111, 32),
    ("mem_pair", "mini", "none", True, 7): (12, 155, 91, 12),
    ("nohide", "thumb-like", "reg", False, 3): (31, 271, 275, 31),
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

    The full scan asks of every operand slot of every pending op whether
    one alt is in place or defined by a pending op. `by_pending_def` counts
    the clobbers that some slot survives only through a pending definition
    (a spill load whose store has issued, say).
    """

    checks = 0
    by_pending_def = 0

    def _still_satisfiable(self, lost):
        local = super()._still_satisfiable(lost)
        prog, pending = self.model.program, self.active - self.issued.keys()
        slots = [slot.alts for o in pending for _i, slot in prog.op(o).temp_slots()]
        full = all(
            any(t in self.loc_of or prog.temps[t].defined_by in pending for t in alts)
            for alts in slots
        )
        assert local == full, (lost, sorted(self.issued))
        self.checks += 1
        if full and not all(any(t in self.loc_of for t in alts) for alts in slots):
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
    for t in s.s_pending:
        key ^= w.s_pending[t]
    for o in s.ms_pending:
        key ^= w.ms_pending[o]
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
