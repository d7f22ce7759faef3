"""Brute-force cross-validation of the solver and the subsequence algebra."""

import functools
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import FIXTURE_SOURCES, ORACLE_CASES, TARGETS, build_models
from maskcc import oracle
from maskcc.cli import front_end, main
from maskcc.ir import parse_program
from maskcc.leakage import check_equivalence, linearize
from maskcc.model import SolutionView, check_solution
from maskcc.oracle import (
    OracleError,
    brute_force,
    compare_with_solver,
    enumerate_all,
    trace_msubseq,
    trace_subseq,
)
from maskcc.solver import SolveBudget, enumerate_solutions, solve
from maskcc.target import PRESETS, OpInfo


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name, tgt, budget in ORACLE_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        out[(name, tgt, budget)] = (
            base,
            secure,
            compare_with_solver(base, secure, op_bound=8, count_slack=1),
        )
    return out


@pytest.fixture(scope="module")
def solutions(reports):
    """`enumerate_all` of a combo's "base" or "secure" model up to a makespan.

    Each (combo, model, makespan) is walked once in this module.
    """

    @functools.cache
    def enumerate_(key, which, makespan):
        base, secure, _ = reports[key]
        return tuple(enumerate_all(base if which == "base" else secure, makespan, op_bound=8))

    return enumerate_


def test_no_discrepancies_vs_solver(reports):
    for key, (_b, _s, rep) in reports.items():
        assert rep.discrepancies == [], (key, rep.discrepancies)


def test_xor_zero_overhead_confirmed_by_oracle(reports):
    for tgt in ("thumb-like", "mips-like"):
        rep = reports[("xor_p0", tgt, "none")][2]
        assert rep.insecure_optimum == rep.secure_optimum == 3


def test_oracle_full_budget_running_example():
    """Iterative deepening keeps the full copy budget tractable at the optimum."""
    base, secure, _ = build_models("xor_p0", "thumb-like", "full")
    opt_b, _ = brute_force(base, op_bound=8)
    opt_s, sols = brute_force(secure, op_bound=8)
    assert opt_b == opt_s == 3
    assert len(sols) == 1


def test_infeasible_model_has_zero_solutions(monkeypatch):
    """nohide's secure levels 2 and 3 cut by makespan; level 4 cuts nothing,
    so no deeper level (up to `maxc` 10) is walked."""
    _, secure, _ = build_models("nohide", "thumb-like", "reg")
    walked = []
    enumerate_level = oracle._enumerate_level

    def spy(model, level, limit):
        sols, work, cut = enumerate_level(model, level, limit)
        walked.append((level, cut))
        return sols, work, cut

    monkeypatch.setattr(oracle, "_enumerate_level", spy)
    assert secure.maxc == 10
    assert brute_force(secure, op_bound=8) == (None, [])
    assert walked == [(2, True), (3, True), (4, False)]


def test_op_bound_enforced():
    base, _, _ = build_models("spill_force", "mini", "full")
    with pytest.raises(OracleError):
        brute_force(base, op_bound=6)  # seven mandatory operations


def test_work_limit_raises(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oracle, "WORK_LIMIT", 5)
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    with pytest.raises(OracleError, match="exceeds the oracle work limit"):
        brute_force(base, op_bound=8)
    path = tmp_path / "xor_p0.ir"
    path.write_text(FIXTURE_SOURCES["xor_p0"])
    rc = main(["oracle", str(path), "--target", "thumb-like", "--copy-budget", "none"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert re.fullmatch(
        r"error: enumeration at makespan \d+ exceeds the oracle work limit; "
        r"the model is too large for brute force\n",
        err,
    )


PTR_STORE = Path(__file__).parents[1] / "kernels" / "ptr_store.ir"


def test_work_limit_shared_and_predicted(monkeypatch):
    """Levels share one budget, and a level predicted past it is never walked.

    ptr_store's secure levels 6 and 7 (thumb-like, reg) take 1991 and 19653
    selections, so level 8 is predicted at 19653 * 19653 / 1991 (it takes
    55695).
    """
    _, _, secure = front_end(parse_program(PTR_STORE.read_text()), PRESETS["thumb-like"], "reg")
    walked = []
    enumerate_level = oracle._enumerate_level

    def spy(model, level, limit):
        walked.append((level, limit))
        return enumerate_level(model, level, limit)

    monkeypatch.setattr(oracle, "_enumerate_level", spy)
    monkeypatch.setattr(oracle, "WORK_LIMIT", 100_000)
    with pytest.raises(OracleError, match=r"makespan 8 would exceed the oracle work "
                       r"limit: about 193993 operand selections predicted, 78263 left"):
        brute_force(secure)
    assert walked == [(4, 100_000), (5, 99_998), (6, 99_907), (7, 97_916)]


def test_oracle_gives_up_before_the_costly_level(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "WORK_LIMIT", 20_000)
    rc = main(["oracle", str(PTR_STORE), "--target", "thumb-like", "--copy-budget", "reg"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: enumeration at makespan 7 would exceed the oracle work limit")


def test_oracle_completes_ptr_store(capsys):
    """Pruned at each transition, the secure walk of ptr_store ends within the
    default limit: its makespan 9 cuts nothing and finds nothing."""
    rc = main(["oracle", str(PTR_STORE), "--target", "thumb-like", "--copy-budget", "reg"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["discrepancies"] == []
    assert (rep["insecure_count"], rep["secure_optimum"], rep["secure_count"]) == (30, None, 0)


# (fixture, target, budget) -> (base, secure), each (optimum, optimal solutions,
# lower bound, operand selections tried at each level from the lower bound up
# to optimum + 1, or on an infeasible model up to the lower bound + 2 or the
# first level that cuts nothing)
BRUTE_FORCE_WORK = {
    ("xor_p0", "thumb-like", "none"): ((3, 2, 3, (7, 7)), (3, 1, 3, (3, 3))),
    ("xor_p0", "mips-like", "none"): ((3, 15, 3, (256, 256)), (3, 14, 3, (211, 211))),
    ("xor_p0", "thumb-like", "reg"): ((3, 2, 3, (7, 581)), (3, 1, 3, (3, 164))),
    ("goubin_mask", "quad", "none"): ((5, 12, 5, (74, 74)), (5, 4, 5, (26, 26))),
    ("secmult_gf", "quad", "reg"): ((3, 3, 3, (16, 605)), (5, 2, 3, (1, 20, 166, 728))),
    ("arith_mask", "quad", "reg"): ((3, 3, 3, (16, 605)), (5, 2, 3, (1, 20, 166, 728))),
    ("sec_reload", "quad", "reg"): ((3, 3, 3, (16, 566)), (5, 4, 3, (1, 18, 98, 209))),
    ("two_shares", "mini", "none"): ((4, 2, 4, (11, 11)), (4, 1, 4, (7, 7))),
    ("mem_secret", "mini", "reg"): ((6, 41, 5, (54, 1770, 21445)), (6, 2, 5, (6, 84, 499))),
    ("mem_pair", "mini", "none"): ((6, 12, 6, (287, 287)), (6, 7, 6, (147, 147))),
    ("roundtrip", "mini", "none"): ((5, 2, 5, (30, 60)), (5, 2, 5, (30, 60))),
    ("allpub", "thumb-like", "none"): ((3, 1, 3, (4, 4)), (3, 1, 3, (4, 4))),
    ("identity", "thumb-like", "none"): ((1, 1, 1, (1, 1)), (1, 1, 1, (1, 1))),
    ("nohide", "thumb-like", "reg"): ((2, 1, 2, (9, 331)), (None, 0, 2, (1, 4, 6))),
    ("lit_xor", "thumb-like", "none"): ((2, 1, 2, (9, 9)), (2, 1, 2, (9, 9))),
}


def test_brute_force_work_pinned(monkeypatch):
    """Optima, optimal counts and per-level work of every oracle combo.

    Work counts every operand selection tried, so it pins the space walked
    and the selections taken beyond the solution sets, and with them the
    levels at which `OracleError` is predicted or raised.
    """
    walked = []
    enumerate_level = oracle._enumerate_level

    def spy(model, level, limit):
        sols, work, cut = enumerate_level(model, level, limit)
        walked.append(work)
        return sols, work, cut

    monkeypatch.setattr(oracle, "_enumerate_level", spy)
    assert sorted(BRUTE_FORCE_WORK) == sorted(ORACLE_CASES)
    for key, pinned in BRUTE_FORCE_WORK.items():
        base, secure, _ = build_models(*key)
        for model, (opt, count, lb, works) in zip((base, secure), pinned):
            walked.clear()
            got_opt, sols = brute_force(model, op_bound=8, max_makespan=lb + 2)
            if got_opt is not None:
                oracle._enumerate_level(model, got_opt + 1, oracle.WORK_LIMIT)
            assert (got_opt, len(sols), tuple(walked)) == (opt, count, works), key


def test_slack_zero_walks_each_level_once(monkeypatch):
    """At slack 0 the optimum's walk is also the enumeration compared."""
    base, secure, _ = build_models("sec_reload", "quad", "reg")
    walked = []
    enumerate_level = oracle._enumerate_level

    def spy(model, level, limit):
        walked.append((id(model), level))
        return enumerate_level(model, level, limit)

    monkeypatch.setattr(oracle, "_enumerate_level", spy)
    rep = compare_with_solver(base, secure, op_bound=8, count_slack=0)
    assert rep.discrepancies == []
    assert (rep.insecure_count, rep.secure_count) == (3, 4)
    assert len(walked) == len(set(walked)) == 4  # base level 3, secure levels 3-5


def leaf_secure(secure, sols):
    """Sort keys of the solutions `_security_ok` accepts, judged from the
    traced overwrite pairs, the memory operations in cycle order and the
    temps placed in registers."""
    nregs = secure.target.num_registers
    kept = set()
    for sol in sols:
        cycles = dict(sol.cycles)
        mems = sorted((o for o in sol.active if secure.program.op(o).is_memory), key=cycles.get)
        written = {t for t, loc in sol.regs if loc < nregs}
        if oracle._security_ok(secure.security, trace_subseq(secure, sol), mems, written):
            kept.add(sol.sort_key())
    return kept


def test_transition_prunes_keep_exactly_the_secure_base_solutions(reports, solutions):
    """The secure walk, pruned as each transition forms, finds exactly the
    base solutions that `_security_ok` accepts as complete candidates.

    Checked at the pinned secure optimum, or at the base optimum + 1 when
    the secure model is infeasible.
    """
    for key, (_base, secure, _rep) in reports.items():
        (base_opt, *_), (secure_opt, *_) = BRUTE_FORCE_WORK[key]
        level = secure_opt if secure_opt is not None else base_opt + 1
        got = {s.sort_key() for s in solutions(key, "secure", level)}
        assert got == leaf_secure(secure, solutions(key, "base", level)), key


# the secret store t0 has the random store t3 and the load as bus hiders;
# the public store t2 hides nothing, so it may not follow the secret store
BUS_KEY = """func bus_key width 4
in t0:secret t1:random t2:public
t3 = xor t0, t1
store 0, t3
store 1, t0
store 2, t2
t4 = load 0
out t4
"""


def test_bus_key_successor_pruned_when_it_issues():
    """A memory op that does not hide the key issued right before it is
    dropped when it issues: the walk tries 37 selections at the optimum,
    41 when only the leaf rejects it, and keeps the same solutions."""
    base, _, secure = front_end(parse_program(BUS_KEY), TARGETS["quad"], "none")
    key, = secure.security.mspairs
    assert key + 1 not in secure.security.mspairs[key]  # the public store
    sols, work, _cut = oracle._enumerate_level(secure, 6, oracle.WORK_LIMIT)
    assert (len(sols), work) == (1, 37)
    for level in (6, 7):
        got = {s.sort_key() for s in enumerate_all(secure, level)}
        assert got == leaf_secure(secure, enumerate_all(base, level)), level


def test_levels_cut_by_latency_alone_deepen():
    """A level that fails only by latency (the one-cycle-per-op prune, or
    the out op ending past it) counts as cut, so deepening goes on."""
    slow = replace(TARGETS["quad"], ops={**TARGETS["quad"].ops, "gf_mul": OpInfo(3)})
    for body in ("t3 = gf_mul t0, t1\nt4 = xor t3, t2",   # the xor cannot fit
                 "t3 = xor t1, t2\nt4 = gf_mul t0, t3"):  # the out op ends late
        prog = parse_program(f"func slow width 4\nin t0:secret t1:random t2:random\n{body}\nout t4\n")
        base, _, _ = front_end(prog, slow, "none")
        assert brute_force(base)[0] == solve(base, SolveBudget(seconds=60)).solution.objective == 5


def test_trace_subseq_on_plain_xor_solution():
    base, _, _ = build_models("xor_p0", "thumb-like", "full")
    from test_model import plain_solution, hiding_solution

    sol = plain_solution(base)
    assert trace_subseq(base, sol) == {(1, 6), (0, 8)}
    hiding = hiding_solution(base)
    pairs = trace_subseq(base, hiding)
    assert (4, 5) in pairs and (5, 6) in pairs
    assert trace_msubseq(base, sol) == set()


def test_subseq_characterization_across_oracle_solutions(reports, solutions):
    """Trace-walk pairs equal the live-range algebra on every solution."""
    total = 0
    for key, (base, secure, rep) in reports.items():
        for which, model, opt in (
            ("base", base, rep.insecure_optimum),
            ("secure", secure, rep.secure_optimum),
        ):
            if opt is None:
                continue
            for sol in solutions(key, which, opt):
                v = SolutionView(model, sol)
                assert trace_subseq(model, sol) == v.subseq_pairs(), key
                assert trace_msubseq(model, sol) == v.msubseq_pairs(), key
                total += 1
    assert total > 50


def test_subseq_characterization_on_spill_solutions():
    """The same equivalence over solver-enumerated spill schedules."""
    for name in ("spill_force", "spill_sec"):
        base, secure, _ = build_models(name, "mini", "full")
        for model in (base, secure):
            out = solve(model, SolveBudget(seconds=120))
            if out.solution is None:
                continue
            sols, _ = enumerate_solutions(
                model, cap=40, makespan_cap=out.solution.objective
            )
            assert sols, name
            for sol in sols:
                v = SolutionView(model, sol)
                assert trace_subseq(model, sol) == v.subseq_pairs(), name
                assert trace_msubseq(model, sol) == v.msubseq_pairs(), name


def test_every_secure_oracle_solution_is_leak_free(reports, solutions):
    """Simulated equivalence holds for each enumerated secure solution."""
    for (name, tgt, budget), (base, secure, rep) in reports.items():
        if rep.secure_optimum is None:
            continue
        prog = secure.program
        secret_ids = [t.id for t, c in prog.inputs if str(c) == "secret"]
        if not secret_ids:
            continue
        pub = {t.id: 3 for t, c in prog.inputs if str(c) == "public"}
        s1 = {t: 0x0 for t in secret_ids}
        s2 = {t: 0xF for t in secret_ids}
        for sol in solutions((name, tgt, budget), "secure", rep.secure_optimum):
            h = linearize(secure, sol)
            v = check_equivalence(h, pub, (s1, s2))
            assert v.equivalent, (name, tgt, sol.to_dict())


def test_leaky_base_solutions_absent_from_secure_enumeration(reports, solutions):
    """Any base solution that simulates leaky never appears in the secure set.

    The secure model adds constraints to the same elaboration, so every
    secure solution is a base solution, and the property holds iff every
    secure solution simulates equivalent. Base solutions outside the secure
    set are checked only until one is leaky, to show the check can fail.
    """
    found_leaky = False
    for key, (base, secure, rep) in reports.items():
        if rep.insecure_optimum is None or rep.secure_optimum is None:
            continue
        prog = base.program
        secret_ids = [t.id for t, c in prog.inputs if str(c) == "secret"]
        if not secret_ids:
            continue
        pub = {t.id: 3 for t, c in prog.inputs if str(c) == "public"}
        s1 = {t: 0x0 for t in secret_ids}
        s2 = {t: 0xF for t in secret_ids}
        cap = max(rep.insecure_optimum, rep.secure_optimum)
        secure_sols = solutions(key, "secure", cap)
        secure_keys = {s.sort_key() for s in secure_sols}
        base_sols = solutions(key, "base", cap)
        assert secure_keys <= {s.sort_key() for s in base_sols}, key

        def leaky(sol):
            return not check_equivalence(linearize(base, sol), pub, (s1, s2)).equivalent

        assert not any(map(leaky, secure_sols)), key
        if not found_leaky:
            found_leaky = any(leaky(s) for s in base_sols if s.sort_key() not in secure_keys)
    assert found_leaky


def test_oracle_solutions_satisfy_model_checker(reports, solutions):
    """Oracle-generated solutions pass the model-side constraint evaluation."""
    for key, (base, secure, rep) in reports.items():
        for which, model, opt in (
            ("base", base, rep.insecure_optimum),
            ("secure", secure, rep.secure_optimum),
        ):
            if opt is None:
                continue
            for sol in solutions(key, which, opt)[:20]:
                assert check_solution(model, sol) == [], key
