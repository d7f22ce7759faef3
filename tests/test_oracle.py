"""Brute-force cross-validation of the solver and the subsequence algebra."""

import functools
import re
from pathlib import Path

import pytest

from conftest import FIXTURE_SOURCES, ORACLE_CASES, build_models
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
from maskcc.target import PRESETS


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


def test_infeasible_model_has_zero_solutions():
    _, secure, _ = build_models("nohide", "thumb-like", "reg")
    opt, sols = brute_force(secure, op_bound=8, max_makespan=8)
    assert opt is None and sols == []


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

    ptr_store's secure levels 4 and 5 (thumb-like, reg) take 21 and 2663
    selections, so level 6 is predicted at 2663 * 2663 / 21 (it takes 145255).
    """
    _, _, secure = front_end(parse_program(PTR_STORE.read_text()), PRESETS["thumb-like"], "reg")
    walked = []
    enumerate_level = oracle._enumerate_level

    def spy(model, level, limit):
        walked.append((level, limit))
        return enumerate_level(model, level, limit)

    monkeypatch.setattr(oracle, "_enumerate_level", spy)
    monkeypatch.setattr(oracle, "WORK_LIMIT", 100_000)
    with pytest.raises(OracleError, match=r"makespan 6 would exceed the oracle work "
                       r"limit: about 337693 operand selections predicted, 97316 left"):
        brute_force(secure)
    assert walked == [(4, 100_000), (5, 99_979)]


def test_oracle_gives_up_before_the_costly_level(capsys):
    rc = main(["oracle", str(PTR_STORE), "--target", "thumb-like", "--copy-budget", "reg"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: enumeration at makespan 7 would exceed the oracle work limit")


# (fixture, target, budget) -> (base, secure), each (optimum, optimal solutions,
# lower bound, operand selections tried at each level from the lower bound up
# to optimum + 1, or up to the lower bound + 2 on an infeasible model)
BRUTE_FORCE_WORK = {
    ("xor_p0", "thumb-like", "none"): ((3, 2, 3, (7, 7)), (3, 1, 3, (7, 7))),
    ("xor_p0", "mips-like", "none"): ((3, 15, 3, (256, 256)), (3, 14, 3, (256, 256))),
    ("xor_p0", "thumb-like", "reg"): ((3, 2, 3, (7, 581)), (3, 1, 3, (7, 581))),
    ("goubin_mask", "quad", "none"): ((5, 12, 5, (74, 74)), (5, 4, 5, (74, 74))),
    ("secmult_gf", "quad", "reg"): ((3, 3, 3, (16, 605)), (5, 2, 3, (16, 605, 10532, 99418))),
    ("arith_mask", "quad", "reg"): ((3, 3, 3, (16, 605)), (5, 2, 3, (16, 605, 10532, 99418))),
    ("sec_reload", "quad", "reg"): ((3, 3, 3, (16, 566)), (5, 4, 3, (16, 566, 8723, 65611))),
    ("two_shares", "mini", "none"): ((4, 2, 4, (11, 11)), (4, 1, 4, (11, 11))),
    ("mem_secret", "mini", "reg"): ((6, 41, 5, (54, 1770, 21445)), (6, 2, 5, (54, 1770, 21445))),
    ("mem_pair", "mini", "none"): ((6, 12, 6, (287, 287)), (6, 7, 6, (287, 287))),
    ("roundtrip", "mini", "none"): ((5, 2, 5, (30, 60)), (5, 2, 5, (30, 60))),
    ("allpub", "thumb-like", "none"): ((3, 1, 3, (4, 4)), (3, 1, 3, (4, 4))),
    ("identity", "thumb-like", "none"): ((1, 1, 1, (1, 1)), (1, 1, 1, (1, 1))),
    ("nohide", "thumb-like", "reg"): ((2, 1, 2, (9, 331)), (None, 0, 2, (9, 331, 3753))),
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
        sols, work = enumerate_level(model, level, limit)
        walked.append(work)
        return sols, work

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
