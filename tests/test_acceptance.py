"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are exact (rational arithmetic) unless a wall-clock
budget is stated.
"""

import random
import time

from conftest import (
    EQUIV_CASES, FIXTURE_SOURCES, ORACLE_CASES, build_models, fixture_program, narrow,
)
from maskcc.cli import main as cli_main
from maskcc.ir import SecurityClass
from maskcc.leakage import check_equivalence, linearize
from maskcc.model import SolutionView, elab_types, elaborate
from maskcc.oracle import compare_with_solver, enumerate_all, trace_msubseq, trace_subseq
from maskcc.secsets import compute_sets
from maskcc.solver import SolveBudget, enumerate_solutions, solve

R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_type_inference_golden():
    t0 = time.time()
    elab = elaborate(fixture_program("xor_p0"), "full")
    env = elab_types(elab)
    got = {t: env.cls(t) for t in elab.visible_temps()}
    expected = {
        0: P, 3: P,
        2: S, 5: S,
        1: R, 4: R, 6: R, 7: R, 8: R, 9: R, 10: R,
    }
    assert got == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"typed intermediate form reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_security_sets_golden():
    t0 = time.time()
    elab = elaborate(fixture_program("xor_p0"), "full")
    sets = compute_sets(elab, elab_types(elab))
    assert sets.rpairs == frozenset(
        {
            (1, 6), (1, 7), (1, 8), (1, 9),
            (4, 6), (4, 7), (4, 8), (4, 9),
            (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
        }
    )
    assert len(sets.rpairs) == 14
    assert sets.spairs == {5: (4, 6, 7, 8, 9)}
    assert sets.mmpairs == frozenset({(3, 6), (3, 8), (6, 8)})
    assert sets.mspairs == {4: (3, 6, 8)}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"all four pair sets match the worked values ({elapsed:.2f}s)")


def test_criterion_3_zero_overhead_on_both_targets():
    for target in ("thumb-like", "mips-like"):
        t0 = time.time()
        base, secure, _ = build_models("xor_p0", target, "full")
        ob = solve(base, SolveBudget(seconds=10))
        os_ = solve(secure, SolveBudget(seconds=10))
        elapsed = time.time() - t0
        assert ob.status == os_.status == "Optimal"
        assert os_.solution.objective == ob.solution.objective
        assert elapsed < 10.0
    report(3, "secure optimum equals insecure optimum on both presets (0% overhead)")


def test_criterion_4_leak_detection_exact_delta():
    t0 = time.time()
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    pinned = narrow(base, {3: 1})  # masked word over the mask's register
    out = solve(pinned, SolveBudget(seconds=5))
    h = linearize(pinned, out.solution)
    verdict = check_equivalence(h, {0: 0}, ({2: 0x0}, {2: 0xF}))
    assert not verdict.equivalent
    # sum of means differs by HW(0xF) - HW(0x0) = 4, exactly
    assert abs(verdict.delta_mean) == 4
    assert verdict.delta_var == 0
    assert len(verdict.positions) == 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"naive allocation judged Leaky with exact mean delta 4 ({elapsed:.2f}s)")


def secret_pairs(prog, rng):
    ids = [t.id for t in prog.secret_inputs()]
    pairs = [({t: 0x0 for t in ids}, {t: 0xF for t in ids})]
    while len(pairs) < 10:
        a = {t: rng.randrange(16) for t in ids}
        b = {t: rng.randrange(16) for t in ids}
        if a != b:
            pairs.append((a, b))
    return pairs


def test_criterion_5_secure_solutions_leakage_equivalent():
    t0 = time.time()
    rng = random.Random(12345)
    fixtures_checked = 0
    solutions_checked = 0
    for name, tgt, budget in EQUIV_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        prog = base.program
        opt = solve(secure, SolveBudget(seconds=60))
        assert opt.status == "Optimal", (name, tgt)
        sols, truncated = enumerate_solutions(
            secure, cap=3000, makespan_cap=opt.solution.objective
        )
        assert not truncated and sols, (name, tgt)
        pub = {t.id: 0x3 for t in prog.source.public_inputs()}
        pairs = secret_pairs(prog.source, rng)
        for sol in sols:
            h = linearize(secure, sol)
            for s1, s2 in pairs:
                v = check_equivalence(h, pub, (s1, s2))
                assert v.equivalent, (name, tgt, sol.to_dict(), s1, s2)
            solutions_checked += 1
        fixtures_checked += 1
    elapsed = time.time() - t0
    assert fixtures_checked >= 8
    assert elapsed < 300.0
    report(
        5,
        f"{solutions_checked} secure solutions x 10 secret pairs all equivalent "
        f"across {fixtures_checked} fixtures ({elapsed:.1f}s)",
    )


def test_criterion_6_subsequence_characterizations():
    t0 = time.time()
    checked = 0
    for name, tgt, budget in ORACLE_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        for model in (base, secure):
            opt, _ = __import__("maskcc.oracle", fromlist=["brute_force"]).brute_force(
                model, op_bound=8
            )
            if opt is None:
                continue
            for sol in enumerate_all(model, opt, op_bound=8):
                v = SolutionView(model, sol)
                assert trace_subseq(model, sol) == v.subseq_pairs(), (name, tgt)
                assert trace_msubseq(model, sol) == v.msubseq_pairs(), (name, tgt)
                checked += 1
    # spilled schedules through the solver's enumeration
    for name in ("spill_force", "spill_sec"):
        base, secure, _ = build_models(name, "mini", "full")
        for model in (base, secure):
            out = solve(model, SolveBudget(seconds=60))
            if out.solution is None:
                continue
            sols, _ = enumerate_solutions(
                model, cap=60, makespan_cap=out.solution.objective
            )
            for sol in sols:
                v = SolutionView(model, sol)
                assert trace_subseq(model, sol) == v.subseq_pairs(), name
                assert trace_msubseq(model, sol) == v.msubseq_pairs(), name
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(6, f"trace and predicate subsequences agree on {checked} solutions ({elapsed:.1f}s)")


def test_criterion_7_solver_matches_brute_force():
    t0 = time.time()
    for name, tgt, budget in ORACLE_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        rep = compare_with_solver(base, secure, op_bound=8, count_slack=0)
        assert rep.discrepancies == [], (name, tgt, rep.discrepancies)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        7,
        f"solver optimum and solution sets equal brute force on "
        f"{len(ORACLE_CASES)} fixtures ({elapsed:.1f}s)",
    )


def test_criterion_8_type_soundness_exhaustive():
    from test_typeinf import is_secret_independent, is_uniform

    t0 = time.time()
    checked = 0
    for name in FIXTURE_SOURCES:
        prog = fixture_program(name)
        if len(prog.random_inputs()) > 3 or prog.width != 4:
            continue
        elab = elaborate(prog, "full")
        env = elab_types(elab)
        for t in elab.visible_temps():
            cls = env.cls(t)
            if cls is R:
                assert is_uniform(env.expr(t)), (name, t)
                checked += 1
            elif cls is P:
                assert is_secret_independent(env.expr(t)), (name, t)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(8, f"{checked} Random/Public claims verified exhaustively ({elapsed:.1f}s)")


def test_criterion_9_infeasibility_names_family(tmp_path, capsys):
    t0 = time.time()
    path = tmp_path / "nohide.ir"
    path.write_text(FIXTURE_SOURCES["nohide"])
    rc = cli_main(
        ["compile", str(path), "--target", "thumb-like", "--out-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 3
    assert "spairs" in captured.err
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(9, f"unsatisfiable hiding reported as exit 3 naming spairs ({elapsed:.2f}s)")
