"""Randomized cross-validation: generated kernels through the whole stack.

A seeded generator produces small straight-line kernels; for each one the
solver and the brute-force oracle must agree on optima and solution sets,
every solution must satisfy the independent constraint evaluator, and every
secure solution must simulate leakage-equivalent. This hunts interaction
bugs the curated fixtures may miss.
"""

import random

import pytest

from conftest import MINI, QUAD, narrow
from maskcc.cli import front_end
from maskcc.ir import parse_program
from maskcc.leakage import check_equivalence, linearize
from maskcc.model import ModelBuildError, SolutionView, check_solution
from maskcc.oracle import OracleError, brute_force, trace_msubseq, trace_subseq
from maskcc.solver import SolveBudget, enumerate_solutions, solve

OPS = ["xor", "xor", "xor", "and", "or", "add", "gf_mul", "not"]


def gen_kernel(rng: random.Random, idx: int, with_memory: bool) -> str:
    n_inputs = rng.randint(2, 3)
    classes = ["secret"] + ["random"] * (n_inputs - 1)
    rng.shuffle(classes)
    lines = [
        f"func gen{idx} width 4",
        "in " + " ".join(f"t{i}:{c}" for i, c in enumerate(classes)),
    ]
    n = n_inputs
    stored = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if with_memory and roll < 0.25:
            addr = rng.randrange(4)
            lines.append(f"store {addr}, t{rng.randrange(n)}")
            stored.append(addr)
            continue
        if with_memory and roll < 0.4 and stored:
            lines.append(f"t{n} = load {rng.choice(stored)}")
            n += 1
            continue
        opc = rng.choice(OPS)
        a = rng.randrange(n)
        if opc == "not":
            lines.append(f"t{n} = not t{a}")
        else:
            b = rng.randrange(n)
            lines.append(f"t{n} = {opc} t{a}, t{b}")
        n += 1
    lines.append(f"out t{n - 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(200))
def test_generated_kernels_cross_validate(seed):
    rng = random.Random(1000 + seed)
    src = gen_kernel(rng, seed, with_memory=seed % 3 == 0)
    prog = parse_program(src)
    target = QUAD if seed % 2 else MINI
    n_body = len(prog.body)
    has_memory = any(op.opcode in ("load", "store") for op in prog.body)
    budget = "reg" if seed % 5 == 0 and n_body <= 2 and not has_memory else "none"
    try:
        base, _, secure = front_end(prog, target, budget)
    except ModelBuildError:
        pytest.skip("kernel does not fit the target")

    # infeasibility proofs are capped a few cycles past the insecure optimum
    # on both sides, so expensive exhaustion stays bounded and comparable
    base_opt, _ = brute_force(base, op_bound=8)
    if base_opt is None:
        # e.g. routing the output needs a copy the budget does not grant
        out = solve(base, SolveBudget(seconds=60))
        assert out.solution is None, src
        return
    horizon = base_opt + 4

    secure_sols = []
    for model in (base, secure):
        try:
            opt, oracle_sols = brute_force(model, op_bound=8, max_makespan=horizon)
        except OracleError:
            pytest.skip("generated model beyond brute-force scale")
        if opt is None:
            # the solver finds nothing within the horizon either
            found = enumerate_solutions(model, cap=0, makespan_cap=horizon)
            assert found == ([], False), src
            continue
        out = solve(model, SolveBudget(seconds=60))
        solver_opt = out.solution.objective if out.solution else None
        assert opt == solver_opt, (src, opt, solver_opt)
        solver_sols, _ = enumerate_solutions(model, makespan_cap=opt)
        assert {s.sort_key() for s in solver_sols} == {
            s.sort_key() for s in oracle_sols
        }, src
        for sol in oracle_sols:
            assert check_solution(model, sol) == [], src
            v = SolutionView(model, sol)
            assert trace_subseq(model, sol) == v.subseq_pairs(), src
            assert trace_msubseq(model, sol) == v.msubseq_pairs(), src
        if model is secure:
            secure_sols = oracle_sols

    # every secure solution must be leakage-equivalent, exhaustively
    if not secure_sols:
        return
    secret_ids = [t.id for t in prog.secret_inputs()]
    if not secret_ids:
        return
    pairs = [
        ({t: 0x0 for t in secret_ids}, {t: 0xF for t in secret_ids}),
        ({t: 0x5 for t in secret_ids}, {t: 0xA for t in secret_ids}),
    ]
    for sol in secure_sols:
        h = linearize(secure, sol)
        for s1, s2 in pairs:
            assert check_equivalence(h, {}, (s1, s2)).equivalent, (src, sol.to_dict())


SENSITIVITY_CASES = [
    ("xor_p0", "thumb-like", "none"),
    ("xor_p0", "mips-like", "none"),
    ("goubin_mask", "thumb-like", "reg"),
    ("secmult_gf", "thumb-like", "reg"),
    ("arith_mask", "mips-like", "reg"),
    ("sec_reload", "thumb-like", "reg"),
    # on mini every reachable transition of this kernel happens to be masked,
    # so the register file with room for a forced bad placement is used here
    ("two_shares", "quad", "reg"),
    ("mem_secret", "mips-like", "reg"),
    ("mem_pair", "mini", "none"),
    ("spill_sec", "mini", "full"),
]


def test_forced_bad_register_choices_are_detected_as_leaky():
    """Disabling the security constraints and forcing one bad register
    choice must produce a schedule the simulator flags as leaky, for every
    secret-carrying fixture."""
    from conftest import build_models

    flagged = 0
    for name, tgt, budget in SENSITIVITY_CASES:
        base, secure, _ = build_models(name, tgt, budget)
        prog = base.program
        secret_ids = [t.id for t in prog.source.secret_inputs()]
        if not secret_ids:
            continue
        pub = {t.id: 0 for t in prog.source.public_inputs()}
        s1 = {t: 0x0 for t in secret_ids}
        s2 = {t: 0xF for t in secret_ids}

        def leaks(model, sol) -> bool:
            h = linearize(model, sol)
            return not check_equivalence(h, pub, (s1, s2)).equivalent

        found = False
        # candidates: insecure optima as-is, then forced placements of each
        # mandatory def onto each argument register
        ob = solve(base, SolveBudget(seconds=60))
        if ob.solution is not None and check_solution(secure, ob.solution):
            found = leaks(base, ob.solution)
        if not found:
            mandatory_defs = [
                op.defs[0]
                for op in prog.ops
                if op.kind == "body" and op.defs
                and prog.temps[op.defs[0]].kind == "reg"
            ]
            for d in mandatory_defs:
                for argreg in range(len(prog.inputs)):
                    pinned = narrow(base, {d: argreg})
                    out = solve(pinned, SolveBudget(seconds=30))
                    if out.solution is None:
                        continue
                    if not check_solution(secure, out.solution):
                        continue  # still satisfies the security families
                    if leaks(base, out.solution):
                        found = True
                        break
                if found:
                    break
        assert found, (name, tgt)
        flagged += 1
    assert flagged >= 8
