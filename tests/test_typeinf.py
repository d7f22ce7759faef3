"""Type-inference tests.

The distribution oracles at the top are the ground truth: a Random claim
means exactly-uniform over the random inputs for every fixed secret/public
assignment, a Public claim means the distribution never depends on the
secrets. The classifier's verdicts are tested against these oracles on small
expressions, and the named examples are frozen.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import FIXTURE_SOURCES, fixture_program
from maskcc.bits import apply_binop, mask
from maskcc.ir import SecurityClass, parse_program
from maskcc.model import elab_types, elaborate
from maskcc.typeinf import (
    Binary,
    Classifier,
    Const,
    Unary,
    Var,
    build_exprs,
    infer_types,
)
from test_stress import gen_kernel

R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET
W = 4
N = 1 << W


def eval_expr_vec(e, values: dict[int, np.ndarray], width: int) -> np.ndarray:
    """Evaluate e over numpy arrays of input assignments, elementwise."""
    m = mask(width)
    if isinstance(e, Var):
        return values[e.id] & m
    if isinstance(e, Const):
        shape = next(iter(values.values())).shape if values else ()
        return np.full(shape, e.value & m, dtype=np.int64)
    if isinstance(e, Unary):
        return ~eval_expr_vec(e.child, values, width) & m
    return apply_binop(
        e.op, eval_expr_vec(e.left, values, width), eval_expr_vec(e.right, values, width), width
    )


def leaves(expr):
    if isinstance(expr, Var):
        return {expr}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Unary):
        return leaves(expr.child)
    return leaves(expr.left) | leaves(expr.right)


def distributions(expr):
    """Value histogram of expr per fixed (secret, public) assignment.

    Enumerates every assignment of every leaf exhaustively at width 4.
    Returns {fixed-assignment: length-16 histogram over random inputs}.
    """
    ls = sorted(leaves(expr), key=lambda v: v.id)
    rand = [v.id for v in ls if v.cls is R]
    fixed = [v.id for v in ls if v.cls is not R]
    out = {}
    rand_grid = list(itertools.product(range(N), repeat=len(rand))) or [()]
    for fvals in itertools.product(range(N), repeat=len(fixed)):
        values = {
            t: np.array([g[i] for g in rand_grid], dtype=np.int64)
            for i, t in enumerate(rand)
        }
        for t, v in zip(fixed, fvals):
            values[t] = np.full(len(rand_grid), v, dtype=np.int64)
        if not values:
            values = {-1: np.zeros(1, dtype=np.int64)}
        res = np.atleast_1d(eval_expr_vec(expr, values, W))
        out[fvals] = np.bincount(res, minlength=N)
    return out, [v.id for v in ls if v.cls is S]


def is_uniform(expr) -> bool:
    dists, _ = distributions(expr)
    return all(len(set(h)) == 1 for h in dists.values())


def is_secret_independent(expr) -> bool:
    dists, secrets = distributions(expr)
    ls = sorted(leaves(expr), key=lambda v: v.id)
    fixed = [v.id for v in ls if v.cls is not R]
    sec_pos = [i for i, t in enumerate(fixed) if t in secrets]
    groups = {}
    for fvals, hist in dists.items():
        pub_key = tuple(v for i, v in enumerate(fvals) if i not in sec_pos)
        groups.setdefault(pub_key, []).append(hist)
    return all(
        all(np.array_equal(hs[0], h) for h in hs) for hs in groups.values()
    )


m = Var(1, R)
m1 = Var(3, R)
k = Var(2, S)
p = Var(0, P)


def X(a, b):
    return Binary("xor", a, b)


def G(a, b):
    return Binary("gf_mul", a, b)


# -- auxiliary functions -------------------------------------------------------


def test_xor_only():
    cl = Classifier()
    assert cl.xor_only(X(m, k))
    assert not cl.xor_only(G(m, k))
    assert cl.xor_only(Unary("not", X(m, k)))


def test_supp_plain_and_cancelling():
    cl = Classifier()
    assert cl.supp(X(m, k)) == {1, 2}
    assert cl.supp(X(X(m, k), m)) == {2}
    assert cl.supp(X(m, X(m, Var(5, R)))) == {5}


def test_unq_examples():
    cl = Classifier()
    assert cl.unq(m) == {1}
    assert cl.unq(k) == set()
    assert cl.unq(G(m, m)) == set()


def test_dom_examples():
    cl = Classifier()
    assert cl.dom(X(m, k)) == {1}
    assert cl.dom(G(m, k)) == set()
    assert cl.dom(X(X(m1, k), m1)) == set()


def test_dom_subset_of_unq_subset_of_supp():
    cl = Classifier()
    for e in (X(m, k), X(X(m, k), m), G(m, X(k, m)), X(G(m, k), m1),
              Unary("not", X(m, m1)), Binary("add", m, k)):
        rand_supp = {v.id for v in leaves(e) if v.cls is R} & cl.supp(e)
        assert cl.dom(e) <= cl.unq(e) <= rand_supp


# -- classify against the distribution oracle -----------------------------------


def test_classify_masked_xor_is_random():
    cl = Classifier()
    assert cl.classify(X(m, k)) is R
    assert is_uniform(X(m, k))


def test_classify_secret_leaf():
    assert Classifier().classify(k) is S


def test_classify_self_xor_public():
    e = X(m, m)
    assert Classifier().classify(e) is P
    assert is_secret_independent(e)


def test_classify_gf_secret_times_random_stays_secret():
    e = G(k, m)
    assert Classifier().classify(e) is S
    # the oracle confirms the distribution really depends on the secret
    assert not is_secret_independent(e)


def test_classify_const_public():
    cl = Classifier()
    assert cl.classify(Const(7)) is P
    assert cl.supp(Const(7)) == set()
    assert cl.dom(Const(7)) == set()


def test_pub3_other_op_on_independent_randoms():
    e = Binary("add", m, m1)
    assert Classifier().classify(e) is P
    assert is_secret_independent(e)


def test_pub4_gf_of_independent_randoms():
    e = G(m, m1)
    assert Classifier().classify(e) is P
    assert is_secret_independent(e)


def test_nest1_recovers_nested_secret():
    # m ^ (m ^ k) cancels to the secret
    assert Classifier().classify(X(m, X(m, k))) is S
    assert not is_secret_independent(X(m, X(m, k)))


def test_nest2_or_unfolding():
    e = X(m, Binary("or", m, k))  # equals ~m & k: secret dependent
    assert Classifier().classify(e) is S
    assert not is_secret_independent(e)


def test_nest3_and_unfolding():
    e = X(m, Binary("and", m, m1))  # equals m & ~m1: secret independent
    assert Classifier().classify(e) is P
    assert is_secret_independent(e)


@pytest.mark.parametrize(
    "lhs",
    [
        X(G(p, m), G(p, m1)),  # (a*b) ^ (a*c)
        X(G(p, m), G(m1, p)),  # (a*b) ^ (c*a)
        X(G(p, m), G(m, m1)),  # (a*b) ^ (b*c)
        X(G(p, m), G(m1, m)),  # (a*b) ^ (c*b)
    ],
)
def test_distr_rules_match_factored_form(lhs):
    factored = {
        0: G(p, X(m, m1)),
        1: G(p, X(m, m1)),
        2: G(m, X(p, m1)),
        3: G(m, X(p, m1)),
    }
    cl = Classifier()
    results = [cl.classify(lhs)]
    assert results[0] in (R, P, S)
    # all four operand orders agree with their factored form
    for i, e in enumerate(
        [X(G(p, m), G(p, m1)), X(G(p, m), G(m1, p)), X(G(p, m), G(m, m1)), X(G(p, m), G(m1, m))]
    ):
        assert Classifier().classify(e) == Classifier().classify(factored[i])


def test_classification_is_sound_on_random_expressions():
    """Random-classified exprs must be uniform; Public ones secret-independent."""
    rng = np.random.default_rng(7)
    leaf_pool = [m, m1, k, p, Const(5)]
    ops = ["xor", "and", "or", "add", "gf_mul"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf_pool[rng.integers(len(leaf_pool))]
        if rng.random() < 0.15:
            return Unary("not", gen(depth - 1))
        return Binary(ops[rng.integers(len(ops))], gen(depth - 1), gen(depth - 1))

    checked = 0
    for _ in range(120):
        e = gen(3)
        cls = Classifier().classify(e)
        if cls is R:
            assert is_uniform(e), f"classified Random but not uniform: {e}"
            checked += 1
        elif cls is P:
            assert is_secret_independent(e), f"classified Public but depends: {e}"
            checked += 1
    assert checked > 30


# -- whole-program inference -----------------------------------------------------


def test_infer_types_shapes_running_example():
    elab = elaborate(fixture_program("xor_p0"), "full")
    env = elab_types(elab)
    got = {t: env.cls(t) for t in elab.visible_temps()}
    assert got == {
        0: P, 3: P,
        2: S, 5: S,
        1: R, 4: R, 6: R, 7: R, 8: R, 9: R, 10: R,
    }


def test_infer_types_all_public():
    p_ = parse_program(FIXTURE_SOURCES["allpub"])
    env = elab_types(elaborate(p_, "none"))
    assert all(c is P for c in env.classes.values())


def test_copies_share_expression_objects():
    elab = elaborate(fixture_program("xor_p0"), "full")
    exprs = elab_types(elab).exprs
    assert exprs[7] is exprs[6]
    assert exprs[4] is exprs[1]


def _carried_source_temp(elab, t):
    """The source temp whose value elaborated temp t carries.

    Follows copies, spill stores, reloads and out slots back to an input or
    body definition.
    """
    elab2src = {e: s for s, e in elab.src2elab.items()}
    while t not in elab2src:
        op = elab.op(elab.temps[t].defined_by)
        slot = op.operands[op.defs.index(t)] if op.kind == "out" else op.operands[0]
        t = slot.alts[0]
    return elab2src[t]


@pytest.mark.parametrize("budget", ["none", "reg", "full"])
@pytest.mark.parametrize("name", sorted(FIXTURE_SOURCES))
def test_every_elaborated_temp_takes_its_source_type(name, budget):
    prog = fixture_program(name)
    elab = elaborate(prog, budget)
    src = infer_types(prog)
    env = elab_types(elab)
    assert set(env.classes) == set(env.exprs) == set(elab.temps)
    def_kinds = set()
    for t, mt in elab.temps.items():
        s = _carried_source_temp(elab, t)
        def_kinds.add(elab.op(mt.defined_by).kind)
        assert env.expr(t) is env.expr(elab.src2elab[s]), (t, s)
        assert env.expr(t) == src.expr(s), (t, s)
        assert env.cls(t) is src.cls(s), (t, s)
    want = {"in", "out"} | ({"copy"} if budget != "none" else set())
    if budget == "full":
        want |= {"spill_store", "spill_load"}
    assert want <= def_kinds


def test_load_of_stored_temp_shares_expression():
    src = (
        "func f width 4\nin t0:public t1:random\n"
        "t2 = xor t0, t1\nstore 3, t2\nt3 = load 3\nout t3\n"
    )
    p_ = parse_program(src)
    exprs = build_exprs(p_)
    assert exprs[3] is exprs[2]


def test_load_of_unwritten_address_is_public_constant():
    src = "func f width 4\nin t0:secret\nt1 = load 9\nout t1\n"
    p_ = parse_program(src)
    env = infer_types(p_)
    assert env.cls(1) is P


def test_infer_types_deterministic():
    elab = elaborate(fixture_program("goubin_mask"), "full")
    a = elab_types(elab).classes
    b = elab_types(elab).classes
    assert a == b


def test_soundness_over_all_fixture_programs():
    """Per-temp classes checked against exhaustive distributions (width 4)."""
    for name in FIXTURE_SOURCES:
        prog = fixture_program(name)
        if len(prog.random_inputs()) > 3:
            continue
        elab = elaborate(prog, "full")
        env = elab_types(elab)
        for t in elab.visible_temps():
            e = env.expr(t)
            cls = env.cls(t)
            if cls is R:
                assert is_uniform(e), f"{name}: t{t} Random but not uniform"
            elif cls is P:
                assert is_secret_independent(e), f"{name}: t{t} Public but secret-dependent"


REFERENCE_SOURCES = {
    **FIXTURE_SOURCES,
    **{
        f"gen{seed}": gen_kernel(random.Random(1000 + seed), seed, with_memory=seed % 3 == 0)
        for seed in range(0, 60, 6)
    },
}


@pytest.mark.parametrize("name", REFERENCE_SOURCES)
def test_xor_base_matches_base_rules_on_explicit_xor(name):
    """`xor_base` equals the base rules run on a built xor node, for every pair."""
    env = infer_types(parse_program(REFERENCE_SOURCES[name]))
    cl = env.classifier
    for a, b in itertools.product(env.exprs.values(), repeat=2):
        node = Binary("xor", a, b)
        if cl.dom(node, False):
            want = R
        elif cl.leaves(node, S):
            want = S
        else:
            want = P
        assert cl.xor_base(a, b) is want, f"{a} ^ {b}"
