"""Transition-leakage simulation and equivalence checking."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import EQUIV_CASES, FIXTURE_SOURCES, TARGETS, build_models, narrow
from maskcc import leakage
from maskcc.bits import REDUCTION_POLY, gf_mul, hw, mask
from maskcc.cli import front_end
from maskcc.leakage import (
    CHUNK,
    EXHAUSTIVE_BOUND,
    Exhaustive,
    Harness,
    LeakStats,
    MInstr,
    MonteCarlo,
    SimulationError,
    check_equivalence,
    compare_stats,
    draw_assignments,
    exhaustive_ok,
    leak_stats,
    leak_trace_recursive,
    linearize,
    simulate,
)
from maskcc.ir import SecurityClass, parse_program
from maskcc.solver import SolveBudget, solve


@pytest.mark.parametrize("width", [1, 3, 4, 8, 16, 31, 32])
def test_draw_assignments_matches_randrange(width):
    """The block draw equals one `randrange(1 << width)` call per value, in order.

    Fails loudly if a CPython release changes how `randrange` consumes the
    Mersenne Twister stream.
    """
    dtype = np.min_scalar_type(mask(width))
    for seed in (0, 7, 2024):
        for k, samples in ((1, 1), (3, 1), (1, CHUNK + 1), (3, CHUNK + 1), (1, 40_000)):
            rng = random.Random(seed)
            want = np.array(
                [[rng.randrange(1 << width) for _ in range(k)] for _ in range(samples)],
                dtype=dtype,
            )
            stub = SimpleNamespace(width=width, random_inputs=lambda: tuple(range(k)))
            got = draw_assignments(stub, MonteCarlo(samples=samples, seed=seed))
            assert got.dtype == dtype and got.shape == (samples, k), (seed, k, samples)
            assert np.array_equal(got, want), (seed, k, samples)


def test_hw_basics():
    assert hw(0) == 0
    assert hw(0b1010) == 2
    assert hw(0xFF) == 8


def test_gf_mul_field_properties():
    # closure under the width-4 polynomial, commutativity, identity
    for a in range(16):
        assert gf_mul(a, 1, 4) == a
        for b in range(16):
            assert gf_mul(a, b, 4) == gf_mul(b, a, 4)
            assert gf_mul(a, b, 4) < 16
    assert gf_mul(0x53, 0xCA, 8) == 0x01  # known AES-field inverse pair
    for w in (16, 32):
        x = 0xBEEF & mask(w)
        assert gf_mul(x, 1, w) == x
        assert gf_mul(x, 2, w) <= mask(w)
        # distributivity over xor
        a, b, c = 0x1234 & mask(w), 0xF00D & mask(w), 0x0DDC & mask(w)
        assert gf_mul(a, b ^ c, w) == gf_mul(a, b, w) ^ gf_mul(a, c, w)


def gf_mul_reference(a, b, width):
    """Shift-and-add with branches, on ints only."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> width:
            a ^= REDUCTION_POLY[width]
    return acc


@pytest.mark.parametrize("w", [4, 8, 16, 32])
def test_gf_mul_vec_matches_scalar(w):
    rng = random.Random(w)
    a = np.array([rng.randrange(1 << w) for _ in range(200)] + [0, mask(w)], dtype=np.int64)
    b = np.array([rng.randrange(1 << w) for _ in range(200)] + [mask(w), 1], dtype=np.int64)
    got = gf_mul(a, b, w)
    assert got.dtype == np.int64
    pairs = list(zip(a.tolist(), b.tolist()))
    scalar = [gf_mul(x, y, w) for x, y in pairs]
    assert all(type(v) is int for v in scalar)
    assert got.tolist() == scalar == [gf_mul_reference(x, y, w) for x, y in pairs]


def raw_sequence():
    # r1 <- v1; mem(va, v2); r1 <- v3; mem(vb, r1)
    return [
        MInstr(1, "copy", 1, (("lit", 0b0011),)),
        MInstr(2, "store", None, (("lit", 0b0101),), ("lit", 10)),
        MInstr(3, "copy", 1, (("lit", 0b1111),)),
        MInstr(4, "store", None, (("reg", 1),), ("lit", 11)),
    ]


def test_worked_sequence_trace_values():
    _, trace = simulate(raw_sequence(), 4, {})
    values = sorted((o.kind, o.value) for o in trace)
    # HW(v1^0)=2, HW(v2^0)=2, HW(v3^v1)=2, HW(v3^v2)=2
    assert [v for _, v in values] == [2, 2, 2, 2]
    assert {k for k, _ in values} == {"MRE", "ROT"}


def test_trace_shape_one_entry_per_transition():
    _, trace = simulate(raw_sequence(), 4, {})
    rots = [o for o in trace if o.kind == "ROT"]
    mres = [o for o in trace if o.kind == "MRE"]
    assert len(rots) == 2  # two register writes
    assert len(mres) == 2  # two memory operations


def test_load_emits_bus_then_register():
    seq = [
        MInstr(1, "store", None, (("lit", 0b1100),), ("lit", 4)),
        MInstr(2, "load", 2, (), ("lit", 4)),
    ]
    _, trace = simulate(seq, 4, {})
    assert [(o.pos, o.kind) for o in trace] == [(1, "MRE"), (2, "MRE"), (2, "ROT")]
    assert trace[1].value == 0  # same word re-driven on the bus
    assert trace[2].value == 2  # written over a zeroed register


def test_uninitialized_load_raises():
    seq = [MInstr(1, "load", 0, (), ("lit", 99))]
    with pytest.raises(SimulationError):
        simulate(seq, 4, {})


def test_recursive_and_forward_traces_agree_on_raw_sequence():
    fwd = [(o.kind, o.value) for o in simulate(raw_sequence(), 4, {})[1]]
    rec = leak_trace_recursive(raw_sequence(), 4, {})
    assert fwd == rec


def test_recursive_agreement_across_fixture_solutions():
    for name, tgt, budget in EQUIV_CASES:
        _, secure, _ = build_models(name, tgt, budget)
        out = solve(secure, SolveBudget(seconds=120))
        if out.solution is None:
            continue
        h = linearize(secure, out.solution)
        prog = secure.program
        for trial in range(4):
            values = {
                t.id: (trial * 5 + 3 * t.id + 1) % 16 for t, _ in prog.inputs
            }
            fwd = [
                (o.kind, o.value)
                for o in simulate(h.instrs, 4, h.initial_regs(values))[1]
            ]
            rec = leak_trace_recursive(h.instrs, 4, h.initial_regs(values))
            assert fwd == rec, (name, tgt)


def secure_xor_harness():
    _, secure, _ = build_models("xor_p0", "thumb-like", "none")
    out = solve(secure)
    return linearize(secure, out.solution)


def leaky_xor_harness():
    base, _, _ = build_models("xor_p0", "thumb-like", "none")
    out = solve(narrow(base, {3: 1}))  # first xor over the mask's register
    return linearize(base, out.solution)


def test_leak_stats_uniform_position():
    h = secure_xor_harness()
    stats = leak_stats(h, {0: 0, 2: 0xF})
    # the masked word is uniform: HW has mean width/2 and variance width/4
    first = stats.positions[0]
    assert stats.mean[first] == Fraction(2)
    assert stats.var[first] == Fraction(1)


def test_leak_stats_vulnerable_position_is_constant():
    h = leaky_xor_harness()
    for key in (0x0, 0x6, 0xF):
        stats = leak_stats(h, {0: 0, 2: key})
        pos = stats.positions[0]
        assert stats.mean[pos] == Fraction(hw(key))
        assert stats.var[pos] == 0


def test_no_random_inputs_gives_zero_variance():
    base, _, _ = build_models("allpub", "thumb-like", "none")
    out = solve(base)
    h = linearize(base, out.solution)
    stats = leak_stats(h, {0: 5, 1: 9})
    assert all(v == 0 for v in stats.var.values())


def test_equivalence_secure_xor():
    h = secure_xor_harness()
    v = check_equivalence(h, {0: 0}, ({2: 0x0}, {2: 0xF}))
    assert v.equivalent


def test_equivalence_detects_naive_allocation():
    h = leaky_xor_harness()
    v = check_equivalence(h, {0: 0}, ({2: 0x0}, {2: 0xF}))
    assert not v.equivalent
    assert abs(v.delta_mean) == 4  # HW(0xF) - HW(0x0)
    assert v.delta_var == 0
    assert len(v.positions) == 1


def test_equal_secrets_always_equivalent():
    h = leaky_xor_harness()
    v = check_equivalence(h, {0: 3}, ({2: 0x9}, {2: 0x9}))
    assert v.equivalent


def test_monte_carlo_matched_seeds_reproducible():
    h = secure_xor_harness()
    mc = MonteCarlo(samples=2000, seed=99)
    v1 = check_equivalence(h, {0: 0}, ({2: 0x0}, {2: 0xF}), mc)
    v2 = check_equivalence(h, {0: 0}, ({2: 0x0}, {2: 0xF}), mc)
    assert v1 == v2
    assert v1.equivalent  # paired draws cancel exactly for a secure kernel


def test_exhaustive_bound_enforced():
    h = Harness(
        instrs=(),
        inputs=tuple((i, SecurityClass.RANDOM, i) for i in range(3)),
        width=32,
    )
    assert not exhaustive_ok(h)
    with pytest.raises(SimulationError):
        leak_stats(h, {}, Exhaustive())


def test_trace_lengths_match_instruction_structure():
    for name, tgt, budget in EQUIV_CASES[:6]:
        _, secure, _ = build_models(name, tgt, budget)
        out = solve(secure, SolveBudget(seconds=120))
        if out.solution is None:
            continue
        h = linearize(secure, out.solution)
        values = {t.id: 7 for t, _ in secure.program.inputs}
        _, trace = simulate(h.instrs, 4, h.initial_regs(values))
        n_reg_writes = sum(1 for i in h.instrs if i.dest is not None)
        n_mem_ops = sum(1 for i in h.instrs if i.opcode in ("load", "store"))
        assert sum(1 for o in trace if o.kind == "ROT") == n_reg_writes
        assert sum(1 for o in trace if o.kind == "MRE") == n_mem_ops


# -- the vector walk against the per-assignment reference ----------------------


def reference_leak_stats(harness, fixed, sampling=Exhaustive()):
    """`leak_stats` as one `simulate` run per random assignment, in order."""
    rand = harness.random_inputs()
    w = harness.width
    if isinstance(sampling, Exhaustive):
        total = (1 << w) ** len(rand)
        if total > EXHAUSTIVE_BOUND:
            raise SimulationError(
                f"exhaustive enumeration of {total} assignments exceeds the bound"
            )
        assignments = (
            dict(zip(rand, combo))
            for combo in itertools.product(range(1 << w), repeat=len(rand))
        )
    else:
        rng = random.Random(sampling.seed)
        assignments = (
            {t: rng.randrange(1 << w) for t in rand} for _ in range(sampling.samples)
        )
    counts = 0
    sums: dict = {}
    sqs: dict = {}
    order: list = []
    for rvals in assignments:
        values = dict(fixed)
        values.update(rvals)
        _, trace = simulate(harness.instrs, w, harness.initial_regs(values))
        counts += 1
        if not order:
            order = [(o.pos, o.kind) for o in trace]
        for o in trace:
            key = (o.pos, o.kind)
            sums[key] = sums.get(key, 0) + o.value
            sqs[key] = sqs.get(key, 0) + o.value * o.value
    mean = {k: Fraction(v, counts) for k, v in sums.items()}
    var = {k: Fraction(sqs[k], counts) - mean[k] * mean[k] for k in sums}
    return LeakStats(tuple(order), mean, var)


def assert_same_stats(got, want, case=None):
    assert got.positions == want.positions, case
    assert got.mean == want.mean, case
    assert got.var == want.var, case


def fixture_harnesses(width=None):
    """(case, harness, fixed inputs) for the secure and base solution of each EQUIV_CASES combo."""
    for name, tgt, budget in EQUIV_CASES:
        src = FIXTURE_SOURCES[name]
        if width is not None:
            src = src.replace("width 4", f"width {width}", 1)
        base, _, secure = front_end(parse_program(src), TARGETS[tgt], budget)
        prog = secure.program
        fixed = {
            t.id: 0xA5 & mask(prog.width) if cls is SecurityClass.SECRET else 0
            for t, cls in prog.inputs
            if cls is not SecurityClass.RANDOM
        }
        for model in (secure, base):
            out = solve(model, SolveBudget(seconds=120))
            if out.solution is not None:
                yield (name, tgt, model is secure), linearize(model, out.solution), fixed


@pytest.mark.parametrize(
    "sampling",
    [Exhaustive(), MonteCarlo(samples=CHUNK + 905, seed=11)],
    ids=["exhaustive", "montecarlo"],
)
def test_vector_walk_matches_reference_on_fixture_solutions(sampling):
    if isinstance(sampling, MonteCarlo):
        assert sampling.samples % CHUNK
    cases = list(fixture_harnesses())
    assert len(cases) == 2 * len(EQUIV_CASES)  # every combo solves, secure and base
    for case, h, fixed in cases:
        got = leak_stats(h, fixed, sampling)
        assert_same_stats(got, reference_leak_stats(h, fixed, sampling), case)


def test_vector_walk_matches_reference_at_width_8_over_several_chunks():
    sampling = MonteCarlo(samples=2 * CHUNK + 7, seed=5)
    for case, h, fixed in fixture_harnesses(width=8):
        assert h.width == 8
        got = leak_stats(h, fixed, sampling)
        assert_same_stats(got, reference_leak_stats(h, fixed, sampling), case)
    # one exhaustive secret instance over (2^8)^2 assignments, 16 chunks
    src = FIXTURE_SOURCES["goubin_mask"].replace("width 4", "width 8", 1)
    _, _, secure = front_end(parse_program(src), TARGETS["thumb-like"], "reg")
    h = linearize(secure, solve(secure).solution)
    assert (1 << 16) // CHUNK > 1 and len(h.random_inputs()) == 2
    fixed = {t.id: 0x3C for t, cls in secure.program.inputs if cls is SecurityClass.SECRET}
    assert_same_stats(leak_stats(h, fixed), reference_leak_stats(h, fixed))


def test_exhaustive_chunks_follow_product_order():
    inputs = ((5, SecurityClass.RANDOM, 0), (9, SecurityClass.RANDOM, 1))
    h = Harness(instrs=(), inputs=inputs, width=8)
    chunks = list(leakage._assignment_chunks(h, Exhaustive(), None))
    assert len(chunks) == (1 << 16) // CHUNK
    lanes = np.concatenate(chunks, axis=1)
    assert lanes.T.tolist() == [list(c) for c in itertools.product(range(256), repeat=2)]


def random_address_harness():
    """Stores and reloads a secret word at an address held by a random input."""
    return Harness(
        instrs=(
            MInstr(1, "xor", 2, (("reg", 1), ("reg", 0))),
            MInstr(2, "store", None, (("reg", 2),), ("reg", 0)),
            MInstr(3, "store", None, (("reg", 1),), ("lit", 3)),
            MInstr(4, "load", 3, (), ("reg", 0)),
            MInstr(5, "load", 4, (), ("lit", 3)),
        ),
        inputs=((0, SecurityClass.RANDOM, 0), (1, SecurityClass.SECRET, 1)),
        width=4,
    )


@pytest.mark.parametrize(
    "sampling", [Exhaustive(), MonteCarlo(samples=300, seed=2)], ids=["exhaustive", "montecarlo"]
)
def test_lane_dependent_address_falls_back_to_simulate(monkeypatch, sampling):
    calls = []
    real = leakage._simulate_lanes

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(leakage, "_simulate_lanes", counting)
    h = random_address_harness()
    for secret in (0x0, 0x9):
        got = leak_stats(h, {1: secret}, sampling)
        assert_same_stats(got, reference_leak_stats(h, {1: secret}, sampling))
    assert len(calls) == 2


def test_uniform_register_address_stays_vectorized(monkeypatch):
    monkeypatch.setattr(leakage, "_simulate_lanes", None)
    h = random_address_harness()
    # the address register holds a fixed (public) word in every lane
    h = Harness(h.instrs, ((0, SecurityClass.PUBLIC, 0), (1, SecurityClass.RANDOM, 1)), 4)
    assert_same_stats(leak_stats(h, {0: 6}), reference_leak_stats(h, {0: 6}))


@pytest.mark.parametrize(
    "address, inputs, fixed",
    [
        (("lit", 99), ((0, SecurityClass.RANDOM, 0),), {}),
        (("reg", 0), ((0, SecurityClass.PUBLIC, 0), (1, SecurityClass.RANDOM, 1)), {0: 7}),
        (("reg", 0), ((0, SecurityClass.RANDOM, 0),), {}),  # differs per lane: fallback
    ],
    ids=["literal", "uniform-register", "random-register"],
)
def test_uninitialized_load_message_unchanged(address, inputs, fixed):
    h = Harness((MInstr(1, "load", 2, (), address),), inputs, 4)
    with pytest.raises(SimulationError) as want:
        reference_leak_stats(h, fixed)
    with pytest.raises(SimulationError) as got:
        leak_stats(h, fixed)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("read of uninitialized memory address ('abs', ")


def test_shared_draws_give_the_verdict_of_separate_draws():
    # leaky: the product of the secret and a random is always 0 for a zero secret
    h = Harness(
        instrs=(
            MInstr(1, "xor", 2, (("reg", 1), ("reg", 0))),
            MInstr(2, "copy", 2, (("reg", 1),)),
            MInstr(3, "gf_mul", 3, (("reg", 2), ("reg", 0))),
        ),
        inputs=((0, SecurityClass.RANDOM, 0), (1, SecurityClass.SECRET, 1)),
        width=8,
    )
    mc = MonteCarlo(samples=CHUNK + 1, seed=42)
    shared = check_equivalence(h, {}, ({1: 0x00}, {1: 0xFF}), mc)
    separate = compare_stats(
        h, leak_stats(h, {1: 0x00}, mc), leak_stats(h, {1: 0xFF}, mc), mc
    )
    assert shared == separate
    assert not shared.equivalent and shared.positions
    reference = compare_stats(
        h, reference_leak_stats(h, {1: 0x00}, mc), reference_leak_stats(h, {1: 0xFF}, mc), mc
    )
    assert shared == reference
