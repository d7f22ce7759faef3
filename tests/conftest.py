"""Shared fixture programs and helper targets.

The fixture corpus mixes the running masked-xor kernel with boolean, GF and
arithmetic masking kernels, memory-heavy kernels and spill-forcing
synthetics. `ORACLE_CASES` lists the (fixture, target, copy budget) combos
small enough for exhaustive brute-force comparison; `EQUIV_CASES` lists the
secret-carrying combos used for exhaustive leakage-equivalence sweeps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from maskcc.cli import front_end
from maskcc.ir import parse_program
from maskcc.target import PRESETS, TargetDesc, _ops

FIXTURE_SOURCES = {
    # the running example: first-order masked exclusive or
    "xor_p0": """
func xor_p0 width 4
in t0:public t1:random t2:secret
t3 = xor t1, t2
t4 = xor t0, t3
out t4
""",
    # boolean masking texture: xor/not chain over two fresh masks
    "goubin_mask": """
func goubin_mask width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
t4 = not t3
t5 = xor t4, t2
t6 = xor t5, t1
out t6
""",
    # field-multiplication kernel: the product is secret until remasked
    "secmult_gf": """
func secmult_gf width 4
in t0:secret t1:random t2:random
t3 = gf_mul t0, t1
t4 = xor t3, t2
out t4
""",
    # arithmetic masking: modular add keeps the secret exposed until the xor
    "arith_mask": """
func arith_mask width 4
in t0:secret t1:random t2:random
t3 = add t0, t1
t4 = xor t3, t2
out t4
""",
    # a secret-typed intermediate written to a register (needs hiding writes)
    "sec_reload": """
func sec_reload width 4
in t0:secret t1:random
t2 = not t0
t3 = xor t2, t1
out t3
""",
    # double remasking; every derived temp stays random
    "two_shares": """
func two_shares width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
t4 = xor t3, t2
t5 = xor t4, t1
out t5
""",
    # secret data goes through memory: the bus needs random writes around it
    "mem_secret": """
func mem_secret width 4
in t0:secret t1:random
t2 = xor t0, t1
store 0, t2
store 1, t0
t3 = load 0
out t3
""",
    # two stores whose data xors to the secret must not be bus-adjacent
    "mem_pair": """
func mem_pair width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
store 0, t1
store 1, t3
store 2, t2
t4 = load 2
out t4
""",
    # mandatory store/load round trip (memory ordering, no optional spills)
    "roundtrip": """
func roundtrip width 4
in t0:random t1:random
store 0, t0
t2 = xor t0, t1
t3 = load 0
t4 = xor t2, t3
out t4
""",
    # register pressure beyond the small register file: forces a spill
    "spill_force": """
func spill_force width 4
in t0:random t1:random t2:random
t3 = xor t0, t1
t4 = xor t3, t2
t5 = xor t4, t0
t6 = xor t5, t1
t7 = xor t6, t2
out t7
""",
    # register pressure with a long-lived secret share
    "spill_sec": """
func spill_sec width 4
in t0:secret t1:random t2:random
t3 = xor t0, t1
t4 = xor t1, t2
t5 = not t4
t6 = xor t5, t0
t7 = xor t6, t3
out t7
""",
    # no security work to do at all
    "allpub": """
func allpub width 4
in t0:public t1:public
t2 = xor t0, t1
t3 = and t2, t0
out t3
""",
    # smallest possible program
    "identity": """
func identity width 4
in t0:public
out t0
""",
    # a live secret temp with no random to hide behind: unsatisfiable
    "nohide": """
func nohide width 4
in t0:secret
t1 = not t0
out t1
""",
    # a two-address op with no temp operand may write any register
    "lit_xor": """
func lit_xor width 4
in t0:random
t1 = xor 3, 5
out t1
""",
}

MINI = TargetDesc(
    name="mini",
    registers=("R0", "R1", "R2"),
    args=("R0", "R1", "R2"),
    result="R0",
    stack_slots=2,
    ops=_ops(alu_two_address=False),
)

QUAD = TargetDesc(
    name="quad",
    registers=("R0", "R1", "R2", "R3"),
    args=("R0", "R1", "R2"),
    result="R0",
    stack_slots=2,
    ops=_ops(alu_two_address=False),
)

TARGETS = dict(PRESETS, mini=MINI, quad=QUAD)

# (fixture, target, copy_budget) combos whose models stay oracle-sized
ORACLE_CASES = [
    ("xor_p0", "thumb-like", "none"),
    ("xor_p0", "mips-like", "none"),
    ("xor_p0", "thumb-like", "reg"),
    ("goubin_mask", "quad", "none"),
    ("secmult_gf", "quad", "reg"),
    ("arith_mask", "quad", "reg"),
    ("sec_reload", "quad", "reg"),
    ("two_shares", "mini", "none"),
    ("mem_secret", "mini", "reg"),
    ("mem_pair", "mini", "none"),
    ("roundtrip", "mini", "none"),
    ("allpub", "thumb-like", "none"),
    ("identity", "thumb-like", "none"),
    ("nohide", "thumb-like", "reg"),
    ("lit_xor", "thumb-like", "none"),
]

# secret-carrying combos for the leakage-equivalence sweeps
EQUIV_CASES = [
    ("xor_p0", "thumb-like", "none"),
    ("xor_p0", "mips-like", "none"),
    ("goubin_mask", "thumb-like", "reg"),
    ("secmult_gf", "thumb-like", "reg"),
    ("arith_mask", "mips-like", "reg"),
    ("sec_reload", "thumb-like", "reg"),
    ("two_shares", "mini", "none"),
    ("mem_secret", "mips-like", "reg"),
    ("mem_pair", "mini", "none"),
    ("spill_sec", "mini", "full"),
]


def fixture_program(name: str):
    return parse_program(FIXTURE_SOURCES[name])


def build_models(name: str, target: str, copy_budget: str):
    """(base model, secure model, sets) for a fixture combo."""
    base, sets, secure = front_end(fixture_program(name), TARGETS[target], copy_budget)
    return base, secure, sets


def narrow(model, placements: dict[int, int]):
    """The model with each temp's location domain narrowed to one location."""
    return replace(model, r_dom={**model.r_dom, **{t: (loc,) for t, loc in placements.items()}})


@pytest.fixture
def xor_program():
    return fixture_program("xor_p0")


@pytest.fixture
def xor_models():
    return build_models("xor_p0", "thumb-like", "full")
