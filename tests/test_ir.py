import pytest
from hypothesis import given, settings, strategies as st

from maskcc.ir import (
    BINARY_OPCODES,
    IrOperation,
    Literal,
    ParseError,
    Program,
    SecurityClass,
    Temp,
    parse_program,
    render_program,
    validate,
)
from maskcc.typeinf import infer_types

XOR_SRC = """\
# masked xor kernel
func xor_p0 width 4
in t0:public t1:random t2:secret
t3 = xor t1, t2
t4 = xor t0, t3
out t4
"""


def test_parse_xor_kernel():
    p = parse_program(XOR_SRC)
    assert p.name == "xor_p0"
    assert p.width == 4
    assert [cls for _, cls in p.inputs] == [
        SecurityClass.PUBLIC,
        SecurityClass.RANDOM,
        SecurityClass.SECRET,
    ]
    assert len(p.body) == 2
    assert p.body[0].opcode == "xor"
    assert p.body[0].uses == (Temp(1), Temp(2))
    assert p.outputs == (Temp(4),)


def test_parse_identity_program():
    p = parse_program("func id width 8\nin t0:public\nout t0\n")
    assert p.body == ()
    assert p.outputs == (Temp(0),)
    assert validate(p) == []


def test_use_before_def_rejected():
    src = "func f width 4\nin t0:public\nt1 = xor t9, t0\nout t1\n"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert "t9" in str(e.value)


def test_duplicate_definition_rejected():
    src = "func f width 4\nin t0:public t1:public\nt1 = xor t0, t0\nout t1\n"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert "duplicate" in str(e.value)


def test_sparse_ids_rejected():
    src = "func f width 4\nin t0:public\nt5 = not t0\nout t5\n"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert "dense" in str(e.value)


def test_unknown_opcode_rejected():
    src = "func f width 4\nin t0:public\nt1 = frob t0\nout t1\n"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert "opcode" in str(e.value)


def test_syntax_error_carries_position():
    src = "func f width 4\nin t0:public\nt1 = = xor\nout t0\n"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert e.value.line == 3


@pytest.mark.parametrize("src, line", [
    ("func a width 4\nin t0:public\nfunc b width 8\nt1 = not t0\nout t1\n", 3),
    ("func a width 4\n  func a width 4\nin t0:public\nout t0\n", 2),
])
def test_second_func_line_rejected(src, line):
    """A second 'func' line is a syntax error, not a new name and width."""
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.line, e.value.message) == (line, "duplicate 'func' line")


def test_non_numeric_width_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("func f width x\nin t0:public\nout t0\n")
    assert e.value.line == 1 and "width <bits>" in str(e.value)


def test_copy_not_allowed_in_source():
    src = "func f width 4\nin t0:public\nt1 = copy t0\nout t1\n"
    with pytest.raises(ParseError):
        parse_program(src)


def test_store_and_load_shapes():
    src = (
        "func f width 4\nin t0:public t1:random\n"
        "store 16, t1\nt2 = load 16\nstore t0, t2\nout t2\n"
    )
    p = parse_program(src)
    st = p.body[0]
    assert st.opcode == "store" and st.defs is None
    assert st.uses == (Literal(16), Temp(1))
    ld = p.body[1]
    assert ld.opcode == "load" and ld.defs == Temp(2)
    assert p.body[2].uses == (Temp(0), Temp(2))


def test_store_literal_data_rejected():
    src = "func f width 4\nin t0:public\nstore 0, 5\nout t0\n"
    with pytest.raises(ParseError):
        parse_program(src)


def test_validate_flags_store_with_def():
    op = IrOperation(1, "store", (Literal(0), Temp(0)), Temp(1))
    p = Program("f", 4, ((Temp(0), SecurityClass.PUBLIC),), (op,), (Temp(0),))
    codes = {d.code for d in validate(p)}
    assert "store-has-def" in codes


def test_validate_flags_duplicate_defs():
    ops = (
        IrOperation(1, "not", (Temp(0),), Temp(1)),
        IrOperation(2, "not", (Temp(1),), Temp(1)),
    )
    p = Program("f", 4, ((Temp(0), SecurityClass.PUBLIC),), ops, (Temp(1),))
    codes = {d.code for d in validate(p)}
    assert "duplicate-definition" in codes


def test_validate_checks_width_and_inputs():
    p = Program("f", 3, (), (), ())
    codes = {d.code for d in validate(p)}
    assert "bad-width" in codes and "no-inputs" in codes


def test_well_formed_program_validates_clean():
    assert validate(parse_program(XOR_SRC)) == []


def test_render_round_trip():
    p = parse_program(XOR_SRC)
    assert parse_program(render_program(p)) == p


def test_render_is_canonical_fixed_point():
    p = parse_program(XOR_SRC)
    assert render_program(parse_program(render_program(p))) == render_program(p)


def test_every_temp_defined_once():
    p = parse_program(XOR_SRC)
    defs = [t.id for t, _ in p.inputs] + [
        op.defs.id for op in p.body if op.defs is not None
    ]
    assert len(defs) == len(set(defs))


def test_topological_def_positions():
    p = parse_program(XOR_SRC)
    pos = {t.id: 0 for t, _ in p.inputs}
    for i, op in enumerate(p.body, start=1):
        for u in op.uses:
            if isinstance(u, Temp):
                assert pos[u.id] < i
        if op.defs is not None:
            pos[op.defs.id] = i


_OPS = ["xor", "and", "or", "add", "gf_mul", "not"]


@st.composite
def programs(draw):
    n_inputs = draw(st.integers(1, 3))
    classes = draw(
        st.lists(st.sampled_from(["public", "random", "secret"]),
                 min_size=n_inputs, max_size=n_inputs)
    )
    lines = [
        "func gen width 4",
        "in " + " ".join(f"t{i}:{c}" for i, c in enumerate(classes)),
    ]
    n = n_inputs
    for _ in range(draw(st.integers(0, 4))):
        opc = draw(st.sampled_from(_OPS))
        a = draw(st.integers(0, n - 1))
        if opc == "not":
            lines.append(f"t{n} = not t{a}")
        else:
            b = draw(st.integers(0, n - 1))
            lines.append(f"t{n} = {opc} t{a}, t{b}")
        n += 1
    lines.append(f"out t{n - 1}")
    return "\n".join(lines) + "\n"


@given(programs())
@settings(max_examples=60, deadline=None)
def test_parse_render_identity_on_generated_programs(src):
    p = parse_program(src)
    assert parse_program(render_program(p)) == p


@pytest.mark.parametrize(
    "src, line, col, text",
    [
        ("# a\n\n# b\nfunc f width 3\nin t0:public\nout t0\n",
         4, 1, "bad-width: width 3 not in 4/8/16/32"),
        ("func f width 4\n  in\nout t0\n", 2, 3, "no-inputs: program needs at least one input"),
        ("func f width 4\nin t0:public\nt1 = not t0\n out t1 t2\n",
         4, 2, "use-before-def: output t2 undefined"),
        ("func f width 4\nin t0:public\nt1 = not t0\n    t2 = xor t9, t1\nout t2\n",
         4, 5, "use-before-def: t9 not yet defined"),
    ],
)
def test_diagnostic_lands_on_its_statement(src, line, col, text):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, text)


@st.composite
def raw_programs(draw):
    """Programs that `render_program` can express, well formed or not.

    Ops are numbered 1..n and stores have no def. Each temp id, operand,
    opcode, arity, output, the width and the input count is usually well
    formed and sometimes breaks a rule of `validate`.
    """
    next_id = 0

    def usually(good, *bad):
        return draw(st.sampled_from([good] * 16 + list(bad)))

    def fresh() -> Temp:  # a reuse or a gap now and then
        nonlocal next_id
        t = usually(next_id, max(next_id - 1, 0), next_id + 2)
        next_id += 1
        return Temp(t)

    def operand(kind: str):
        if kind == "temp" and next_id > 0:
            return Temp(draw(st.integers(0, next_id - 1)))
        if kind == "undefined":
            return Temp(next_id + draw(st.integers(0, 2)))
        return Literal(draw(st.integers(-3, 300)))

    width = usually(8, 4, 3)
    inputs = tuple((fresh(), draw(st.sampled_from(SecurityClass)))
                   for _ in range(usually(draw(st.integers(1, 3)), 0)))
    body = []
    for k in range(1, draw(st.integers(0, 5)) + 1):
        opcode = usually(draw(st.sampled_from([*BINARY_OPCODES, "not", "load", "store"])),
                         "copy", "frob")
        if opcode == "store":
            uses = (operand(usually("temp", "literal", "undefined")),
                    operand(usually("temp", "literal", "undefined")))
            body.append(IrOperation(k, opcode, uses, None))
            continue
        want = 2 if opcode in BINARY_OPCODES else 1
        uses = tuple(operand(draw(st.sampled_from(["temp", "literal"] * 8 + ["undefined"])))
                     for _ in range(usually(want, 0, 3)))
        body.append(IrOperation(k, opcode, uses, fresh()))
    outputs = tuple(operand(usually("temp", "literal", "undefined"))
                    for _ in range(draw(st.integers(1, 2))))
    return Program("gen", width, inputs, tuple(body), outputs)


@given(raw_programs())
@settings(max_examples=400, deadline=None)
def test_validate_accepts_exactly_what_parses(p):
    try:
        parsed = parse_program(render_program(p))
    except ParseError:
        parsed = None
    assert (validate(p) == []) == (parsed is not None)
    if parsed is not None:
        assert parsed == p
        infer_types(p)
