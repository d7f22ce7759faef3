"""Fixed-width word arithmetic shared by the simulator and the type checkers.

Words are plain ints masked to the program width. `gf_mul`, `apply_binop`
and `apply_unop` also take int64 numpy arrays of such words and then work
elementwise: none of them updates an argument in place or branches on a
word's value. Finite-field multiplication uses one fixed reduction
polynomial per width (see REDUCTION_POLY).
"""

from __future__ import annotations

# Irreducible polynomials, low-weight, one per supported width.
# 4:  x^4 + x + 1
# 8:  x^8 + x^4 + x^3 + x + 1   (the AES polynomial)
# 16: x^16 + x^5 + x^3 + x + 1
# 32: x^32 + x^7 + x^3 + x^2 + 1
REDUCTION_POLY = {
    4: 0x13,
    8: 0x11B,
    16: 0x1002B,
    32: 0x10000008D,
}


def mask(width: int) -> int:
    return (1 << width) - 1


def hw(x: int) -> int:
    """Hamming weight (population count) of a nonnegative word."""
    if x < 0:
        raise ValueError("hw expects a nonnegative word")
    return x.bit_count()


def gf_mul(a: int, b: int, width: int) -> int:
    """Carry-less multiplication in GF(2^width) modulo REDUCTION_POLY[width].

    One shift-and-reduce step per bit of `b`, written with multiplications
    by 0/1 instead of branches so that int64 arrays of words work too.
    """
    poly = REDUCTION_POLY[width]
    m = mask(width)
    a = a & m
    b = b & m
    acc = 0
    for _ in range(width):
        acc = acc ^ (a * (b & 1))
        b = b >> 1
        a = a << 1
        a = a ^ (poly * (a >> width))
    return acc & m


def apply_binop(opcode: str, a: int, b: int, width: int) -> int:
    m = mask(width)
    if opcode == "xor":
        return (a ^ b) & m
    if opcode == "and":
        return (a & b) & m
    if opcode == "or":
        return (a | b) & m
    if opcode == "add":
        return (a + b) & m
    if opcode == "gf_mul":
        return gf_mul(a, b, width)
    raise ValueError(f"not a binary opcode: {opcode}")


def apply_unop(opcode: str, a: int, width: int) -> int:
    if opcode == "not":
        return ~a & mask(width)
    if opcode == "copy":
        return a & mask(width)
    raise ValueError(f"not a unary opcode: {opcode}")

