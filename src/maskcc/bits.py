"""Fixed-width word arithmetic shared by the simulator and the type checkers.

Words are plain ints masked to the program width, or int64 numpy arrays of
such words for the elementwise (`_vec`) forms. Finite-field multiplication
uses one fixed reduction polynomial per width (see REDUCTION_POLY).
"""

from __future__ import annotations

import numpy as np

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
    """Carry-less multiplication in GF(2^width) modulo REDUCTION_POLY[width]."""
    poly = REDUCTION_POLY[width]
    m = mask(width)
    a &= m
    b &= m
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> width:
            a ^= poly
    return acc & m


def gf_mul_vec(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """`gf_mul` elementwise over int64 arrays of words."""
    poly = REDUCTION_POLY[width]
    m = mask(width)
    aa = a & m
    bb = b & m
    acc = np.zeros(np.broadcast_shapes(aa.shape, bb.shape), dtype=np.int64)
    for _ in range(width):
        acc ^= np.where(bb & 1, aa, 0)
        bb >>= 1
        aa <<= 1
        aa = np.where(aa >> width, aa ^ poly, aa)
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


def apply_binop_vec(opcode: str, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """`apply_binop` elementwise over int64 arrays of words."""
    if opcode == "gf_mul":
        return gf_mul_vec(a, b, width)
    return apply_binop(opcode, a, b, width)
