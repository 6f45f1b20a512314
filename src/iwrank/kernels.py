"""Integer polynomial kernel: multiplication.

All inputs are lists of Python ints, low degree first: arithmetic must
stay arbitrary-precision.  `convolve` multiplies by Kronecker
substitution (Harvey, J. Symb. Comp. 44, 2009): each vector is packed
into one Python int, CPython's Karatsuba multiplies the two, and the
product's coefficients are read back out of its bytes.
"""

import sys
from array import array

# Pure Python; kept so that tools reporting the kernel build can read it.
COMPILED = False

# Cost model for the choice of method, in schoolbook multiply-adds: the
# schoolbook loop makes la*lb of them, and Kronecker substitution costs
# about KRONECKER_SETUP + KRONECKER_PER_COEFF*(la + lb) of them.  Both
# constants are a least-squares fit to timings of equal and unequal
# operand lengths (benchmarks/bench_kernels.py prints both row sets).  The
# model switches at length 11 for equal lengths (measured 10-12) and at
# length 2 against 1624 (measured 2).
KRONECKER_SETUP = 80
KRONECKER_PER_COEFF = 1.5

# Slots of a machine word's size pack and unpack through one array call;
# array type code of each unsigned word size (none on big-endian hosts,
# whose words do not line up with the little-endian slots).  Against the
# per-slot to_bytes/from_bytes path it makes `_kronecker` 1.3-2.3x faster
# at lengths 16..1624 and the `gauss` workload's jobs 1.5x faster
# (Xeon, 2 cores, CPython 3.11).
_WORDS = ({array(code).itemsize: code for code in "BHIQ"}
          if sys.byteorder == "little" else {})


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _bias(width, count):
    """The int whose `count` slots of `width` bytes each hold 2^(8 width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vec, width, half):
    """sum vec[i] 2^(8 width i), through slots biased by `half`."""
    if width in _WORDS:
        raw = array(_WORDS[width], [c + half for c in vec]).tobytes()
    else:
        raw = b"".join((c + half).to_bytes(width, "little") for c in vec)
    return int.from_bytes(raw, "little") - _bias(width, len(vec))


def _unpack(raw, width, half):
    if width in _WORDS:
        return [u - half for u in memoryview(raw).cast(_WORDS[width])]
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, len(raw), width)]


def _kronecker(a, b):
    """Product of two non-empty vectors by Kronecker substitution."""
    la, lb = len(a), len(b)
    n = la + lb - 1
    # every product coefficient is at most max|a| max|b| min(la, lb) in size
    bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
    if not bound:
        return [0] * n
    # a slot holds that plus a sign bit, in whole bytes; a machine word
    # if one is wide enough
    width = bound.bit_length() // 8 + 1
    width = min((w for w in _WORDS if w >= width), default=width)
    half = 1 << (8 * width - 1)
    # biasing each slot by `half` makes every digit of the product
    # non-negative, so its bytes split into the slots directly
    prod = _pack(a, width, half) * _pack(b, width, half) + _bias(width, n)
    return _unpack(prod.to_bytes(width * n, "little"), width, half)


def _prefers_kronecker(la, lb):
    """The cost model's choice for operands of lengths la and lb."""
    return la * lb > KRONECKER_SETUP + KRONECKER_PER_COEFF * (la + lb)


def convolve(a, b):
    """Product of two integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    if _prefers_kronecker(len(a), len(b)):
        return _kronecker(a, b)
    return _schoolbook(a, b)

