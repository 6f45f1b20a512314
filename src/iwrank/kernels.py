"""Integer polynomial kernel: multiplication, on a loop or packed slots.

All inputs are lists of Python ints, low degree first: arithmetic must
stay arbitrary-precision.  `convolve` multiplies either by a loop over
the pairs of nonzero terms or by Kronecker substitution (Harvey, J.
Symb. Comp. 44, 2009): each vector is packed into one Python int,
CPython's Karatsuba multiplies the two, and the product's coefficients
are read back out of its bytes.  Sparse operands, such as sums of a few
dozen roots of unity in a ring of a thousand slots, take the loop.

`_kronecker` owns the slot format: it sizes the slots for a bound on
the product's coefficients, `_pack` moves a vector into one int of such
slots, `_bias` is the int that fills `count` slots with half their
range, and the product is read back out of its bytes.  No other module
of the package reads them.
"""

import sys
from array import array
from itertools import compress

# Pure Python; kept so that tools reporting the kernel build can read it.
COMPILED = False

# Cost model for the choice of method, in schoolbook multiply-adds: the
# schoolbook loop makes one per pair of nonzero terms (la*lb of them for
# dense operands), and Kronecker substitution costs
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
    """Product of two non-empty vectors over their nonzero terms."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, b[j]) for j in compress(range(len(b)), b)]
    for i in compress(range(len(a)), a):
        ai = a[i]
        for j, bj in terms:
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


def _kronecker(a, b):
    """Product of two non-empty vectors by Kronecker substitution."""
    la, lb = len(a), len(b)
    n = la + lb - 1
    # every product coefficient is at most max|a| max|b| min(la, lb) in size
    bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
    if not bound:
        return [0] * n
    # a slot holds the bound and a sign bit, in whole bytes, and is a
    # machine word if one is wide enough
    width = bound.bit_length() // 8 + 1
    width = min((w for w in _WORDS if w >= width), default=width)
    half = 1 << (8 * width - 1)
    # biasing each slot by `half` makes every digit of the product
    # non-negative, so its bytes split into the slots directly
    prod = _pack(a, width, half) * _pack(b, width, half) + _bias(width, n)
    raw = prod.to_bytes(width * n, "little")
    if width in _WORDS:
        return [u - half for u in memoryview(raw).cast(_WORDS[width])]
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, len(raw), width)]


def _prefers_kronecker(la, lb, terms):
    """The cost model's choice for operands of lengths la and lb whose
    nonzero terms make `terms` products."""
    return terms > KRONECKER_SETUP + KRONECKER_PER_COEFF * (la + lb)


def convolve(a, b):
    """Product of two integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if _prefers_kronecker(la, lb, (la - a.count(0)) * (lb - b.count(0))):
        return _kronecker(a, b)
    return _schoolbook(a, b)

