"""Integer polynomial kernel: multiplication, on a loop or packed slots.

All inputs are lists of Python ints, low degree first: arithmetic must
stay arbitrary-precision.  `convolve` multiplies either by a loop over
the pairs of nonzero terms or by Kronecker substitution (Harvey, J.
Symb. Comp. 44, 2009): each vector is packed into one Python int,
CPython's Karatsuba multiplies the two, and the product's coefficients
are read back out of its bytes.  Sparse operands, such as sums of a few
dozen roots of unity in a ring of a thousand slots, take the loop.

`convolve_fixed` multiplies by an operand that many products share: a
tuple, such as a number field's defining polynomial f or its Barrett
quotient x^k div f, by which every reduction in the field multiplies
(`numfield._reduce`).  Such an operand is scanned and packed on its
first product and kept (`_FIXED`), so a later product packs only the
other vector.  At n = 1711, packing Phi_n and scanning it for its bound
take about 100 of the 175 us that the quotient-times-Phi_n product
takes without the memo.  A product of two varying vectors, such as two
field elements, goes through `convolve` and keeps nothing.

`_kronecker` owns the slot format: it sizes the slots for a bound on
the product's coefficients, `_pack` moves a vector into one int of such
slots, `_bias` is the int that fills `count` slots with half their
range, and the product is read back out of its bytes.  No other module
of the package reads them, nor the packed forms kept in `_FIXED`.
"""

import sys
from array import array
from itertools import compress

# Pure Python; kept so that tools reporting the kernel build can read it.
COMPILED = False

# Cost model for the choice of method, in schoolbook multiply-adds: the
# schoolbook loop makes one per pair of nonzero terms (la*lb of them for
# dense operands), and Kronecker substitution costs about
# KRONECKER_SETUP + KRONECKER_PER_SLOT*slots of them more, where `slots`
# counts the slots it packs: la + lb, or la when b comes packed (reading
# the product back costs about what the loop's walk over the operands and
# its output does).  Both constants are a fit to timings of dense, sparse
# and pre-packed operands (benchmarks/bench_kernels.py prints the three
# row sets): the model switches at length 9 for equal dense lengths
# (measured 10) and at length 1 against a packed Phi_1711 (measured 1),
# and keeps the loop for Gauss sums of about 50 unit terms in 1081 slots
# or more.
KRONECKER_SETUP = 50
KRONECKER_PER_SLOT = 1.3

# The operands of `convolve_fixed`, by id: each entry holds the operand
# (so that no other object takes its id while it is kept), its nonzero
# count, its max |coefficient| and its packed form for each slot width
# used so far.  A field that reduces keeps two, f and its Barrett
# quotient; past FIXED_LIMIT entries the oldest goes.
FIXED_LIMIT = 256
_FIXED = {}

# Slots of a machine word's size pack and unpack through one array call;
# array type code of each signed word size (none on big-endian hosts,
# whose words do not line up with the little-endian slots).  Against the
# per-slot to_bytes/from_bytes path it makes `_kronecker` 1.3-2.3x faster
# at lengths 16..1624 and the `gauss` workload's jobs 1.5x faster
# (Xeon, 2 cores, CPython 3.11).
_WORDS = ({array(code).itemsize: code for code in "bhiq"}
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
    """The int whose `count` slots of `width` bytes each hold 2^(8 width - 1).

    XOR with it flips the sign bit of every slot, which takes a slot in
    two's complement, c mod 2^(8 width), to c + 2^(8 width - 1), and back."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vec, width):
    """sum vec[i] 2^(8 width i), for |vec[i]| < 2^(8 width - 1)."""
    if width in _WORDS:
        raw = array(_WORDS[width], vec).tobytes()
    else:
        raw = b"".join(c.to_bytes(width, "little", signed=True) for c in vec)
    bias = _bias(width, len(vec))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _kronecker(a, b, b_max=None, b_packed=None):
    """Product of two non-empty vectors by Kronecker substitution.  b's
    max |coefficient| may be given, and a dict b_packed in which b's
    packed forms are read and kept, by slot width."""
    la, lb = len(a), len(b)
    n = la + lb - 1
    # every product coefficient is at most max|a| max|b| min(la, lb) in size
    if b_max is None:
        b_max = max(map(abs, b))
    bound = max(map(abs, a)) * b_max * min(la, lb)
    if not bound:
        return [0] * n
    # a slot holds the bound and a sign bit, in whole bytes, and is a
    # machine word if one is wide enough
    width = bound.bit_length() // 8 + 1
    width = min((w for w in _WORDS if w >= width), default=width)
    if b_packed is None:
        b_packed = {}
    packed = b_packed.get(width)
    if packed is None:
        packed = b_packed[width] = _pack(b, width)
    # biasing every slot by half its range makes every digit of the
    # product non-negative, so its bytes split into the slots directly;
    # flipping the sign bits then leaves each slot in two's complement
    bias = _bias(width, n)
    raw = ((_pack(a, width) * packed + bias) ^ bias).to_bytes(width * n, "little")
    if width in _WORDS:
        return memoryview(raw).cast(_WORDS[width]).tolist()
    return [int.from_bytes(raw[k:k + width], "little", signed=True)
            for k in range(0, len(raw), width)]


def _prefers_kronecker(terms, slots):
    """The cost model's choice for a product whose nonzero terms make
    `terms` pairs, where Kronecker substitution would pack `slots` slots."""
    return terms > KRONECKER_SETUP + KRONECKER_PER_SLOT * slots


def convolve(a, b):
    """Product of two integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if _prefers_kronecker((la - a.count(0)) * (lb - b.count(0)), la + lb):
        return _kronecker(a, b)
    return _schoolbook(a, b)


def convolve_fixed(a, fixed):
    """convolve(a, fixed) for a tuple `fixed` that many products share,
    such as a field's defining polynomial, which is kept packed."""
    if not a or not fixed:
        return []
    entry = _FIXED.get(id(fixed))
    if entry is None:
        if len(_FIXED) >= FIXED_LIMIT:
            del _FIXED[next(iter(_FIXED))]
        entry = _FIXED[id(fixed)] = (fixed, len(fixed) - fixed.count(0),
                                     max(map(abs, fixed)), {})
    _, nonzero, top, packed = entry
    la = len(a)
    if _prefers_kronecker((la - a.count(0)) * nonzero, la):
        return _kronecker(a, fixed, top, packed)
    return _schoolbook(a, fixed)
