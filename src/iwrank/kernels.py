"""Integer polynomial kernel: multiplication, on a loop or packed slots,
and the fold by x^h = e.

All inputs are lists of Python ints, low degree first: arithmetic must
stay arbitrary-precision.  `convolve` multiplies either by a loop over
the pairs of nonzero terms or by Kronecker substitution (Harvey, J.
Symb. Comp. 44, 2009): each vector is packed into one Python int,
CPython's Karatsuba multiplies the two, and the product's coefficients
are read back out of its bytes.  Given a number field's period h and
sign e, it returns the product folded below x^h: the loop's output by
`fold`, the package's one fold, and the packed product split at slot h
and read back as lo + e hi, modulo 2^(8 width h) - e (Schoenhage and
Strassen, Computing 7, 1971).

`convolve_fixed` multiplies by a `FixedOperand`, an operand that many
products share, such as a number field's defining polynomial f or its
Barrett quotient x^k div f, by which every reduction in the field
multiplies (`numfield._reduce`).  The operand is scanned for its
nonzero count and bound once, when it is made, and keeps its packed
form for each slot width from its first product at that width for as
long as it lives, so a later product packs only the other vector.  At
n = 1711, packing Phi_n and scanning it for its bound take about 100 of
the 175 us that the quotient-times-Phi_n product takes without them.  A
product of two varying vectors, such as two field elements, goes
through `convolve` and keeps nothing.

`_kronecker` owns the slot format: it sizes the slots for a bound on
the product's coefficients, max|a| max|b| min(nonzero terms of a, of b),
as each is a sum of at most one term per nonzero term of either operand
(folded too, for operands below x^h), so two Gauss sums of 58 unit terms
pack into 1-byte slots.  `_pack` moves a vector into one int of such
slots, `_bias` is the int that fills `count` slots with half their
range, and the product is read back out of its bytes.  No other module
of the package reads them, nor the packed forms an operand keeps.
"""

import operator
import sys
from array import array
from itertools import compress

# Pure Python; kept so that tools reporting the kernel build can read it.
COMPILED = False

# Cost model for the choice of method, in schoolbook multiply-adds: the
# schoolbook loop makes one per pair of nonzero terms (la*lb of them for
# dense operands), and Kronecker substitution costs about
# KRONECKER_SETUP + KRONECKER_PER_SLOT*slots of them more, where `slots`
# counts the slots it packs (la + lb, or la when b comes packed) less the
# n - count slots beyond x^h that the loop folds (reading back `count`
# slots costs about what the loop's walk over the operands and its output
# does).  Both constants are a fit to timings of dense, pre-packed and
# folded sparse operands (benchmarks/bench_kernels.py prints the three
# row sets): the model switches at length 7-8 for equal dense lengths
# (measured 7-9) and at length 1 against a packed Phi_1711 (measured 1),
# and takes Kronecker substitution for two sums of c unit terms in h
# slots once c^2 > 30 + 1.2 (h + 1): from c = 9 at h = 41, c = 46 at h = 1711.
KRONECKER_SETUP = 30
KRONECKER_PER_SLOT = 1.2

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


def fold(vec, h, sign):
    """vec folded below x^h by x^h = sign; vec itself when it is no
    longer than h."""
    if len(vec) <= h:
        return vec
    out = vec[:h]
    for start in range(h, len(vec), h):
        tail = vec[start:start + h]
        # x^(qh + r) = sign^q x^r
        op = operator.sub if sign == -1 and start // h % 2 else operator.add
        out[:len(tail)] = map(op, out, tail)
    return out


def _top(vec, nonzero):
    """max |vec[i]|, read off the `nonzero` nonzero terms if they are few."""
    if 2 * nonzero < len(vec):
        vec = compress(vec, vec)
    return max(map(abs, vec), default=0)


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


def _kronecker(a, b, bound, b_packed=None, period=None, sign=1):
    """Product of two non-empty vectors by Kronecker substitution, for a
    `bound` on the size of its coefficients, before the fold too; with a
    period h, folded below x^h by x^h = sign.  b's packed forms are read
    and kept in a dict b_packed, by slot width, when one is given."""
    n = len(a) + len(b) - 1
    count = n if period is None else min(n, period)
    if not bound:
        return [0] * count
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
    prod = _pack(a, width) * packed + bias
    if count < n:
        # the biased product is lo + 2^(8 width h) hi, both biased slot by
        # slot (unbiased, lo < 0 would borrow from hi), so lo + sign (hi -
        # its bias) is the folded product over the bias of h slots
        shift = 8 * width * count
        mask = (1 << shift) - 1
        prod = (prod & mask) + sign * ((prod >> shift) - (bias >> shift))
        bias &= mask
    raw = (prod ^ bias).to_bytes(width * count, "little")
    if width in _WORDS:
        return memoryview(raw).cast(_WORDS[width]).tolist()
    return [int.from_bytes(raw[k:k + width], "little", signed=True)
            for k in range(0, len(raw), width)]


def _prefers_kronecker(terms, slots):
    """The cost model's choice for a product whose nonzero terms make
    `terms` pairs, where Kronecker substitution would pack `slots` slots
    more than the loop would fold."""
    return terms > KRONECKER_SETUP + KRONECKER_PER_SLOT * slots


def convolve(a, b, period=None, sign=1):
    """Product of two integer polynomials given as coefficient lists; with
    a period h, folded below x^h by x^h = sign."""
    if not a or not b:
        return []
    if period is not None and max(len(a), len(b)) > period:
        # operands below x^h wrap at most once, and each slot of their
        # product takes at most one term per nonzero term of either
        a, b = fold(a, period, sign), fold(b, period, sign)
    la, lb = len(a), len(b)
    na, nb = la - a.count(0), lb - b.count(0)
    n = la + lb - 1
    count = n if period is None else min(n, period)
    if _prefers_kronecker(na * nb, la + lb + count - n):
        return _kronecker(a, b, _top(a, na) * _top(b, nb) * min(na, nb),
                          period=period, sign=sign)
    out = _schoolbook(a, b)
    return out if count == n else fold(out, period, sign)


class FixedOperand(tuple):
    """A tuple of ints that many products share, with its nonzero count,
    its max |coefficient| and its packed form for each slot width used
    so far (`packed`, filled by `convolve_fixed`)."""

    def __new__(cls, coeffs):
        self = super().__new__(cls, map(int, coeffs))
        self.nonzero = len(self) - self.count(0)
        self.top = max(map(abs, self), default=0)
        self.packed = {}
        return self


def convolve_fixed(a, fixed):
    """convolve(a, fixed) for a `FixedOperand` fixed, packed once per slot
    width."""
    if not a or not fixed:
        return []
    la = len(a)
    na = la - a.count(0)
    if _prefers_kronecker(na * fixed.nonzero, la):
        return _kronecker(a, fixed, _top(a, na) * fixed.top * min(na, fixed.nonzero),
                          fixed.packed)
    return _schoolbook(a, fixed)
