"""Dense exact linear algebra over Fraction, cyclotomic, or number-field
entries.

It serves the small dim x dim problems on a symbol space: Hecke
eigenspaces over a number field, the cuspidal subspace and restrictions
to it.  The Manin-symbol quotient and the rational eigenfunctionals are
a sparse integer elimination in `modsym`, not an RREF here.

Everything scans in a fixed order (first nonzero pivot, left to right), so
bases come out the same on every run.  Matrices are plain lists of lists.
"""

from __future__ import annotations

from fractions import Fraction


def is_zero(x) -> bool:
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return x == 0


def inv(x):
    f = getattr(x, "inverse", None)
    if f is not None:
        return f()
    return Fraction(1) / x


def rref(rows):
    """Reduced row echelon form (copy); returns (matrix, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        src = None
        for i in range(rank, len(m)):
            if not is_zero(m[i][col]):
                src = i
                break
        if src is None:
            continue
        m[rank], m[src] = m[src], m[rank]
        piv = inv(m[rank][col])
        m[rank] = [piv * x for x in m[rank]]
        for i in range(len(m)):
            if i != rank and not is_zero(m[i][col]):
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m, pivots


def right_kernel(rows, ncols, one):
    """Basis of {v : rows . v = 0}; `one` is the multiplicative identity of
    the entry field (sets the ring of the output)."""
    zero = one - one
    if not rows:
        basis = []
        for j in range(ncols):
            v = [zero] * ncols
            v[j] = one
            basis.append(v)
        return basis
    r, pivots = rref(rows)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = [zero] * ncols
        v[j] = one
        for i, pc in enumerate(pivots):
            v[pc] = zero - r[i][j]
        basis.append(v)
    return basis


def solve_right(rows, b):
    """One solution of rows . x = b, or None."""
    aug = [list(r) + [bv] for r, bv in zip(rows, b)]
    ncols = len(rows[0])
    r, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = b[0] - b[0]
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][-1]
    return x
