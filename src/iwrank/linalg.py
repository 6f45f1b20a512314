"""Dense exact linear algebra over Fraction, cyclotomic, or number-field
entries.

It serves the small dim x dim problems on a symbol space: Hecke
eigenspaces, the cuspidal subspace, restrictions and characteristic
polynomials.  The Manin-symbol quotient itself is a sparse integer
elimination in `modsym`, not an RREF here.

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


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_vec(rows, v):
    out = []
    for r in rows:
        acc = r[0] * v[0]
        for x, y in zip(r[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    bt = transpose(b)
    return [[_dot(r, c) for c in bt] for r in a]


def _dot(r, c):
    acc = r[0] * c[0]
    for x, y in zip(r[1:], c[1:]):
        acc = acc + x * y
    return acc


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


def rank(rows) -> int:
    return len(rref(rows)[1])


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
    one = None
    for row in rows:
        for x in row:
            one = x
            break
        if one is not None:
            break
    zero = b[0] - b[0]
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][-1]
    return x


def identity(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def charpoly(rows, one):
    """det(xI - A), coefficients constant-first, via Hessenberg reduction."""
    n = len(rows)
    zero = one - one
    h = [list(r) for r in rows]
    # similarity-reduce to upper Hessenberg
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if not is_zero(h[i][col]):
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[piv], h[col + 1] = h[col + 1], h[piv]
            for r in h:
                r[piv], r[col + 1] = r[col + 1], r[piv]
        t = inv(h[col + 1][col])
        for i in range(col + 2, n):
            if is_zero(h[i][col]):
                continue
            u = h[i][col] * t
            h[i] = [a - u * b for a, b in zip(h[i], h[col + 1])]
            for r in h:
                r[col + 1] = r[col + 1] + u * r[i]
    # charpoly recurrence on the Hessenberg form
    polys = [[one]]  # charpoly of the leading 0x0 block
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = _poly_shift_sub(prev, h[m - 1][m - 1])
        prod = one
        for i in range(m - 1, 0, -1):
            prod = prod * h[i][i - 1]
            if is_zero(h[i - 1][m - 1]) or is_zero(prod):
                continue
            c = h[i - 1][m - 1] * prod
            cur = _poly_axpy(cur, c, polys[i - 1])
        polys.append(cur)
    pad = polys[n] + [zero] * (n + 1 - len(polys[n]))
    return pad


def _poly_shift_sub(p, a):
    # (x - a) * p
    zero = a - a
    out = [zero] + list(p)
    for i, c in enumerate(p):
        out[i] = out[i] - a * c
    return out


def _poly_axpy(p, c, q):
    # p - c*q
    out = list(p)
    for i, x in enumerate(q):
        if i < len(out):
            out[i] = out[i] - c * x
        else:
            out.append((x - x) - c * x)
    return out
