"""Exact integer elimination on sparse rows, and the kernel read off it.

A row is a dict {column: nonzero int}.  `rref` reduces a list of rows to
the reduced row echelon form of their span, each row scaled to coprime
integers; `kernel` reads the right kernel off that form as integer
vectors over one common scale.  Every exact solve of the package goes
through these two functions: on a symbol space the Manin-symbol
quotient, the boundary kernel (the cuspidal subspace) and the Hecke
eigenfunctionals, whose number-field systems are first written over Q
by restriction of scalars; and every inverse in a number field
(`NFElement.inverse`), a solve of the element's multiplication matrix.

Pivots are taken at each row's smallest column and rows are reduced in
the order given, so the output is the same on every run.  The reduced
form of a row space with coprime rows is unique up to the sign of each
row, which `kernel` does not read: the kernel does not depend on the
order of the rows or on which of them serve as pivots on the way.
"""

from __future__ import annotations

from math import gcd, lcm


def rref(rows):
    """Sparse Gauss-Jordan elimination of integer rows {column: entry}.

    Each row is reduced against the pivots found so far, always at its
    smallest column, and becomes a new pivot row if anything is left.  Of
    two rows that lead at one column the shorter is kept as the pivot and
    the other is reduced by it, which keeps the fill-in down.  Back
    substitution then clears every pivot column from the other rows.
    Returns {pivot: row}: the reduced row echelon form of the row space,
    each row scaled to coprime integers.
    """
    pivots = {}
    for row in rows:
        while row:
            p = min(row)
            prow = pivots.get(p)
            if prow is None or len(row) < len(prow):
                g = gcd(*row.values())
                pivots[p] = {k: x // g for k, x in row.items()} if g > 1 else row
                if prow is None:
                    break
                row = prow
            else:
                row = _eliminate(row, prow, p)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in sorted(c for c in row if c != p and c in pivots):
            row = _eliminate(row, pivots[q], q)
        pivots[p] = row
    return pivots


def _eliminate(row, prow, c):
    """prow[c] * row - row[c] * prow (column c cleared), divided by the
    gcd of its entries."""
    a, b = row[c], prow[c]
    out = dict(row) if b == 1 else {k: b * x for k, x in row.items()}
    for k, x in prow.items():
        y = out.get(k, 0) - a * x
        if y:
            out[k] = y
        else:
            del out[k]  # y = 0 only where out has k, as a x != 0
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def kernel(reduced, columns):
    """The right kernel, on the given columns, of rows reduced by `rref`;
    `columns` lists every column of the rows, in order.

    Returns (free, scale, basis): the columns that lead no row, the lcm
    of the row leads, and one integer vector {column: entry} per free
    column f, with `scale` at f, 0 at the other free columns and
    -row[f] scale / lead at each pivot.  So a kernel vector v is the sum
    of v[f] / scale times the basis vector of f.
    """
    free = [c for c in columns if c not in reduced]
    scale = lcm(*(abs(row[p]) for p, row in reduced.items()))
    basis = [{f: scale} for f in free]
    at = dict(zip(free, basis))
    for p, row in reduced.items():
        lead = row[p]
        for c, x in row.items():
            if c != p:
                at[c][p] = -x * scale // lead
    return free, scale, basis
