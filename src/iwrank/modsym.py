"""Weight-2 modular symbols on Gamma0(N).

Manin-symbol presentation over P^1(Z/N), star involution, Hecke operators by
Merel matrices, eigen-functional extraction over an exact coefficient field,
evaluation at rationals along continued-fraction (unimodular) paths, and
Birch-sum character twisting.

The points of P^1(Z/N) sit in one flat table indexed by (u mod N, v mod N),
so locating a symbol is a single lookup.  The relation quotient is built
sparsely: the 2-term relations x + Sx = 0 pair the symbols off (an S-fixed
symbol is 0), one 3-term relation x + Tx + T^2x = 0 per T-orbit is written
over the pair representatives, and a sparse integer Gauss-Jordan
elimination finishes the job.  See Cremona, *Algorithms for Modular
Elliptic Curves* (1997), section 2.2, and Stein, *Modular Forms: A
Computational Approach* (2007), chapters 3 and 8.  A cached space is
checked against the dimension formula and the Manin relations before it is
used.

A symbol functional is a linear map on the relation quotient; its value on
the path {oo -> r} is what the p-adic layer integrates against.  Normalized
rational functionals keep integer generator values, so a path sum is a sum
of ints.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CyclotomicNumber, euler_phi, prime_divisors
from .linalg import right_kernel, solve_right
from .linalg import rref  # noqa: F401  (perfbench's tracer selftest wraps it here)

FORMAT_VERSION = 1


class EigenspaceError(RuntimeError):
    pass


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def p1_normalize(N: int, u: int, v: int) -> tuple[int, int]:
    """Canonical representative of (u:v) in P^1(Z/N): first entry a divisor
    g of N, second minimal over the stabilizing unit orbit."""
    if N == 1:
        return 0, 0
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
        return 0, 1
    g, s, _ = _xgcd(u, N)
    if gcd(g, v) != 1:
        raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
    s %= N
    ng = N // g
    while gcd(s, N) != 1:
        s = (s + ng) % N
    v = (s * v) % N
    if g > 1:
        best = v
        for k in range(1, g):
            t = 1 + k * ng
            if gcd(t, N) == 1:
                w = (t * v) % N
                if w < best:
                    best = w
        v = best
    return g, v


class P1List:
    """The points of P^1(Z/N) in the canonical form of `p1_normalize`,
    sorted, with a flat lookup table: `where[(u % N) * N + v % N]` is the
    index of the point (u:v), or -1 when (u, v) is not a point."""

    def __init__(self, N: int):
        self.N = N
        units = [t for t in range(1, N) if gcd(t, N) == 1] or [0]
        where = [-1] * (N * N)
        pairs = []
        # In lexicographic order, the first cell of each unit orbit is the
        # orbit's minimum, i.e. its canonical form; pairs come out sorted.
        for u in range(N):
            gu = gcd(u, N)
            row = u * N
            for v in range(N):
                if where[row + v] >= 0 or gcd(gu, v) != 1:
                    continue
                i = len(pairs)
                pairs.append((u, v))
                for t in units:
                    where[t * u % N * N + t * v % N] = i
        self.pairs = pairs
        self.where = where

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def index(self, u: int, v: int) -> int:
        N = self.N
        i = self.where[u % N * N + v % N]
        if i < 0:
            raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
        return i


def lift_to_sl2(u: int, v: int, N: int) -> tuple[int, int, int, int]:
    """[a,b;c,d] in SL2(Z) with (c,d) congruent to (u,v) mod N."""
    if N == 1:
        return 1, 0, 0, 1
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise ValueError(f"({u}:{v}) mod {N} not liftable")
        c, d = N, v
    else:
        c, d = u, v
        tries = 0
        while gcd(c, d) != 1:
            d += N
            tries += 1
            if tries > N + 2:
                raise ValueError(f"({u}:{v}) mod {N} not liftable")
    _, x, y = _xgcd(c, d)
    return y, -x, c, d


# genus bookkeeping for Gamma0(N) ------------------------------------


def gamma0_index(N: int) -> int:
    idx = N
    for p in prime_divisors(N):
        idx = idx // p * (p + 1)
    return idx


def num_cusps(N: int) -> int:
    return sum(euler_phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)


def genus_gamma0(N: int) -> int:
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in prime_divisors(N):
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in prime_divisors(N):
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    g = Fraction(gamma0_index(N), 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(num_cusps(N), 2) + 1
    assert g.denominator == 1 and g >= 0
    return int(g)


# Merel matrices -----------------------------------------------------


def merel_matrices(n: int):
    """All [a,b;c,d] with ad-bc=n, a>b>=0, d>c>=0."""
    mats = []
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            r = a * d - n
            if r < 0:
                continue
            if r == 0:
                for b in range(a):
                    mats.append((a, b, 0, d))
                for c in range(1, d):
                    mats.append((a, 0, c, d))
            else:
                for c in range(1, d):
                    if r % c == 0 and r // c < a:
                        mats.append((a, r // c, c, d))
    return mats


class ModularSymbolSpace:
    """Relation quotient of the free module on Manin symbols x_(c:d)."""

    def __init__(self, N: int, _payload=None):
        self.N = N
        self.p1 = P1List(N)
        self._hecke = {}
        self._boundary = None
        self._cache_path = None
        if _payload is not None:
            self._from_payload(_payload)
            return
        S, T = self._manin_maps()
        # the 2-term relations x_i + x_Si = 0: the larger index of each
        # S-orbit represents it, and an S-fixed symbol is 0
        rep = [max(i, s) if i != s else None for i, s in enumerate(S)]
        sign = [1 if r == i else -1 for i, r in enumerate(rep)]
        # one 3-term relation x_i + x_Ti + x_TTi = 0 per T-orbit, on the
        # representatives
        rows = []
        for i, j in enumerate(T):
            k = T[j]
            if i > j or i > k:
                continue
            row = {}
            for m in (i, j, k):  # (i, i, i) for a T-fixed point: 3 x_i = 0
                r = rep[m]
                if r is not None:
                    row[r] = row.get(r, 0) + sign[m]
            row = {c: x for c, x in row.items() if x}
            if row:
                rows.append(row)
        reduced = _reduce_rows(rows)
        # A 2-term relation leads with the smaller index of its pair, so
        # the free columns of the RREF of all the relations are the
        # representatives that lead no reduced 3-term row.
        self.basis_cols = [r for r in range(len(rep))
                           if rep[r] == r and r not in reduced]
        self.dim = len(self.basis_cols)
        pos = {c: k for k, c in enumerate(self.basis_cols)}
        zero = (Fraction(0),) * self.dim
        rep_vec = {}
        for c, k in pos.items():
            w = list(zero)
            w[k] = Fraction(1)
            rep_vec[c] = tuple(w)
        for p, row in reduced.items():
            w = list(zero)
            lead = row[p]
            for c, x in row.items():
                if c != p:
                    w[pos[c]] = Fraction(-x, lead)
            rep_vec[p] = tuple(w)
        self.vectors = [zero if r is None else
                        rep_vec[r] if s > 0 else tuple(-x for x in rep_vec[r])
                        for r, s in zip(rep, sign)]
        expected = 2 * genus_gamma0(N) + num_cusps(N) - 1
        if self.dim != expected:
            raise AssertionError(
                f"level {N}: quotient dimension {self.dim} != 2g + cusps - 1 = {expected}")

    # --- involutions and Hecke ---

    def _manin_maps(self):
        """Index maps of S: (c:d) -> (d:-c) (order 2) and T: (c:d) ->
        (d:-c-d) (order 3) on the P^1 points."""
        idx = self.p1.index
        S = [idx(v, -u) for u, v in self.p1.pairs]
        T = [idx(v, -u - v) for u, v in self.p1.pairs]
        return S, T

    def star_images(self):
        """Image of each basis symbol under (c:d) -> (-c:d), as quotient rows."""
        out = []
        for col in self.basis_cols:
            u, v = self.p1.pairs[col]
            out.append(list(self.vectors[self.p1.index(-u, v)]))
        return out

    def hecke_images(self, n: int):
        """Row j = image of basis symbol j under T_n (U_n when gcd(n,N)>1),
        in quotient coordinates."""
        key = str(n)
        if key in self._hecke:
            return self._hecke[key]
        mats = merel_matrices(n)
        where, N = self.p1.where, self.N
        out = []
        for col in self.basis_cols:
            u, v = self.p1.pairs[col]
            acc = [Fraction(0)] * self.dim
            for a, b, c, d in mats:
                i = where[(u * a + v * c) % N * N + (u * b + v * d) % N]
                if i < 0:  # not a point of P^1
                    continue
                w = self.vectors[i]
                for k in range(self.dim):
                    acc[k] += w[k]
            out.append(acc)
        self._hecke[key] = out
        if self._cache_path:
            self._write(self._cache_path)
        return out

    # --- boundary ---

    def boundary_data(self):
        """(cusp representatives, matrix rows over cusp classes x basis)."""
        if self._boundary is not None:
            return self._boundary
        cusps = []
        cols = []
        for col in self.basis_cols:
            u, v = self.p1.pairs[col]
            a, b, c, d = lift_to_sl2(u, v, self.N)
            e1 = self._cusp_class(cusps, _cusp_reduce(a, c))
            e2 = self._cusp_class(cusps, _cusp_reduce(b, d))
            cols.append((e1, e2))
        rows = [[Fraction(0)] * self.dim for _ in cusps]
        for j, (e1, e2) in enumerate(cols):
            rows[e1][j] += 1
            rows[e2][j] -= 1
        self._boundary = (cusps, rows)
        return self._boundary

    def _cusp_class(self, cusps, c):
        for i, known in enumerate(cusps):
            if cusp_equivalent(self.N, known, c):
                return i
        cusps.append(c)
        return len(cusps) - 1

    def cuspidal_basis(self):
        _, rows = self.boundary_data()
        return right_kernel(rows, self.dim, Fraction(1))

    def cuspidal_dimension(self) -> int:
        return len(self.cuspidal_basis())

    def restrict_to_cuspidal(self, images):
        """Matrix (rows = images) of an operator on the cuspidal subspace,
        in the cuspidal_basis coordinates."""
        K = self.cuspidal_basis()
        cols = [list(c) for c in zip(*K)] if K else []
        out = []
        for k in K:
            img = [Fraction(0)] * self.dim
            for j, coeff in enumerate(k):
                if coeff:
                    row = images[j]
                    for t in range(self.dim):
                        img[t] += coeff * row[t]
            x = solve_right(cols, img)
            if x is None:
                raise ValueError("operator does not preserve the cuspidal subspace")
            out.append(x)
        return out

    # --- cache ---

    def to_payload(self):
        return {
            "version": FORMAT_VERSION,
            "N": self.N,
            "basis_cols": self.basis_cols,
            "vectors": [[str(x) for x in w] for w in self.vectors],
            "star": [[str(x) for x in r] for r in self.star_images()],
            "hecke": {k: [[str(x) for x in r] for r in m]
                      for k, m in self._hecke.items()},
        }

    def _from_payload(self, payload):
        """Load a cached space after checking that it is one: the quotient
        dimension 2g + cusps - 1, one vector of that length per P^1 point,
        unit vectors at the basis columns, the 2- and 3-term Manin
        relations, and square Hecke matrices.  Anything else raises
        ValueError, so the file is rebuilt."""
        if (not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION
                or payload.get("N") != self.N):
            raise ValueError("stale or mismatched cache payload")
        N, n = self.N, len(self.p1)
        basis_cols = list(payload["basis_cols"])
        dim = len(basis_cols)
        if dim != 2 * genus_gamma0(N) + num_cusps(N) - 1:
            raise ValueError("cache payload has the wrong dimension")
        vectors = [tuple(Fraction(x) for x in w) for w in payload["vectors"]]
        if len(vectors) != n or any(len(w) != dim for w in vectors):
            raise ValueError("cache payload vectors have the wrong shape")
        for k, c in enumerate(basis_cols):
            if (not isinstance(c, int) or not 0 <= c < n
                    or any(x != (j == k) for j, x in enumerate(vectors[c]))):
                raise ValueError("cache payload basis columns are not unit vectors")
        S, T = self._manin_maps()
        for i in range(n):
            j, k = T[i], T[T[i]]
            if (any(a + b for a, b in zip(vectors[i], vectors[S[i]]))
                    or any(a + b + c for a, b, c in
                           zip(vectors[i], vectors[j], vectors[k]))):
                raise ValueError("cache payload breaks a Manin relation")
        hecke = payload["hecke"]
        if not isinstance(hecke, dict):
            raise ValueError("cache payload has no Hecke table")
        hecke = {k: [[Fraction(x) for x in r] for r in m] for k, m in hecke.items()}
        if any(len(m) != dim or any(len(r) != dim for r in m)
               for m in hecke.values()):
            raise ValueError("cache payload Hecke matrix is not dim x dim")
        self.basis_cols, self.dim = basis_cols, dim
        self.vectors, self._hecke = vectors, hecke

    def _write(self, path):
        """Write the payload to a temporary file beside `path`, then move
        it into place: a crash mid-write never leaves a truncated cache."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_payload(), fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def save(self, cache_dir):
        path = os.path.join(cache_dir, f"modsym_{self.N}_v{FORMAT_VERSION}.json")
        os.makedirs(cache_dir, exist_ok=True)
        self._write(path)
        self._cache_path = path
        return path


def build_space(N: int, cache_dir=None) -> ModularSymbolSpace:
    if cache_dir:
        path = os.path.join(cache_dir, f"modsym_{N}_v{FORMAT_VERSION}.json")
        try:
            with open(path) as fh:
                space = ModularSymbolSpace(N, _payload=json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
            pass  # missing, unreadable or invalid: rebuild and overwrite it
        else:
            space._cache_path = path
            return space
    space = ModularSymbolSpace(N)
    if cache_dir:
        space.save(cache_dir)
    return space


def _reduce_rows(rows):
    """Sparse Gauss-Jordan elimination of integer rows {column: entry}.

    Each row is reduced against the pivots found so far, always at its
    smallest column, and becomes a new pivot row if anything is left;
    back substitution then clears every pivot column from the other rows.
    Returns {pivot: row}: the reduced row echelon form of the row space,
    each row scaled to coprime integers.
    """
    pivots = {}
    for row in rows:
        while row:
            p = min(row)
            if p not in pivots:
                pivots[p] = row
                break
            row = _eliminate(row, pivots[p], p)
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
    out = {k: b * x for k, x in row.items()}
    for k, x in prow.items():
        y = out.get(k, 0) - a * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    g = gcd(*out.values()) if out else 1
    return {k: x // g for k, x in out.items()} if g > 1 else out


def _cusp_reduce(p, q):
    if q == 0:
        return (1, 0)
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return (p, q)


def cusp_equivalent(N, c1, c2) -> bool:
    """Gamma0(N)-equivalence of cusps in lowest terms: s1 q2 = s2 q1 modulo
    gcd(q1 q2, N), with s_i p_i = 1 mod q_i."""
    p1, q1 = c1
    p2, q2 = c2
    s1 = 1 if q1 == 0 else pow(p1, -1, q1)
    s2 = 1 if q2 == 0 else pow(p2, -1, q2)
    g = gcd(q1 * q2, N)
    return (s1 * q2 - s2 * q1) % g == 0


# functionals --------------------------------------------------------


class SymbolFunctional:
    """Linear functional on the quotient, of fixed star sign; evaluate(r)
    returns its value on the path {oo -> r}."""

    def __init__(self, space, sign, coords, normalization=Fraction(1)):
        self.space = space
        self.sign = sign
        self.coords = list(coords)
        self.normalization = normalization
        self._gen_table = None
        self._flat = None
        self._cache = {}

    def _dot(self, vec):
        acc = None
        for c, x in zip(self.coords, vec):
            term = c * x
            acc = term if acc is None else acc + term
        return acc

    def generator_values(self):
        """x_i for each P^1 point i: ints where integral, as they are for
        every normalized rational functional, else Fractions or field
        elements."""
        if self._gen_table is None:
            self._gen_table = [_int_if_integral(self._dot(v))
                               for v in self.space.vectors]
        return self._gen_table

    def _flat_values(self):
        """The generator values laid out like the P^1 table: x_(u:v) at
        (u % N) * N + v % N."""
        if self._flat is None:
            vals = self.generator_values()
            self._flat = [vals[i] if i >= 0 else None
                          for i in self.space.p1.where]
        return self._flat

    def normalize(self):
        """Rescale so generator values are coprime integers (content 1) and
        the first nonzero one is positive."""
        vals = self.generator_values()
        parts = []
        for v in vals:
            parts.extend(_frac_parts(v))
        nz = [f for f in parts if f != 0]
        if not nz:
            raise ValueError("cannot normalize the zero functional")
        num = 0
        den = 1
        for f in nz:
            num = gcd(num, f.numerator)
            den = lcm(den, f.denominator)
        content = Fraction(num, den)
        lead = next(f for f in parts if f != 0)
        scale = 1 / content if lead > 0 else -1 / content
        coords = [c * scale for c in self.coords]
        return SymbolFunctional(self.space, self.sign, coords,
                                normalization=self.normalization * scale)

    def evaluate(self, r):
        """Value on {oo -> r} by summing generator symbols along the
        continued-fraction convergents of r."""
        r = Fraction(r)
        key = (r.numerator % r.denominator, r.denominator)
        hit = self._cache.get(key)
        if hit is None:
            hit = _as_fraction(_path_sum(self._flat_values(), self.space.N, *key))
            self._cache[key] = hit
        return hit

    def evaluate_from_zero(self, r):
        """Value on the path {0 -> r}; the convention used for printed
        symbol tables (the measure itself integrates paths based at oo)."""
        return self.evaluate(r) - self.evaluate(0)


def _path_sum(flat, N, a, b):
    """Value on {oo -> a/b}, 0 <= a < b (not necessarily coprime): the sum
    of x_(q_k : (-1)^(k+1) q_(k-1)) over the continued-fraction convergents
    p_k/q_k of a/b, with flat[(u % N) * N + v % N] = x_(u:v)."""
    acc = 0
    q0, q1 = 1, 0  # q_(k-2), q_(k-1)
    s = -1
    while b:
        d = a // b
        a, b = b, a - d * b
        q0, q1 = q1, d * q1 + q0
        acc += flat[q1 % N * N + s * q0 % N]
        s = -s
    return acc


def _int_if_integral(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def _as_fraction(v):
    return Fraction(v) if isinstance(v, int) else v


def _frac_parts(v):
    if isinstance(v, Fraction):
        return [v]
    if isinstance(v, int):
        return [Fraction(v)]
    return [Fraction(c) for c in v.coeffs]


def eigen_functional(space, targets, sign, one=Fraction(1)):
    """The unique (up to scalar) functional with Phi(T_l x) = a_l Phi(x) for
    the given (l, a_l) pairs and star sign; returned normalized.

    `one` fixes the coefficient field (Fraction(1), or a number-field 1).
    """
    dim = space.dim
    rows = []
    for ell, a in targets:
        imgs = space.hecke_images(ell)
        for j in range(dim):
            row = [one * x for x in imgs[j]]
            row[j] = row[j] - a
            rows.append(row)
    for j, srow in enumerate(space.star_images()):
        row = [one * x for x in srow]
        row[j] = row[j] - sign
        rows.append(row)
    ker = right_kernel(rows, dim, one)
    if len(ker) != 1:
        raise EigenspaceError(
            f"level {space.N} sign {sign:+d}: eigenspace has dimension "
            f"{len(ker)}, expected 1")
    return SymbolFunctional(space, sign, ker[0]).normalize()


def functional_eigenvalue(phi: SymbolFunctional, ell: int, probes=(0, Fraction(1, 2), Fraction(1, 3))):
    """a_l recovered from the path identity
    a_l x(r) = sum_b x((r+b)/l) + x(l r)   (the last term only for l
    prime to the level): cheap for large l, no Hecke matrix needed."""
    N = phi.space.N
    for r in probes:
        base = phi.evaluate(r)
        if _frac_is_zero(base):
            continue
        r = Fraction(r)
        acc = None
        for b in range(ell):
            t = phi.evaluate((r + b) / ell)
            acc = t if acc is None else acc + t
        if N % ell != 0:
            acc = acc + phi.evaluate(ell * r)
        return _divide(acc, base)
    raise ValueError("all probe values vanish; supply better probes")


def _frac_is_zero(v):
    z = getattr(v, "is_zero", None)
    return z() if z is not None else v == 0


def _divide(a, b):
    f = getattr(b, "inverse", None)
    if f is not None:
        return a * f()
    return a / b


# twisting -----------------------------------------------------------


class SymbolPair:
    """x^+ and x^- of one form, presented to the p-adic layer."""

    def __init__(self, plus, minus, level, label=""):
        self.plus = plus
        self.minus = minus
        self.level = level
        self.label = label

    def evaluate(self, r, sign):
        return (self.plus if sign > 0 else self.minus).evaluate(r)

    def evaluate_from_zero(self, r, sign):
        return self.evaluate(r, sign) - self.evaluate(0, sign)


class TwistedSymbol:
    """Symbol pair of f tensor chi via Birch sums over a mod cond(chi).

    value at r, sign s:  sum_a conj(chi)(a) x^{s*chi(-1)}(r + a/C), divided
    by a per-sign scalar fixed on the probe set (content 1, first nonzero
    positive), recorded in .scales.
    """

    def __init__(self, pair, chi, probes=(), label=""):
        chi = chi.primitive_part()
        C = chi.modulus
        if gcd(C, pair.level) != 1:
            raise ValueError("twist conductor must be coprime to the level")
        self.pair = pair
        self.chi = chi
        self.C = C
        self.eps = chi.parity()
        self.level = pair.level * C * C
        self.label = label or (pair.label + "_twist")
        chibar = chi.conjugate()
        vals = {}
        if C == 1:
            vals[0] = 1
        else:
            for a in range(C):
                if gcd(a, C) == 1:
                    cv = chibar(a)
                    if isinstance(cv, CyclotomicNumber) and cv.is_rational():
                        cv = _int_if_integral(cv.rational_value())
                    vals[a] = cv
        self._chibar = vals
        self.scales = {1: Fraction(1), -1: Fraction(1)}
        self._cache = {}
        if probes:
            self.renormalize(probes)

    def raw_value(self, r, sign):
        r = Fraction(r)
        phi = self.pair.plus if sign * self.eps > 0 else self.pair.minus
        flat, N, C = phi._flat_values(), phi.space.N, self.C
        # r + a/C = (n C + a d) / (d C), summed along its convergents
        n, d = r.numerator, r.denominator
        dC = d * C
        acc = 0
        for a, cv in self._chibar.items():
            acc += cv * _path_sum(flat, N, (n * C + a * d) % dC, dC)
        return _as_fraction(acc)

    def renormalize(self, probes):
        """Fix the per-sign scalar: content 1 and first nonzero value
        positive over the probe arguments."""
        for sign in (1, -1):
            parts = []
            for r in probes:
                parts.extend(_frac_parts(self.raw_value(r, sign)))
            nz = [f for f in parts if f != 0]
            if not nz:
                self.scales[sign] = Fraction(1)
                continue
            num, den = 0, 1
            for f in nz:
                num = gcd(num, f.numerator)
                den = lcm(den, f.denominator)
            content = Fraction(num, den)
            self.scales[sign] = content if nz[0] > 0 else -content
        self._cache.clear()

    def evaluate(self, r, sign):
        r = Fraction(r)
        key = (r.numerator, r.denominator, sign)
        hit = self._cache.get(key)
        if hit is None:
            hit = self.raw_value(r, sign) / self.scales[sign]
            self._cache[key] = hit
        return hit

    def evaluate_from_zero(self, r, sign):
        return self.evaluate(r, sign) - self.evaluate(0, sign)


def twist_symbol(pair, chi, probes=(), label=""):
    if chi.conductor() == 1:
        return pair
    return TwistedSymbol(pair, chi, probes=probes, label=label)
