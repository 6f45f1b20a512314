"""Weight-2 modular symbols on Gamma0(N).

Manin-symbol presentation over P^1(Z/N), star involution, Hecke operators by
Merel matrices, eigen-functional extraction over an exact coefficient field,
evaluation at rationals along continued-fraction (unimodular) paths, and
Birch-sum character twisting.

A point (u:v) of P^1(Z/N) is found through its first entry: a unit t
with t u = g = gcd(u, N) turns it into (g : t v), and one table of N
entries per divisor g of N maps t v to the point's index (for a unit u
that index is 1 + v/u), so the index holds N d(N) entries, not N^2.  The
relation quotient is built sparsely: the 2-term relations x + Sx = 0
pair the symbols off (an S-fixed symbol is 0), one 3-term relation
x + Tx + T^2x = 0 per T-orbit is written over the pair representatives,
and the sparse integer Gauss-Jordan elimination of `linalg` finishes the
job.  See Cremona, *Algorithms for Modular Elliptic Curves* (1997),
section 2.2, and Stein, *Modular Forms: A Computational Approach*
(2007), chapters 3 and 8 (section 8.7 for P^1(Z/N)).

The quotient is kept as sparse integer rows {basis index: entry}, the
rows of `linalg`, over one denominator `den`: the vector of each Manin
symbol, the star images and the Hecke images (each the sum of the
vectors of a symbol's Merel hits) are all such rows, and the true
coordinates are those rows divided by `den` (which is 1 at every level
N <= 400).

No space is kept for the process: a `ModularSymbolSpace(N)` lives as
long as whatever holds it, its functionals, the symbols on them or a kept
bundled run.  A space keeps its quotient (`vectors`, `basis_cols`, `den`,
`dim`, the S-orbit representatives) and its P^1 tables (`p1`, with the
successor table built on first use), and nothing else: Hecke images and
boundary data are built on each call, and the caller of an eigen-solve
holds its kernels (`sign_kernel`).  A symbol keeps its own rows
(`RowSymbol`) and no space keeps a functional or a symbol: a `SymbolPair`
or `TwistedSymbol` (`twist_symbol`) lives as long as its caller holds it.
So the rows a space hands out (`vectors`, `star_images()`,
`P1List.successors()`), the values of a functional and the rows of a
symbol (`evaluate_row`) are shared, and no caller may mutate them: values
and rows are tuples.

A symbol functional is a linear map on the relation quotient; its value on
the path {oo -> r} is what the p-adic layer integrates against.  Normalized
rational functionals keep integer generator values, so a path sum is a sum
of ints.  Every kernel here is read off that one elimination
(`linalg.rref`, then `linalg.kernel`): the quotient, the cuspidal
subspace (the kernel of the boundary map, which reads the cusp class of
a point (u:v) as one key, (G, (u/G) v^-1 mod gcd(G, N/G)) for
G = gcd(u, N), derived from Cremona's Prop. 2.2.3 in `cusp_key`) and the
eigenfunctionals, whose number-field systems are first written over Q by
restriction of scalars.
An eigenfunctional is solved in three steps whose state the caller holds:
the sign subspace, the kernel of the star rows reduced once
(`sign_kernel`); its restriction by each T_l in turn (`restrict_kernel`),
with rows at only the columns that lead no star row: the others add
nothing on the sign subspace, as T_l commutes with star; and the
normalized functional of the line left (`line_functional`).  So no star
row meets a Hecke pivot, and a second T_l meets only the few vectors the
first one leaves.  The generator values are read once per S-orbit, and
an eigenvalue a_l is read off one Hecke row (`SymbolFunctional.eigenvalue`).

Values on paths are read as rows: `evaluate_row(den, sign)` holds the
values at a/den for a = 0..den-1, and a single value is an entry of its
denominator's row.  Both symbol classes keep rows by one rule
(`RowSymbol`): a row at den is every k-th entry of a kept row at k den
when one is kept, and is built otherwise.  A pair builds both signs' rows
from one continued-fraction walk (`_walk`) per a <= den/2.  The walk's
state is the point (q_k : q_(k-1)) of P^1(Z/N), and a step is three list
reads on one successor table (`P1List.successors`), built the same way at
every level: 3N entries at a prime level, one block of N more per point
(u : v) with u not a unit at a composite one.  A twisted symbol builds
its row at den from Birch sums over the pair's row at den C, divided by
its per-sign scales, which the first Birch sums built at the
constructor's den fix; entries that the scale divides stay ints.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import NamedTuple

from .arith import euler_phi, gamma0_index, prime_divisors
from .cyclotomic import CyclotomicNumber
from .linalg import kernel, rref
from .numfield import NFElement, _scalar_matrix


class EigenspaceError(RuntimeError):
    """An eigenspace that is not a line; `dim` is its dimension."""

    def __init__(self, message, dim):
        super().__init__(message)
        self.dim = dim


class P1List:
    """The points of P^1(Z/N), each as the least pair (u, v) of its orbit
    under the units, sorted: (0, 1), then (1, v) for every v, then for
    each divisor 1 < g < N the pairs (g, v) with v least in its orbit
    under the units s = 1 mod N/g.

    The index is a table per divisor, not per pair.  `norm[u]` is a unit
    t with t u = gcd(u, N) mod N (the inverse when u is a unit), so (u:v)
    is the point (g : t v) with g = gcd(u, N), and `table[u]`, shared by
    every u of that gcd, maps t v to the index of (g : t v), or to -1
    when (u, v) is not a point: 1 + t v for a unit u, 0 for a unit t v
    when u = 0.  That is N entries per divisor of N."""

    def __init__(self, N: int):
        self.N = N
        self._successors = None
        if N == 1:
            self.pairs, self.norm, self.table = [(0, 0)], [0], [[0]]
            return
        units = [t for t in range(1, N) if gcd(t, N) == 1]
        norm, at_zero = [1] * N, [-1] * N
        for t in units:
            norm[t], at_zero[t] = pow(t, -1, N), 0
        table = [at_zero] + [list(range(1, N + 1))] * (N - 1)
        pairs = [(0, 1)] + [(1, v) for v in range(N)]
        for g in range(2, N):
            if N % g:
                continue
            m = N // g
            # the stabilizer of g acts freely on the v prime to g, so the
            # first v met of each orbit is its least
            stab = [s for s in units if s % m == 1]
            at_g = [-1] * N
            for v in range(N):
                if at_g[v] < 0 and gcd(v, g) == 1:
                    at_g[v] = i = len(pairs)
                    pairs.append((g, v))
                    for s in stab:
                        at_g[s * v % N] = i
            for t in units:
                u = t * g % N
                norm[u], table[u] = norm[t], at_g
        self.pairs = pairs
        self.norm = norm
        self.table = table

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def index(self, u: int, v: int) -> int:
        N = self.N
        i = self.table[u % N][self.norm[u % N] * v % N]
        if i < 0:
            raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
        return i

    def successors(self):
        """(nxt, state), built on first use: the continued-fraction step
        (u : v) -> (d u + v : u), d the partial quotient, as one table.
        (1 : t) has state t < N, the k-th point (u : v) with u not a unit
        has state (2 + k) N, and state[i] is the state of point i.  From
        state t the next one is nxt[d % N + t]: for s < 2N, nxt[s] is the
        state of (s : 1), the inverse of s mod N when s is a unit; the N
        entries from (2 + k) N on have period N / gcd(u, N).  At a prime
        level the one other point is oo = (0 : 1), at 2N, its entries 0."""
        if self._successors is None:
            N, norm, table = self.N, self.norm, self.table
            one = 1 % N
            state, k = [], 2 * N
            for u, v in self.pairs:
                if u == one:
                    state.append(v)
                else:
                    state.append(k)
                    k += N
            nxt = [state[table[s][norm[s]]] for s in range(N)] * 2
            rows = {}  # rows[u][w]: the state of (w : u), read for w prime to u
            for u, v in self.pairs:
                if u == one:
                    continue
                if u == 0:  # oo = (0 : 1) goes to (1 : 0), of state 0
                    nxt += [0] * N
                    continue
                if u not in rows:
                    rows[u] = [state[table[w][norm[w] * u % N]] for w in range(N)]
                # u divides N: (d u + v : u) for d < N/u, the w = v mod u
                # from v on, and the block repeats them u times
                col = rows[u][v % u::u]
                nxt += (col[v // u:] + col[:v // u]) * u
            self._successors = (nxt, state)
        return self._successors


# cusps and genus of Gamma0(N) ---------------------------------------


def cusp_key(u: int, v: int, N: int) -> tuple[int, int]:
    """The Gamma0(N)-class of the cusp g.oo = a/c, g = [a,b;c,d] in SL2(Z)
    with (c:d) = (u:v) in P^1(Z/N): (G, (u/G) v^-1 mod m), G = gcd(u, N)
    and m = gcd(G, N/G), with 0 for the second entry when m = 1.  Unit
    multiples of (u, v) share it, and each G has phi(m) keys: `num_cusps(N)`.

    From Cremona (1997), Prop. 2.2.3: a1/c1 ~ a2/c2 exactly when
    s1 c2 = s2 c1 mod gcd(c1 c2, N), s_i a_i = 1 mod c_i, so s_i = d_i.
    Gamma0(N) sends c to a unit times c mod N, so G = gcd(c, N) is fixed
    on a class.  At one G, with c_i = G c_i' and c_i' prime to N/G,
    gcd(c1 c2, N) = G m, and the test reads c1'/d1 = c2'/d2 mod m, where
    c' = u/G mod N/G and d = v mod N are units mod m (d is prime to c)."""
    G = gcd(u, N)
    m = gcd(G, N // G)
    return G, (u // G * pow(v, -1, m) % m if m > 1 else 0)


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
    g, r = divmod(gamma0_index(N) - 3 * nu2 - 4 * nu3 - 6 * num_cusps(N) + 12, 12)
    if r or g < 0:
        raise AssertionError(f"level {N}: 12 g = {12 * g + r} is not 12 times a genus")
    return g


# Merel matrices -----------------------------------------------------


def merel_matrices(n: int):
    """All [a,b;c,d] with ad-bc=n, a>b>=0, d>c>=0.  With k = a - b and
    e = d - c the determinant is a e + k c = n, for 1 <= k <= a, e >= 1
    and c >= 0: so for each k and c with k c < n, each divisor a >= k of
    m = n - k c gives one matrix, O(n log^2 n) in all."""
    divisors = [[] for _ in range(n + 1)]
    for a in range(1, n + 1):
        for m in range(a, n + 1, a):
            divisors[m].append(a)
    mats = []
    for k in range(1, n + 1):
        for c in range((n - 1) // k + 1):
            m = n - k * c
            for a in divisors[m]:
                if a >= k:
                    mats.append((a, a - k, c, c + m // a))
    return mats


class ModularSymbolSpace:
    """Relation quotient of the free module on Manin symbols x_(c:d)."""

    def __init__(self, N: int):
        self.N = N
        self.p1 = P1List(N)
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
        # A 2-term relation leads with the smaller index of its pair, so
        # the free columns of the RREF of all the relations are the
        # representatives that lead no reduced 3-term row.  The quotient
        # vector of a representative is its entry in each kernel basis
        # vector: integer rows over one denominator, the kernel's scale.
        self._reps = reps = [r for r, x in enumerate(rep) if x == r]
        self.basis_cols, self.den, basis = kernel(rref(rows), reps)
        self.dim = len(basis)
        rep_vec = {r: {} for r in reps}
        for k, v in enumerate(basis):
            for r, x in v.items():
                rep_vec[r][k] = x
        # symbol i is sign[i] times the representative rep[i] of its S-orbit
        self._rep = list(zip(rep, sign))
        self.vectors = [{} if r is None else
                        rep_vec[r] if s > 0 else {k: -x for k, x in rep_vec[r].items()}
                        for r, s in self._rep]
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
        """Image of each basis symbol under (c:d) -> (-c:d), as a sparse
        integer quotient row over `den`."""
        pairs, idx = self.p1.pairs, self.p1.index
        return [self.vectors[idx(-pairs[col][0], pairs[col][1])]
                for col in self.basis_cols]

    def hecke_row(self, n: int, j: int):
        """The image of basis symbol j under T_n (U_n when gcd(n,N)>1), as
        a sparse integer quotient row over `den`: the sum of the vectors
        of its Merel hits."""
        return self._merel_row(merel_matrices(n), j)

    def hecke_images(self, n: int):
        """`hecke_row(n, j)` for every basis symbol j, built anew on each
        call; the Merel matrices are enumerated once for all the rows."""
        mats = merel_matrices(n)
        return [self._merel_row(mats, j) for j in range(self.dim)]

    def _merel_row(self, mats, j):
        """The sum of the vectors of the points (u:v)M, for (u:v) basis
        symbol j and M each matrix [a,b;c,d] in mats."""
        norm, table, N, vectors = self.p1.norm, self.p1.table, self.N, self.vectors
        u, v = self.p1.pairs[self.basis_cols[j]]
        row = {}
        for a, b, c, d in mats:
            x = (u * a + v * c) % N
            i = table[x][norm[x] * (u * b + v * d) % N]
            if i >= 0:  # i < 0: not a point of P^1
                for k, y in vectors[i].items():
                    row[k] = row.get(k, 0) + y
        return {k: y for k, y in row.items() if y}

    def symbol_values(self, coords):
        """The value on each Manin symbol of the functional with the
        given values on the basis symbols (times `den`): one dot product
        per S-orbit, as x_i = +-x_rep(i), and 0 where S fixes i."""
        at, vectors = {}, self.vectors
        for r in self._reps:
            v = 0
            for k, x in vectors[r].items():
                v += x * coords[k]
            at[r] = v
        return [0 if r is None else at[r] if s > 0 else -at[r] for r, s in self._rep]

    # --- boundary ---

    def boundary_data(self):
        """(cusp classes, integer rows {basis index: entry}, one per class):
        the boundary map on the basis symbols, built anew on each call.
        Symbol (u:v) is the path g.0 = b/d -> g.oo = a/c, g = [a,b;c,d] with
        (c:d) = (u:v): +1 at the class `cusp_key(u, v, N)` of a/c, -1 at the
        class `cusp_key(v, -u, N)` of b/d, the key of g[0,-1;1,0], and
        nothing where they agree.  The classes are the keys in the order met."""
        N, pairs = self.N, self.p1.pairs
        number, cols = {}, []
        for col in self.basis_cols:
            u, v = pairs[col]
            e1 = number.setdefault(cusp_key(u, v, N), len(number))
            e2 = number.setdefault(cusp_key(v, -u, N), len(number))
            cols.append((e1, e2))
        rows = [{} for _ in number]
        for j, (e1, e2) in enumerate(cols):
            if e1 != e2:
                rows[e1][j] = 1
                rows[e2][j] = -1
        return list(number), rows

    def cuspidal_dimension(self) -> int:
        return len(kernel(rref(self.boundary_data()[1]), range(self.dim))[0])

    def restrict_to_cuspidal(self, images):
        """Matrix of an operator on the cuspidal subspace, images[j] the
        sparse quotient row of the image of basis symbol j, in the basis of
        the boundary kernel (`linalg.kernel`) over its scale: the coordinates
        of an image are its entries at the free indices."""
        _, boundary = self.boundary_data()
        free, scale, basis = kernel(rref(boundary), range(self.dim))
        out = []
        for v in basis:
            img = _combination(v, images)
            if any(sum(x * img.get(t, 0) for t, x in row.items()) for row in boundary):
                raise ValueError("operator does not preserve the cuspidal subspace")
            out.append([Fraction(img.get(f, 0), scale) for f in free])
        return out


# functionals --------------------------------------------------------


class SymbolFunctional:
    """Linear functional on the quotient, of fixed star sign, given by its
    generator values: x_i on the Manin symbol of P^1 point i (ints for a
    normalized rational functional, else Fractions or field elements).
    Its values on paths {oo -> a/den} are read as rows, by `SymbolPair`;
    eigenvalue(l) reads a_l off one Hecke row."""

    def __init__(self, space, sign, values):
        self.space = space
        self.sign = sign
        self._values = tuple(values)
        self._by_state = None

    def generator_values(self):
        """A new list of the generator values."""
        return list(self._values)

    @property
    def coords(self):
        """The values on the basis symbols: the functional's coordinates."""
        return [self._values[c] for c in self.space.basis_cols]

    def values_by_state(self):
        """The generator values laid out by the states of
        `P1List.successors`, 0 at the states of no point; built on first
        use."""
        if self._by_state is None:
            state = self.space.p1.successors()[1]
            by_state = [0] * (max(state) + 1)
            for s, x in zip(state, self._values):
                by_state[s] = x
            self._by_state = tuple(by_state)
        return self._by_state

    def eigenvalue(self, ell):
        """a_l, for a T_l (U_l when l divides the level) eigenfunctional:
        Phi(T_l e_j) = a_l Phi(e_j) at the first basis column j with
        Phi(e_j) != 0, the image of e_j being one Hecke row over `den`
        (`hecke_row`).  Exact: a Fraction over Q, a field element over K."""
        coords = self.coords
        j = next((j for j, x in enumerate(coords) if x != 0), None)
        if j is None:
            raise ValueError("the functional vanishes: no eigenvalue to read")
        total = sum(x * coords[k] for k, x in self.space.hecke_row(ell, j).items())
        scale = self.space.den * coords[j]
        return total / scale if isinstance(scale, NFElement) else Fraction(total, scale)


def _walk(space, vp, vm, den, numerators):
    """(plus, minus): the path sums at a/den, for each a in numerators
    (0 <= a < den), of the functionals of star sign +1 and -1 whose values
    by state (`values_by_state`) are vp and vm.

    The path sum at a/den adds x_(q_k : (-1)^(k+1) q_(k-1)) over the
    continued-fraction convergents p_k/q_k of a/den.  The walk takes the
    signs out of the index: a functional of star sign s has
    x_(u:-v) = s x_(u:v), so step k reads x_(q_k : q_(k-1)), added as is
    on the plus side and with sign (-1)^(k+1) on the minus side.  Step 0
    is always (1:0), of state 0; the loop takes steps 2k+1 (sign +) and
    2k+2 (sign -) per turn.  The walk's state is the point
    (q_k : q_(k-1)) in the successor table of `P1List.successors`, the
    same at every level, so a step is two list reads for the values and
    one for the next state."""
    N = space.N
    nxt = space.p1.successors()[0]
    first_p, first_m = vp[0], vm[0]
    hp, hm = [], []
    for a in numerators:
        x, y, t = den, a, 0
        sp, odd, even = first_p, 0, 0
        while y:
            t = nxt[x // y % N + t]
            x %= y
            sp += vp[t]
            odd += vm[t]
            if not x:
                break
            t = nxt[y // x % N + t]
            y %= x
            sp += vp[t]
            even += vm[t]
        hp.append(sp)
        hm.append(first_m + odd - even)
    return hp, hm


def _frac_parts(v):
    if isinstance(v, Fraction):
        return [v]
    if isinstance(v, int):
        return [Fraction(v)]
    return [Fraction(c) for c in v.coeffs]


def _signed_content(values):
    """The rational c such that the values divided by c have coprime
    rational parts, the first nonzero one positive; None when every value
    is 0."""
    num, den, lead = 0, 1, None
    for v in values:
        for f in _frac_parts(v):
            if f:
                num = gcd(num, f.numerator)
                den = lcm(den, f.denominator)
                if lead is None:
                    lead = f
    if lead is None:
        return None
    c = Fraction(num, den)
    return c if lead > 0 else -c


class SignKernel(NamedTuple):
    """A kernel of the eigen-solve of one star sign, held by its caller:
    `basis` holds one integer vector over Q per column in `free`, the
    free column it ends at (`linalg.kernel`).  Over a number field the
    unknowns are written over Q by restriction of scalars: unknown
    j deg + i is the x^i coefficient of the K-coordinate at basis column
    j.  `cols` are the basis columns that lead no star row, the only ones
    at which `restrict_kernel` builds Hecke rows."""

    space: ModularSymbolSpace
    sign: int
    field: object  # the coefficient field, None for Q
    cols: list
    free: list
    basis: list


def sign_kernel(space, sign, field):
    """The sign subspace of `space` over `field` (None for Q): the kernel
    of the star rows Phi(star e_j) = sign Phi(e_j), reduced once, one
    vector per unknown that leads no star row."""
    deg = 1 if field is None else field.degree
    star = rref(_eigen_rows(space.star_images(), sign, field, space.den, range(space.dim)))
    free, _, basis = kernel(star, range(space.dim * deg))
    star_free = set(free)
    cols = [j for j in range(space.dim) if j * deg in star_free]
    return SignKernel(space, sign, field, cols, free, basis)


def restrict_kernel(kern, images, a):
    """The vectors of `kern` on which Phi(M e_j) = a Phi(e_j) holds,
    images[j] the quotient row of M e_j (a T_l from `hecke_images`): a new
    `SignKernel`.  T_l commutes with star, so Phi (T_l - a) has the sign
    of Phi and vanishes once it vanishes at `kern.cols`: the rows are built
    there alone, taken on the kernel's vectors and reduced among
    themselves.  A `kernel` vector ends at its free column, so the columns
    left free are those the whole system, reduced at once, would leave."""
    rows = _eigen_rows(images, a, kern.field, kern.space.den, kern.cols)
    at = defaultdict(dict)  # at[c][f]: the entry of basis vector f at c
    for f, v in zip(kern.free, kern.basis):
        for c, x in v.items():
            at[c][f] = x
    taken = [_combination(row, at) for row in rows]
    of = dict(zip(kern.free, kern.basis))
    free, _, sub = kernel(rref(taken), kern.free)
    return kern._replace(free=free, basis=[_combination(w, of) for w in sub])


def line_functional(kern):
    """The normalized functional spanned by the kernel `kern`: generator
    values of content 1, the first nonzero one positive, ints over Q and
    field elements over K, read once per S-orbit (`symbol_values`).
    Raises `EigenspaceError`, with the dimension over K, when the kernel
    is not a line."""
    space, sign, field = kern.space, kern.sign, kern.field
    deg = 1 if field is None else field.degree
    dim = len(kern.free) // deg
    if dim != 1:
        raise EigenspaceError(
            f"level {space.N} sign {sign:+d}: eigenspace has dimension "
            f"{dim}, expected 1", dim)
    # the first free column is x^0 of a K-coordinate, whose other x^i are
    # free too: the vector sets that coordinate to a positive int and the
    # other free columns to 0
    parts = [[0] * space.dim for _ in range(deg)]
    for c, x in kern.basis[0].items():
        parts[c % deg][c // deg] = x
    # coeffs[t][i]: the x^t coefficient of generator value i
    coeffs = [space.symbol_values(part) for part in parts]
    g = gcd(*(gcd(*col) for col in coeffs))
    if next(x for value in zip(*coeffs) for x in value if x) < 0:
        g = -g
    if field is None:
        return SymbolFunctional(space, sign, [x // g for x in coeffs[0]])
    return SymbolFunctional(space, sign, [NFElement(field, [x // g for x in value], 1)
                                          for value in zip(*coeffs)])


def eigen_functional(space, targets, sign):
    """The unique (up to scalar) functional with Phi(T_l x) = a_l Phi(x) for
    the given (l, a_l) pairs and star sign; returned normalized: generator
    values of content 1, the first nonzero one positive.

    The eigenvalues are rationals, or lie in one number field K: the
    field of the first `NFElement` among them.  Over K the system is
    written over Q by restriction of scalars (each K-coordinate of Phi
    becomes deg K rational unknowns), and both cases are solved by the
    integer elimination of `linalg`, as the quotient is, in three steps:
    the sign subspace (`sign_kernel`), restricted by each T_l in turn
    (`restrict_kernel`), and the line's functional (`line_functional`),
    which raises `EigenspaceError` when the kernel left is not a line.
    Nothing is kept; a caller that restricts further, as
    `examples.symbol_pair` does prime by prime, holds the steps itself.
    """
    field = next((a.field for _, a in targets if isinstance(a, NFElement)), None)
    kern = sign_kernel(space, sign, field)
    for ell, a in targets:
        kern = restrict_kernel(kern, space.hecke_images(ell), a)
    return line_functional(kern)


def _combination(coeffs, rows):
    """The sparse row sum_k coeffs[k] rows[k], of sparse rows rows[k]."""
    out = {}
    for k, x in coeffs.items():
        for c, y in rows[k].items():
            out[c] = out.get(c, 0) + x * y
    return {c: x for c, x in out.items() if x}


def _eigen_rows(imgs, a, field, den, cols):
    """The rows of Phi(M e_j) = a Phi(e_j) for j in cols, imgs[j] the
    sparse integer row of M e_j over den: row (j, t) is the x^t
    coefficient of d (M[j] - a den e_j)."""
    deg = 1 if field is None else field.degree
    d, mult = _scalar_matrix(a, field)
    rows = []
    for j in cols:
        for t, mrow in enumerate(mult):
            row = {k * deg + t: d * x for k, x in imgs[j].items()}
            for i, m in enumerate(mrow):
                c = j * deg + i
                x = row.get(c, 0) - m * den
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
            rows.append(row)
    return rows


# rows and twisting --------------------------------------------------


class RowSymbol:
    """A symbol of both star signs whose every value is read off a row:
    `_build_rows(den)` gives both signs' rows at den, and `_rows` keeps
    them by den."""

    def evaluate(self, r, sign):
        """Value on {oo -> r} of the given sign: entry r mod 1 of the row
        at r's denominator."""
        r = Fraction(r)
        return self.evaluate_row(r.denominator, sign)[r.numerator % r.denominator]

    def evaluate_row(self, den, sign):
        """Values on {oo -> a/den} for a = 0..den-1, of the given sign:
        every k-th entry of a kept row at k den when one is kept, as
        x(b/den) = x(kb/(k den)), else built with the other sign's row by
        `_build_rows(den)`.  Both signs' rows at den are kept."""
        got = self._rows.get(den)
        if got is None:
            big = next((d for d in self._rows if d % den == 0), None)
            got = self._rows[den] = (self._build_rows(den) if big is None else
                                     tuple(r[::big // den] for r in self._rows[big]))
        return got[0] if sign > 0 else got[1]


class SymbolPair(RowSymbol):
    """x^+ and x^- of one form, presented to the p-adic layer.  Its rows
    hold raw path sums: ints for a normalized rational functional, else
    Fractions or field elements."""

    def __init__(self, plus, minus, level, label=""):
        self.plus = plus
        self.minus = minus
        self.level = level
        self.label = label
        self._rows = {}

    def _build_rows(self, den):
        """Both signs' rows at den: one walk (`_walk`) per a <= den/2 feeds
        both functionals, and the star involution gives
        x(1 - r) = x(-r) = s x(r) for the other half (s the functional's
        star sign)."""
        plus, minus = self.plus, self.minus
        rows = []
        for h, phi in zip(_walk(plus.space, plus.values_by_state(), minus.values_by_state(),
                                den, range(den // 2 + 1)), (plus, minus)):
            tail = h[(den - 1) // 2:0:-1]  # a < den/2 down to 1, for den - a
            rows.append(tuple(h + (tail if phi.sign > 0 else [-x for x in tail])))
        return tuple(rows)


class TwistedSymbol(RowSymbol):
    """Symbol pair of f tensor chi via Birch sums over a mod cond(chi).

    value at r, sign s:  sum_a conj(chi)(a) x^{s*chi(-1)}(r + a/C), divided
    by a per-sign scalar recorded in .scales: the one that gives the values
    at b/den, b = 0..den-1, content 1 with the first nonzero one positive
    (1 when they all vanish), fixed on first use.
    """

    def __init__(self, pair, chi, den, label=""):
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
        # the Birch weights conj(chi)(a) = zeta_n^k: the int +-1 where
        # 2k = 0 mod n, else a cyclotomic number
        n = chi.order
        self._chibar = {a: (-1 if k else 1) if 2 * k % n == 0
                        else CyclotomicNumber.zeta(n, k)
                        for a, k in enumerate(chi.conjugate().exponent_table())
                        if k is not None}
        self._rows = {}
        self._scale_den = den
        self._scales = None

    @property
    def scales(self):
        """The per-sign scalars, fixed by the first rows built at the
        constructor's den (`_build_rows`), which this builds if need be."""
        if self._scales is None:
            self.evaluate_row(self._scale_den, 1)
        return self._scales

    def _birch_row(self, den, s):
        """The unscaled sums of sign s at b/den, b = 0..den-1, read off
        the pair's row at den C, which holds x(b/den + a/C) at
        (b C + a den) mod den C: for each unit a, the slice of the row
        from a den mod C in steps of C, rotated by a den // C."""
        C = self.C
        base = self.pair.evaluate_row(den * C, s * self.eps)
        row = [0] * den
        for a, cv in self._chibar.items():
            col = base[a * den % C::C]
            t = a * den // C
            col = col[t:] + col[:t]
            if type(cv) is int and cv in (1, -1):
                row = list(map(add if cv == 1 else sub, row, col))
            else:
                row = [acc + cv * x for acc, x in zip(row, col)]
        return tuple(row)

    def _build_rows(self, den):
        """Both signs' rows at den: the Birch sums over the scales.  The
        first sums at the constructor's den fix the scales."""
        raw = [self._birch_row(den, s) for s in (1, -1)]
        if self._scales is None and den == self._scale_den:
            self._scales = {s: _signed_content(r) or Fraction(1) for s, r in zip((1, -1), raw)}
        return tuple(_divided(r, self.scales[s]) for s, r in zip((1, -1), raw))


def _divided(raw, c):
    """The entries of raw over the Fraction c: the int x d // n (c = n/d)
    for each int entry x that c divides, else x / c."""
    n, d = c.numerator, c.denominator
    return tuple(x * d // n if type(x) is int and not x * d % n else x / c
                 for x in raw)


def twist_symbol(pair, chi, den, label=""):
    """pair twisted by chi, its scales fixed at den: a new `TwistedSymbol`,
    or pair itself when chi has conductor 1."""
    if chi.conductor() == 1:
        return pair
    return TwistedSymbol(pair, chi, den, label=label)
