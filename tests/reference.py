"""Reference implementations that tests use as oracles for live code.

They are written independently of the fast paths they check and run only
under the test suite.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

from iwrank import modsym
from iwrank.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from iwrank.iwasawa import PadicSeries, padic_ints
from iwrank.kernels import convolve
from iwrank.qseries import bernoulli_number


# -- dense exact linear algebra ------------------------------------------
#
# The oracle of `linalg.rref`/`linalg.kernel` and of the solves built on
# them: a textbook Gauss-Jordan elimination over any exact field
# (Fraction or number-field entries), on dense lists of lists.


def dense(row, dim):
    """The sparse row {index: entry} as a list of its dim entries."""
    return [row.get(k, 0) for k in range(dim)]


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
    """Basis of {v : rows . v = 0}, 1 at each free column; `one` is the
    multiplicative identity of the entry field (sets the ring of the
    output)."""
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


def restrict_to_cuspidal(space, images):
    """The matrix of an operator on the cuspidal subspace of a symbol
    space, in the dense Fraction basis of the boundary kernel: each
    image solved against that basis.  The oracle of
    `ModularSymbolSpace.restrict_to_cuspidal`."""
    _, boundary = space.boundary_data()
    dense = [[Fraction(row.get(j, 0)) for j in range(space.dim)]
             for row in boundary]
    K = right_kernel(dense, space.dim, Fraction(1))
    cols = [list(c) for c in zip(*K)] if K else []
    out = []
    for k in K:
        img = [sum(c * row[t] for c, row in zip(k, images))
               for t in range(space.dim)]
        x = solve_right(cols, img)
        if x is None:
            raise ValueError("operator does not preserve the cuspidal subspace")
        out.append(x)
    return out


def genus_gamma0(N: int) -> int:
    """The genus of X_0(N), 1 + index/12 - nu2/4 - nu3/3 - cusps/2 in
    Fractions, with nu2 and nu3 counted as the roots of x^2 + 1 and of
    x^2 + x + 1 mod N (Diamond and Shurman, *A First Course in Modular
    Forms*, section 3.9).  The oracle of `modsym.genus_gamma0`."""
    index, m, p = N, N, 2
    while m > 1:
        if m % p == 0:
            index += index // p
            while m % p == 0:
                m //= p
        p += 1
    nu2 = sum(1 for x in range(N) if (x * x + 1) % N == 0)
    nu3 = sum(1 for x in range(N) if (x * x + x + 1) % N == 0)
    cusps = sum(sum(1 for t in range(g) if gcd(t, g) == 1)
                for g in (gcd(d, N // d) for d in range(1, N + 1) if N % d == 0))
    g = 1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert g.denominator == 1 and g >= 0, N
    return int(g)


def p1_normalize(N: int, u: int, v: int) -> tuple[int, int]:
    """Canonical representative of (u:v) in P^1(Z/N): first entry a divisor
    g of N, second minimal over the stabilizing unit orbit.  The oracle of
    `modsym.P1List`."""
    if N == 1:
        return 0, 0
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
        return 0, 1
    g = gcd(u, N)
    s = pow(u // g, -1, N // g)  # s u = g mod N
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


def merel_matrices(n: int):
    """All [a,b;c,d] with ad-bc=n, a>b>=0, d>c>=0, by a scan of every
    (a, d) with a + d <= n + 1 and every c < d, cubic in n.  The bound
    holds as n = ad - bc >= ad - (a - 1)(d - 1) = a + d - 1.  The oracle
    of `modsym.merel_matrices`."""
    mats = []
    for a in range(1, n + 1):
        for d in range(1, n + 2 - a):
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


def path_sum(flat, N, a, b):
    """Value on {oo -> a/b}, 0 <= a < b (not necessarily coprime): the sum
    of x_(q_k : (-1)^(k+1) q_(k-1)) over the continued-fraction convergents
    p_k/q_k of a/b, with flat[(u % N) * N + v % N] = x_(u:v).  The oracle
    of the successor-table walks of `modsym`."""
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


def flat_values(phi):
    """The generator values of a symbol functional laid out for
    `path_sum`: x_(u:v) at u N + v for 0 <= u, v < N, None where (u, v)
    is not a point."""
    p1, vals = phi.space.p1, phi.generator_values()
    flat = []
    for u in range(p1.N):
        for v in range(p1.N):
            try:
                flat.append(vals[p1.index(u, v)])
            except ValueError:
                flat.append(None)
    return flat


def point_values(phi):
    """The value of the functional phi on {oo -> r}, as a function of r:
    `path_sum` at r's numerator mod its denominator, one point at a time.
    The single-point oracle of the rows of `modsym`."""
    flat, N = flat_values(phi), phi.space.N

    def value(r):
        r = Fraction(r)
        return path_sum(flat, N, r.numerator % r.denominator, r.denominator)

    return value


# -- integer lattices and Mazur's Eisenstein index ------------------------
#
# Row lattices in Z^n, reduced by unimodular row operations alone, so
# that the index of one lattice in another can be read off: `linalg.rref`
# works over Q and cannot see it.


def hermite_form(rows):
    """The Hermite normal form of the lattice the integer rows span:
    (basis, pivots), one row per pivot column, in increasing order, its
    pivot entry positive, its entries 0 left of the pivot and reduced
    into [0, pivot) above the other rows' pivots.  Each column is cleared
    by Euclid's algorithm on the rows that reach it: each pass reduces
    them by the one of least entry there, until one is left."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    basis, pivots = [], []
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv, rest = live[0], live[1:]
            live = [piv]
            for r in rest:
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
                if r[col]:
                    live.append(r)
                elif any(r):
                    rows.append(r)
        if live:
            piv = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            for i, row in enumerate(basis):
                q = row[col] // piv[col]
                basis[i] = [x - q * y for x, y in zip(row, piv)]
            basis.append(piv)
            pivots.append(col)
    return basis, pivots


def lattice_index(lattice, sub):
    """[L : M] for the row lattices L and M, M in L of the same rank: the
    product of M's Hermite pivots over L's, as both project isomorphically
    onto their common pivot columns."""
    (big, cols), (small, sub_cols) = hermite_form(lattice), hermite_form(sub)
    assert cols == sub_cols, "the lattices differ in rank"
    num = den = 1
    for c, x, y in zip(cols, big, small):
        num, den = num * y[c], den * x[c]
    assert num % den == 0, "the sublattice is not contained in the lattice"
    return num // den


def eisenstein_indices(space, ells):
    """[C : I'C] on the integral cuspidal symbols C of a symbol space with
    `den` 1 (so Z^dim is the lattice of the Manin symbols), and on its
    plus and minus quotients (1 + star)C and (1 - star)C, where I' is
    spanned by the T_l - 1 - l for l in ells.  C is the saturated kernel
    of the boundary rows: the rows [boundary of e_j | e_j] brought to
    Hermite form, those that end with no boundary entry give a Z-basis of
    it.  The operators are read from `hecke_images` and `star_images`."""
    assert space.den == 1, space.N
    dim = space.dim
    _, boundary = space.boundary_data()
    k = len(boundary)
    unit = [[int(i == j) for i in range(dim)] for j in range(dim)]
    form, pivots = hermite_form([[row.get(j, 0) for row in boundary] + unit[j]
                                 for j in range(dim)])
    cusp = [r[k:] for r, c in zip(form, pivots) if c >= k]

    def apply(images, x):
        out = [0] * dim
        for j, xj in enumerate(x):
            for c, y in images[j].items():
                out[c] += xj * y
        return out

    hecke = {ell: space.hecke_images(ell) for ell in ells}
    star = space.star_images()
    out = []
    for sign in (0, 1, -1):
        lattice = cusp if not sign else [
            [a + sign * b for a, b in zip(x, apply(star, x))] for x in cusp]
        moved = [[a - (1 + ell) * b for a, b in zip(apply(hecke[ell], x), x)]
                 for ell in ells for x in lattice]
        out.append(lattice_index(lattice, moved))
    return tuple(out)


# -- weight-k Manin symbols at level one ---------------------------------
#
# P^1(Z/1) is one point, so the weight-k Manin symbols on SL2(Z) are the
# k - 1 monomials X^i Y^(k-2-i), i = 0..k-2.  A 2x2 integer matrix
# [a,b;c,d] acts on them from the right by P(X, Y) -> P(aX + bY, cX + dY),
# the relations are x + x|S = 0 and x + x|T + x|T^2 = 0, the star
# involution is x -> x|[-1,0;0,1], and T_n is the sum of x|M over
# `modsym.merel_matrices(n)` (Stein, *Modular Forms: A Computational
# Approach*, ch. 8; Manin, "Periods of parabolic forms and p-adic Hecke
# series", 1973).  A functional is the list of its k - 1 values on the
# monomials, solved densely over Q.  A Manin-symbol solver with
# coefficients in Sym^(k-2) must agree with it at N = 1.

LEVEL_ONE_S = (0, -1, 1, 0)
LEVEL_ONE_T = (0, -1, 1, -1)
LEVEL_ONE_STAR = (-1, 0, 0, 1)


def monomial_images(k, mat):
    """The image of each monomial X^i Y^(k-2-i) under mat = (a, b, c, d):
    the k - 1 coefficients of (aX + bY)^i (cX + dY)^(k-2-i), at
    X^j Y^(k-2-j) for j = 0..k-2."""
    a, b, c, d = mat
    out = []
    for i in range(k - 1):
        m = k - 2 - i
        row = [0] * (k - 1)
        for s in range(i + 1):
            for t in range(m + 1):
                row[s + t] += (comb(i, s) * a ** s * b ** (i - s)
                               * comb(m, t) * c ** t * d ** (m - t))
        out.append(row)
    return out


def _mat2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def level_one_hecke(k, n):
    """The images of the monomials under T_n: the sums over Merel's
    matrices of determinant n (`modsym.merel_matrices`)."""
    total = [[0] * (k - 1) for _ in range(k - 1)]
    for mat in modsym.merel_matrices(n):
        for row, img in zip(total, monomial_images(k, mat)):
            for j, x in enumerate(img):
                row[j] += x
    return total


def level_one_eigenspace(k, sign, targets=()):
    """A basis of the functionals Phi on the weight-k Manin symbols at
    level one with Phi(x|star) = sign Phi(x) and Phi(x|T_l) = a_l Phi(x)
    for each (l, a_l) in targets, dense over Q: the right kernel of one
    row per monomial and relation, then that of the Hecke rows taken on
    its basis, mapped back."""
    unit = [[int(i == j) for j in range(k - 1)] for i in range(k - 1)]
    rows = [list(map(sum, zip(*imgs))) for imgs in zip(unit, monomial_images(k, LEVEL_ONE_S))]
    rows += [list(map(sum, zip(*imgs)))
             for imgs in zip(unit, monomial_images(k, LEVEL_ONE_T),
                             monomial_images(k, _mat2(LEVEL_ONE_T, LEVEL_ONE_T)))]
    rows += [[x - sign * y for x, y in zip(img, e)]
             for e, img in zip(unit, monomial_images(k, LEVEL_ONE_STAR))]
    basis = right_kernel([[Fraction(x) for x in row] for row in rows if any(row)],
                         k - 1, Fraction(1))
    hecke = []
    for ell, a in targets:
        for e, img in zip(unit, level_one_hecke(k, ell)):
            row = [x - a * y for x, y in zip(img, e)]
            hecke.append([sum(x * y for x, y in zip(row, v)) for v in basis])
    if not hecke or not basis:
        return basis
    return [[sum(c * v[i] for c, v in zip(w, basis)) for i in range(k - 1)]
            for w in right_kernel(hecke, len(basis), Fraction(1))]


def primitive(vector):
    """The rational vector scaled to coprime integers, its first nonzero
    entry positive."""
    den = lcm(*(Fraction(x).denominator for x in vector))
    ints = [int(x * den) for x in vector]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def padic_log(u: int, p: int, abs_prec: int) -> PadicSeries:
    """log of a 1-unit known mod p^abs_prec (p odd), as a one-term series
    mod the digits it keeps, by its power series.  The oracle of
    `padic_l._wild_coordinates`."""
    if p == 2:
        raise ValueError("p = 2 not supported")
    pk = p**abs_prec
    y = (u - 1) % pk
    if y % p != 0:
        raise ValueError("padic_log needs u = 1 mod p")
    if y == 0:
        return PadicSeries.from_ints(p, abs_prec, 1, [0])
    acc = 0
    term = 1
    k = 0
    loss = 0
    while True:
        k += 1
        term = term * y % pk
        if term == 0 and k > 1:
            break
        kv = 0
        kk = k
        while kk % p == 0:
            kk //= p
            kv += 1
        loss = max(loss, kv)
        t = term // p**kv if kv else term
        # term/k = (term/p^kv) * (k/p^kv)^(-1), exact p-part division
        contrib = t * pow(kk, -1, pk) % pk
        if k % 2 == 0:
            acc = (acc - contrib) % pk
        else:
            acc = (acc + contrib) % pk
        # all later terms vanish mod p^abs_prec once k >= abs_prec
        # (v(y^k/k) >= k - log_p k is increasing); generous cutoff:
        if k > abs_prec + 4:
            break
    return PadicSeries.from_ints(p, abs_prec - loss, 1, [acc])


def bernoulli_poly_at(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum C(k,j) B_j x^(k-j)."""
    acc = Fraction(0)
    c = 1
    xp = [Fraction(1)]
    for _ in range(k):
        xp.append(xp[-1] * x)
    for j in range(k + 1):
        acc += c * bernoulli_number(j) * xp[k - j]
        c = c * (k - j) // (j + 1)
    return acc


def generalized_bernoulli(l: int, chi) -> CyclotomicNumber:
    """B_{l,chi} = F^(l-1) sum_{a=1..F} chi(a) B_l(a/F) over the modulus F
    of chi, summed in Fractions (Washington, Introduction to Cyclotomic
    Fields, Prop. 4.1).  The oracle of `qseries.generalized_bernoulli`."""
    F = chi.modulus
    acc = CyclotomicNumber(chi.order, [])
    for a in range(1, F + 1):
        v = chi(a)
        if v.is_zero():
            continue
        acc = acc + v * bernoulli_poly_at(l, Fraction(a, F))
    return acc * Fraction(F) ** (l - 1)


# -- the T-basis of the cyclic group ring ------------------------------


def gamma_to_t(masses):
    """T-basis coefficients of sum_c masses[c] (1+T)^c: the Taylor shift
    x -> x + 1, exact on ints.  The oracle of `iwasawa.mass_mu_lambda`
    (through `mu_lambda` of the converted series)."""
    rev = list(masses)[::-1]
    n = len(rev)
    # pass k replaces the coefficients of degree >= k by their suffix sums
    for k in range(n - 1):
        rev[:n - k] = accumulate(rev[:n - k])
    return rev[::-1]


def t_to_gamma(coeffs):
    """Group-basis masses of sum_k coeffs[k] (gamma - 1)^k: the Taylor
    shift x -> x - 1, as x -> x + 1 between two sign flips of the odd
    coefficients."""
    flip = [-c if k & 1 else c for k, c in enumerate(coeffs)]
    return [-c if k & 1 else c for k, c in enumerate(gamma_to_t(flip))]


def fold(vec, order):
    """Reduction of a polynomial in gamma modulo gamma^order - 1."""
    out = list(vec[:order]) + [0] * (order - len(vec))
    for i in range(order, len(vec)):
        out[i % order] += vec[i]
    return out


def t_series(bs) -> PadicSeries:
    """The T-basis series of a branch series' group masses."""
    return PadicSeries.from_ints(bs.p, bs.M, len(bs.masses),
                                 gamma_to_t(bs.masses), bs.shift)


def family_state(family):
    """What a branch family (alpha, raw, dressed) holds, in plain values,
    to compare two builds of it: alpha's ints and each series' masses,
    shift, invariants and sigma0 factors."""
    alpha, raw, dressed = family

    def series(bss):
        return {j: (bs.p, bs.M, bs.shift, bs.masses, bs.invariants, bs.j, bs.form,
                    bs.sigma0_factors) for j, bs in bss.items()}

    return (alpha.p, alpha.M, alpha.shift, alpha.ints), series(raw), series(dressed)


def example_state(ex):
    """What a bundled run (`examples.build_example`) holds, in plain
    values, to compare two builds of it: the symbol's label, level and
    rows at p, its branch family and every other entry as it is."""
    sym, p = ex["sym"], ex["p"]
    rest = {k: v for k, v in ex.items() if k not in ("sym", "alpha", "raw", "dressed")}
    return (sym.label, sym.level, [sym.evaluate_row(p, s) for s in (1, -1)],
            family_state((ex["alpha"], ex["raw"], ex["dressed"])), rest)


def reduce_gamma(f: PadicSeries, order: int) -> PadicSeries:
    """Remainder of a T-series modulo (1+T)^order - 1, with T-bound
    order: the projection onto the group ring of a cyclic quotient."""
    ints = list(f.ints)
    if f.D > order:
        ints = gamma_to_t(fold(t_to_gamma(ints), order))
    return PadicSeries.from_ints(f.p, f.M, order, ints, f.shift)


def group_ring_mul(a: PadicSeries, b: PadicSeries) -> PadicSeries:
    """Product of two T-series of length D = order modulo
    ((1+T)^order - 1, p^M): a cyclic convolution of their group masses,
    folded mod gamma^order - 1.  The oracle of the verdict rule and of
    `padic_l.apply_sigma0`."""
    a.check_product(b)
    m = a.p ** a.M
    ga, gb = ([x % m for x in t_to_gamma(s.ints)] for s in (a, b))
    prod = fold(convolve(ga, gb), a.D)
    return PadicSeries.from_ints(a.p, a.M, a.D, gamma_to_t([x % m for x in prod]))


# -- Q(zeta_n) reduced at every step -----------------------------------


class EagerCyclotomic:
    """Element of Q(zeta_order) reduced modulo Phi_order after every
    operation: integer numerators `nums` on the power basis over one
    denominator `den`, in lowest terms.  A vector is taken mod
    x^order - 1 (`fold`) and then divided by Phi_order by long division:
    no fold by x^(order/2) = -1 and no Barrett quotient.  The oracle of
    `cyclotomic.CyclotomicNumber`, which stays in a group ring and reduces
    only when read."""

    def __init__(self, order, nums, den=1):
        poly = cyclotomic_polynomial(order)
        d = len(poly) - 1
        rem = fold(list(nums), order)
        terms = [(t, c) for t, c in enumerate(poly[:d]) if c]
        for j in range(len(rem) - 1, d - 1, -1):
            c = rem[j]
            if c:
                for t, pt in terms:
                    rem[j - d + t] -= c * pt
        g = gcd(den, *rem[:d])
        self.order = order
        self.nums = tuple(c // g for c in rem[:d])
        self.den = den // g

    @classmethod
    def from_monomials(cls, order, items):
        """sum c zeta^e over (e, c) pairs, c an int or a Fraction."""
        items = [(e, Fraction(c)) for e, c in items]
        den = lcm(*(c.denominator for _, c in items))
        vec = [0] * order
        for e, c in items:
            vec[e % order] += c.numerator * (den // c.denominator)
        return cls(order, vec, den)

    def _mapped(self, order, t):
        """sum nums[j] zeta_order^(j t) / den."""
        return EagerCyclotomic.from_monomials(
            order, [(j * t, Fraction(c, self.den)) for j, c in enumerate(self.nums)])

    def lift_to(self, order):
        return self._mapped(order, order // self.order)

    def galois(self, t):
        return self._mapped(self.order, t)

    def conjugate(self):
        return self.galois(-1)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = EagerCyclotomic.from_monomials(self.order, [(0, other)])
        m = lcm(self.order, other.order)
        return self.lift_to(m), other.lift_to(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return EagerCyclotomic(a.order, [x * b.den + y * a.den
                                         for x, y in zip(a.nums, b.nums)], a.den * b.den)

    def __neg__(self):
        return EagerCyclotomic(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._pair(other)
        return EagerCyclotomic(a.order, convolve(a.nums, b.nums), a.den * b.den)

    def __pow__(self, e):
        base = self if e >= 0 else self.inverse()
        out = EagerCyclotomic.from_monomials(self.order, [(0, 1)])
        for _ in range(abs(e)):
            out = out * base
        return out

    def inverse(self):
        """The solution x of self * x = 1, by dense elimination on the
        matrix of multiplication by self."""
        d = len(self.nums)
        cols = [(self * EagerCyclotomic.from_monomials(self.order, [(j, 1)])).coeffs
                for j in range(d)]
        x = solve_right([list(r) for r in zip(*cols)], [Fraction(1)] + [Fraction(0)] * (d - 1))
        if x is None:
            raise ZeroDivisionError("inverse of zero")
        return EagerCyclotomic.from_monomials(self.order, list(enumerate(x)))

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        a, b = self._pair(other)
        return (a.nums, a.den) == (b.nums, b.den)

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{j}" if j > 1 else "")
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


# -- the Bernoulli distribution as ball masses ----------------------------


def b1_balls(p, n, M):
    """The Bernoulli distribution E_1(a + p^(n+1)Z_p) = B_1({a/p^(n+1)}) as
    ball masses for `padic_l.branch_series`, mod p^M: (shift, masses) with
    p^shift * masses[a] = a/p^(n+1) - 1/2 for a mod p^(n+1), 0 where p | a,
    reduced mod p^(M - shift).  It has no level and no alpha.  Branch
    j = 1 - k mod p - 1 of it is the Kubota-Leopoldt series whose value at
    T = u^(m-1) - 1 is (1 - p^(m-1)) B_m/m for every m = k mod p - 1
    (Washington, GTM 83, ch. 7 and 12)."""
    den = p ** (n + 1)
    return padic_ints([Fraction(2 * a - den, 2 * den) if a % p else 0
                       for a in range(den)], p, M)
