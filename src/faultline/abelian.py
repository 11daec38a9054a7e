"""Exact integer linear algebra: Smith normal form, direct limits of Z^n
under an endomorphism, and the group-expression algebra used to state
cohomology answers.

Matrices are numpy arrays with dtype=object holding Python ints, so all
arithmetic is exact.  A direct limit lim->(Z^n, a) is presented by the pair
(n, a); its invariants come from the induced injective map on the quotient of
Z^n by the saturated eventual kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .algebra import is_irreducible, peval, poly_str, ptrim
from .errors import ValidationError


def mat(rows):
    """Object-dtype integer matrix from nested sequences."""
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValidationError("matrix must be two-dimensional")
    return a


def eye(n):
    return np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)


def mat_tuple(a):
    return tuple(tuple(int(x) for x in row) for row in a)


def mat_str(a):
    return "[" + ",".join("[" + ",".join(str(int(x)) for x in row) + "]" for row in a) + "]"


def matpow(a, k):
    out = eye(a.shape[0])
    base = a.copy()
    while k:
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return out


def kron(a, b):
    return np.kron(a, b)


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    m = sum(b.shape[1] for b in blocks)
    out = np.zeros((n, m), dtype=object)
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def rank_q(a):
    """Rank over Q by fraction Gaussian elimination."""
    m, n = a.shape
    rows = [[Fraction(int(x)) for x in row] for row in a]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def det(a):
    """Exact determinant (Bareiss fraction-free elimination)."""
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValidationError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a):
    """Characteristic polynomial det(xI - a) as an ascending integer tuple
    (Faddeev-LeVerrier; all divisions are exact)."""
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValidationError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return (1,)
    frac = np.array([[Fraction(int(x)) for x in row] for row in a], dtype=object)
    ident = np.array(
        [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)], dtype=object
    )
    coeffs = [Fraction(1)]  # descending from x^n
    mk = frac.copy()
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            mk = frac @ (mk + ck * ident)
    out = []
    for c in reversed(coeffs):
        assert c.denominator == 1
        out.append(int(c))
    return ptrim(out)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    u_inv: np.ndarray

    @property
    def diagonal(self):
        return tuple(int(self.d[i][i]) for i in range(min(self.d.shape)))

    @property
    def rank(self):
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a):
    """u @ a @ v == d with u, v unimodular, d diagonal, d_i >= 0, d_i | d_{i+1}.
    The inverse of u is tracked alongside."""
    a = np.array([[int(x) for x in row] for row in a], dtype=object)
    m, n = a.shape
    d = a.copy()
    u, v = eye(m), eye(n)
    ui = eye(m)

    def row_add(i, j, q):  # row_i += q * row_j
        d[i, :] += q * d[j, :]
        u[i, :] += q * u[j, :]
        ui[:, j] -= q * ui[:, i]

    def col_add(i, j, q):  # col_i += q * col_j
        d[:, i] += q * d[:, j]
        v[:, i] += q * v[:, j]

    def row_swap(i, j):
        d[[i, j], :] = d[[j, i], :]
        u[[i, j], :] = u[[j, i], :]
        ui[:, [i, j]] = ui[:, [j, i]]

    def col_swap(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def row_neg(i):
        d[i, :] = -d[i, :]
        u[i, :] = -u[i, :]
        ui[:, i] = -ui[:, i]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = d[i, j]
                    if x != 0 and (best is None or abs(x) < abs(d[best[0], best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, m):
                if d[i, t] != 0:
                    row_add(i, t, -(d[i, t] // d[t, t]))
                    dirty = dirty or d[i, t] != 0
            for j in range(t + 1, n):
                if d[t, j] != 0:
                    col_add(j, t, -(d[t, j] // d[t, t]))
                    dirty = dirty or d[t, j] != 0
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                if any(d[i, j] % d[t, t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if t < min(m, n) and d[t, t] < 0:
            row_neg(t)

    assert (u @ a @ v == d).all()
    return SmithForm(u=u, d=d, v=v, u_inv=ui)


def kernel_basis(a):
    """Columns spanning ker(a) as a saturated sublattice of Z^n."""
    snf = smith_normal_form(a)
    n = a.shape[1]
    diag = list(snf.diagonal) + [0] * (n - len(snf.diagonal))
    cols = [j for j in range(n) if diag[j] == 0]
    return snf.v[:, cols]


# ---------------------------------------------------------------------------
# direct limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectLimitGroup:
    """Presentation of lim->(Z^n, a) plus reduced data: the induced injective
    r x r map a' on Z^n modulo the saturated eventual kernel, its charpoly and
    determinant, and the projection/section pair realizing the reduction."""

    n: int
    a: tuple
    r: int
    a_prime: tuple
    charpoly_prime: tuple
    det_prime: int
    projection: tuple
    section: tuple

    @property
    def a_prime_matrix(self):
        return mat(self.a_prime) if self.r else np.zeros((0, 0), dtype=object)


def direct_limit(a):
    """Direct limit of Z^n under an integer endomorphism."""
    a = a if isinstance(a, np.ndarray) else mat(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValidationError("direct limit needs a square matrix")
    if n == 0:
        return DirectLimitGroup(0, (), 0, (), (1,), 1, (), ())
    an = matpow(a, n)
    kern = kernel_basis(an)
    k = kern.shape[1]
    if k == 0:
        a_pr, proj, sect = a.copy(), eye(n), eye(n)
    else:
        snf = smith_normal_form(kern)
        assert all(x == 1 for x in snf.diagonal), "saturated kernel lattice must be unimodular"
        proj = snf.u[k:, :]
        sect = snf.u_inv[:, k:]
        a_pr = proj @ a @ sect
    r = n - k
    cp = charpoly(a_pr)
    dp = det(a_pr)
    assert dp != 0, "reduced bonding map must be injective"
    assert r == rank_q(an)
    return DirectLimitGroup(
        n=n,
        a=mat_tuple(a),
        r=r,
        a_prime=mat_tuple(a_pr),
        charpoly_prime=cp,
        det_prime=int(dp),
        projection=mat_tuple(proj),
        section=mat_tuple(sect),
    )


def _divisors(n):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return out


def _synth_div(p, r):
    """Divide an ascending polynomial by (x - r); remainder must vanish."""
    desc = list(reversed(p))
    out_desc = []
    acc = 0
    for c in desc[:-1]:
        acc = acc * r + c
        out_desc.append(acc)
    return list(reversed(out_desc))


def integer_roots(poly):
    """Integer roots of a monic integer polynomial, with multiplicities,
    sorted ascending."""
    p = list(ptrim(poly))
    roots = []
    mult0 = 0
    while p and p[0] == 0:
        mult0 += 1
        p.pop(0)
    if mult0:
        roots.append((0, mult0))
    if len(p) > 1 and p[0] != 0:
        for r in sorted(d * s for d in _divisors(int(p[0])) for s in (1, -1)):
            mult = 0
            while len(p) > 1 and peval(p, r) == 0:
                p = _synth_div(p, r)
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# group expressions
# ---------------------------------------------------------------------------

_KIND_ORDER = {"alg": 0, "tensor": 1, "zloc": 2, "limit": 3, "z": 4, "trivial": 5}


@dataclass(frozen=True, eq=False)
class GroupExpr:
    """Normalized expression over the atoms Z, Z[1/m], Z[x]/(p) localized at
    x (written Z[1/L:p]), and raw limit presentations, combined by direct sum,
    tensor product, and power (repeated direct sum).

    Equality and hashing go through the canonical string, so two expressions
    describing the same normalized group compare equal even when their
    attached presentations come from different pipelines.
    """

    kind: str                 # z | trivial | zloc | alg | limit | sum | tensor | power
    m: int = 0                # zloc
    poly: tuple = ()          # alg
    presentation: tuple = ()  # alg & limit
    children: tuple = ()      # sum & tensor
    base: "GroupExpr | None" = None
    power: int = 0

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def z():
        return GroupExpr(kind="z")

    @staticmethod
    def trivial():
        return GroupExpr(kind="trivial")

    @staticmethod
    def zloc(m):
        m = abs(int(m))
        if m == 1:
            return GroupExpr.z()
        return GroupExpr(kind="zloc", m=m)

    @staticmethod
    def alg(poly, presentation):
        return GroupExpr(kind="alg", poly=ptrim(poly), presentation=tuple(map(tuple, presentation)))

    @staticmethod
    def limit(g):
        if g.r == 0:
            return GroupExpr.trivial()
        return GroupExpr(kind="limit", presentation=g.a_prime)

    @staticmethod
    def zpow(k):
        if k == 0:
            return GroupExpr.trivial()
        if k == 1:
            return GroupExpr.z()
        return GroupExpr(kind="power", base=GroupExpr.z(), power=k)

    # -- invariants -----------------------------------------------------------

    def rank(self):
        if self.kind in ("z", "zloc"):
            return 1
        if self.kind == "trivial":
            return 0
        if self.kind == "alg":
            return len(self.poly) - 1
        if self.kind == "limit":
            return len(self.presentation)
        if self.kind == "sum":
            return sum(c.rank() for c in self.children)
        if self.kind == "tensor":
            out = 1
            for c in self.children:
                out *= c.rank()
            return out
        if self.kind == "power":
            return self.base.rank() * self.power
        raise AssertionError(self.kind)

    def det_class(self):
        """|det| of the presentation: products over sums, rank-weighted powers
        over tensors."""
        if self.kind in ("z", "trivial"):
            return 1
        if self.kind == "zloc":
            return self.m
        if self.kind == "alg":
            return abs(self.poly[0])
        if self.kind == "limit":
            return abs(det(mat(self.presentation)))
        if self.kind == "sum":
            out = 1
            for c in self.children:
                out *= c.det_class()
            return out
        if self.kind == "tensor":
            out = 1
            for i, c in enumerate(self.children):
                other = 1
                for j, o in enumerate(self.children):
                    if j != i:
                        other *= o.rank()
                out *= c.det_class() ** other
            return out
        if self.kind == "power":
            return self.base.det_class() ** self.power
        raise AssertionError(self.kind)

    def presentation_matrix(self):
        """Presentation of the expression as lim->(Z^rank, A): block sums over
        (+), Kronecker products over (x)."""
        if self.kind == "z":
            return eye(1)
        if self.kind == "trivial":
            return np.zeros((0, 0), dtype=object)
        if self.kind == "zloc":
            return mat([[self.m]])
        if self.kind in ("alg", "limit"):
            return mat(self.presentation)
        if self.kind == "sum":
            return block_diag([c.presentation_matrix() for c in self.children])
        if self.kind == "tensor":
            out = eye(1)
            for c in self.children:
                out = kron(out, c.presentation_matrix())
            return out
        if self.kind == "power":
            return block_diag([self.base.presentation_matrix()] * self.power)
        raise AssertionError(self.kind)

    # -- canonical form ----------------------------------------------------------

    def canonical(self):
        if self.kind == "z":
            return "Z"
        if self.kind == "trivial":
            return "0"
        if self.kind == "zloc":
            return f"Z[1/{self.m}]"
        if self.kind == "alg":
            return f"Z[1/L:{poly_str(self.poly)}]"
        if self.kind == "limit":
            return f"Lim(n={len(self.presentation)}; {mat_str(self.presentation)})"
        if self.kind == "sum":
            return " (+) ".join(
                f"({c.canonical()})" if c.kind == "tensor" else c.canonical()
                for c in self.children
            )
        if self.kind == "tensor":
            return " (x) ".join(
                f"({c.canonical()})" if c.kind in ("sum", "tensor") else c.canonical()
                for c in self.children
            )
        if self.kind == "power":
            b = self.base.canonical()
            if self.base.kind in ("sum", "tensor"):
                b = f"({b})"
            return f"{b}^{self.power}"
        raise AssertionError(self.kind)

    def _sort_key(self):
        node = self.base if self.kind == "power" else self
        return (_KIND_ORDER.get(node.kind, 9), node.canonical())

    def __eq__(self, other):
        if not isinstance(other, GroupExpr):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self):
        return self.canonical()

    def __repr__(self):
        return f"GroupExpr({self.canonical()!r})"


def _sum_terms(expr):
    """Flatten into direct summands, powers expanded."""
    if expr.kind == "trivial":
        return []
    if expr.kind == "sum":
        out = []
        for c in expr.children:
            out.extend(_sum_terms(c))
        return out
    if expr.kind == "power":
        return _sum_terms(expr.base) * expr.power
    return [expr]


def _collect(terms):
    """Sort summands, compress equal runs into powers."""
    terms = sorted(terms, key=lambda t: t._sort_key())
    if not terms:
        return GroupExpr.trivial()
    out = []
    i = 0
    while i < len(terms):
        j = i
        while j < len(terms) and terms[j] == terms[i]:
            j += 1
        count = j - i
        out.append(terms[i] if count == 1 else GroupExpr(kind="power", base=terms[i], power=count))
        i = j
    return out[0] if len(out) == 1 else GroupExpr(kind="sum", children=tuple(out))


def _tensor_factors(factors):
    """Tensor of sum-free factors: drop Z, absorb localizations pairwise,
    Kronecker raw limit presentations together."""
    flat = []
    for f in factors:
        if f.kind == "tensor":
            flat.extend(f.children)
        else:
            flat.append(f)
    if any(f.kind == "trivial" for f in flat):
        return GroupExpr.trivial()
    flat = [f for f in flat if f.kind != "z"]
    if not flat:
        return GroupExpr.z()
    zloc_m = 1
    limits = []
    rest = []
    for f in flat:
        if f.kind == "zloc":
            zloc_m *= f.m
        elif f.kind == "limit":
            limits.append(f)
        else:
            rest.append(f)
    if limits:
        prod = limits[0].presentation_matrix()
        for f in limits[1:]:
            prod = kron(prod, f.presentation_matrix())
        if zloc_m != 1:
            prod = kron(prod, mat([[zloc_m]]))
        combined = GroupExpr.limit(direct_limit(prod))
        zloc_m = 1
        if combined.kind == "trivial":
            return combined
        rest.append(combined)
    if zloc_m != 1:
        rest.append(GroupExpr.zloc(zloc_m))
    if not rest:
        return GroupExpr.z()
    rest.sort(key=lambda t: t._sort_key())
    return rest[0] if len(rest) == 1 else GroupExpr(kind="tensor", children=tuple(rest))


def normalize(expr):
    """Normalization rules, applied bottom-up: flatten sums, distribute
    tensor over direct sum, Z (x) G = G, Z[1/a] (x) Z[1/b] = Z[1/ab],
    Lim (x) Lim = Lim of the Kronecker product, collect equal summands into
    powers.  Idempotent."""
    if expr.kind in ("z", "trivial", "zloc", "alg", "limit"):
        return expr
    if expr.kind == "power":
        base = normalize(expr.base)
        if expr.power == 0 or base.kind == "trivial":
            return GroupExpr.trivial()
        if expr.power == 1:
            return base
        return _collect(_sum_terms(base) * expr.power)
    if expr.kind == "sum":
        terms = []
        for c in expr.children:
            terms.extend(_sum_terms(normalize(c)))
        return _collect(terms)
    if expr.kind == "tensor":
        children = [normalize(c) for c in expr.children]
        termlists = [_sum_terms(c) for c in children]
        products = [()]
        for tl in termlists:
            if not tl:
                return GroupExpr.trivial()
            products = [p + (t,) for p in products for t in tl]
        return _collect([_tensor_factors(list(p)) for p in products])
    raise AssertionError(expr.kind)


def direct_sum(x, y):
    return normalize(GroupExpr(kind="sum", children=(x, y)))


def tensor(x, y):
    return normalize(GroupExpr(kind="tensor", children=(x, y)))


def invariants(expr):
    """Isomorphism-invariant summary of a normalized expression."""
    rank = expr.rank()
    return {
        "rank": rank,
        "det": expr.det_class(),
        "charpoly": poly_str(charpoly(expr.presentation_matrix())) if rank else "1",
    }


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def recognize(g):
    """Map a DirectLimitGroup to a recognized GroupExpr.

    Rules, in order: trivial limit; unimodular bonding -> Z^r; rank one ->
    Z[1/m]; irreducible charpoly -> Z[x]/(p) localized at x; diagonalizable
    over Q with integer eigenvalues whose saturated eigen-lattice sum has
    index coprime to the product of the non-unit eigenvalues -> direct sum of
    Z and Z[1/|e|] summands; otherwise the raw presentation."""
    if g.r == 0:
        return GroupExpr.trivial()
    a_pr = g.a_prime_matrix
    if abs(g.det_prime) == 1:
        return normalize(GroupExpr.zpow(g.r))
    if g.r == 1:
        return GroupExpr.zloc(abs(int(a_pr[0, 0])))
    if is_irreducible(g.charpoly_prime):
        return GroupExpr.alg(g.charpoly_prime, g.a_prime)
    roots = integer_roots(g.charpoly_prime)
    if sum(m for _, m in roots) == g.r:
        lattices = []
        diagonalizable = True
        for e, m in roots:
            ker = kernel_basis(a_pr - e * eye(g.r))
            if ker.shape[1] != m:
                diagonalizable = False
                break
            lattices.append(ker)
        if diagonalizable:
            index = abs(det(np.concatenate(lattices, axis=1)))
            nonunit = 1
            for e, m in roots:
                if abs(e) != 1:
                    nonunit *= abs(e) ** m
            if index != 0 and gcd(index, nonunit) == 1:
                terms = []
                for e, m in roots:
                    atom = GroupExpr.z() if abs(e) == 1 else GroupExpr.zloc(abs(e))
                    terms.extend([atom] * m)
                return _collect(terms)
    return GroupExpr.limit(g)
