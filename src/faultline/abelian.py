"""Exact integer linear algebra: Smith normal form, direct limits of Z^n
under an endomorphism, and the group-expression algebra used to state
cohomology answers.

A matrix is a tuple of row tuples of Python ints, so all arithmetic is exact
and every stored matrix is immutable and hashable.  An m x 0 matrix is m
empty rows; a 0 x n matrix is the empty tuple, whose width is taken as 0.
Rank and determinant both come from the one fraction-free elimination,
``algebra.gauss_jordan``.  A direct limit lim->(Z^n, a) is presented by the
pair (n, a); its invariants come from the induced injective map on the
quotient of Z^n by the saturated eventual kernel.  A group expression is
presented by one matrix, block sums over direct sums and Kronecker products
over tensor products, and its rank and |det| are read off that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from operator import index

from .algebra import gauss_jordan, poly_str, ptrim
from .errors import ValidationError
from .zpoly import irreducible_factors


def mat(rows):
    """Integer matrix (tuple of row tuples) from nested sequences of
    integers."""
    try:
        a = tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        raise ValidationError("matrix entries must be integers") from None
    if len(set(map(len, a))) > 1:
        raise ValidationError("matrix must be two-dimensional")
    return a


def _as_mat(a):
    """``a`` itself when it is a matrix already, a tuple of equal-length
    tuples of ints, as every matrix the package builds is; else ``mat(a)``.
    The test reads each entry's type but builds nothing."""
    if (type(a) is tuple and set(map(type, a)) <= {tuple}
            and len(set(map(len, a))) <= 1
            and set(map(type, chain.from_iterable(a))) <= {int}):
        return a
    return mat(a)


def shape(a):
    return len(a), (len(a[0]) if a else 0)


def eye(n):
    zeros = (0,) * n
    return tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n))


def add_identity(a, c):
    """a + c * I for a square matrix a."""
    return tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def transpose(a):
    return tuple(zip(*a))


def matmul(a, b):
    """Product a b, accumulated row by row; skips zero entries of both
    factors."""
    width = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, terms in zip(row, nonzero):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_str(a):
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in a) + "]"


def matpow(a, k):
    out = eye(len(a))
    while k:
        if k & 1:
            out = matmul(out, a)
        k >>= 1
        if k:
            a = matmul(a, a)
    return out


def kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def block_diag(blocks):
    widths = [shape(b)[1] for b in blocks]
    total = sum(widths)
    out = []
    left = 0
    for b, w in zip(blocks, widths):
        out.extend((0,) * left + tuple(row) + (0,) * (total - left - w) for row in b)
        left += w
    return tuple(out)


def rank_q(a):
    """Rank over Q: the pivot count of ``gauss_jordan``."""
    return gauss_jordan([list(row) for row in a])[0]


def det(a):
    """Exact determinant: ``gauss_jordan``'s signed last pivot, or 0 when a
    column has no pivot."""
    n, cols = shape(a)
    if n != cols:
        raise ValidationError("determinant of a non-square matrix")
    rank, d = gauss_jordan([list(row) for row in a])
    return d if rank == n else 0


def charpoly(a):
    """Characteristic polynomial det(xI - a) as an ascending integer tuple
    (Faddeev-LeVerrier on integer matrices; every division is exact)."""
    n, cols = shape(a)
    if n != cols:
        raise ValidationError("characteristic polynomial of a non-square matrix")
    coeffs = [1]  # descending from x^n
    mk = a
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
        if k < n:
            mk = matmul(a, add_identity(mk, ck))
    return ptrim(reversed(coeffs))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    u: tuple
    d: tuple
    v: tuple
    u_inv: tuple

    @property
    def diagonal(self):
        return tuple(self.d[i][i] for i in range(min(shape(self.d))))

    @property
    def rank(self):
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a):
    """u a v == d with u, v unimodular, d diagonal, d_i >= 0, d_i | d_{i+1}.
    The inverse of u is tracked alongside."""
    a = _as_mat(a)
    m, n = shape(a)
    d = [list(row) for row in a]
    v = [list(row) for row in eye(n)]
    # ui_t holds the columns of u^-1 as rows, so that the column operation
    # matching each row operation on u is a row operation too.  The rows of
    # u and ui_t are mostly zero, so they are kept sparse, {column: entry}
    u, ui_t = ([{i: 1} for i in range(m)] for _ in range(2))

    def sparse_add(row, other, q):  # row += q * other
        for j, y in other.items():
            x = row.get(j, 0) + q * y
            if x:
                row[j] = x
            else:
                row.pop(j, None)

    def row_add(i, j, q):  # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        sparse_add(u[i], u[j], q)
        sparse_add(ui_t[j], ui_t[i], -q)

    def col_add(i, j, q):  # col_i += q * col_j
        for row in chain(d, v):
            row[i] += q * row[j]

    def row_swap(i, j):
        for rows in (d, u, ui_t):
            rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i, j):
        for row in chain(d, v):
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        for rows in (u, ui_t):
            rows[i] = {j: -x for j, x in rows[i].items()}

    for t in range(min(m, n)):
        while True:
            # the first entry of least modulus; nothing beats modulus 1
            best = None
            least = 0
            for i in range(t, m):
                row = d[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (best is None or abs(x) < least):
                        best, least = (i, j), abs(x)
                        if least == 1:
                            break
                if least == 1:
                    break
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    row_add(i, t, -(d[i][t] // d[t][t]))
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_add(j, t, -(d[t][j] // d[t][t]))
                    dirty = dirty or d[t][j] != 0
            if dirty:
                continue
            if least == 1:  # a unit pivot divides every entry
                break
            offender = None
            for i in range(t + 1, m):
                if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if t < min(m, n) and d[t][t] < 0:
            row_neg(t)

    def dense(row):
        out = [0] * m
        for j, x in row.items():
            out[j] = x
        return tuple(out)

    snf = SmithForm(u=tuple(map(dense, u)), d=tuple(map(tuple, d)), v=tuple(map(tuple, v)),
                    u_inv=transpose(map(dense, ui_t)))
    assert matmul(matmul(snf.u, a), snf.v) == snf.d
    return snf


def kernel_basis(a):
    """Columns spanning ker(a) as a saturated sublattice of Z^n: the columns
    of v past the rank, since the Smith diagonal lists its nonzeros first."""
    snf = smith_normal_form(a)
    return tuple(row[snf.rank:] for row in snf.v)


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



def direct_limit(a):
    """Direct limit of Z^n under an integer endomorphism.  When det(a) != 0,
    a^n is injective: the eventual kernel is 0 and a is the reduced map, so
    only a singular a needs the Smith form of a^n."""
    a = _as_mat(a)
    n, cols = shape(a)
    if n != cols:
        raise ValidationError("direct limit needs a square matrix")
    dp = det(a)
    if dp:
        k, a_pr, proj, sect = 0, a, eye(n), eye(n)
    else:
        an = matpow(a, n)
        kern = kernel_basis(an)
        k = shape(kern)[1]
        snf = smith_normal_form(kern)
        assert all(x == 1 for x in snf.diagonal), "saturated kernel lattice must be unimodular"
        proj = snf.u[k:]
        sect = tuple(row[k:] for row in snf.u_inv)
        a_pr = matmul(matmul(proj, a), sect)
        dp = det(a_pr)
        assert dp != 0, "reduced bonding map must be injective"
        assert n - k == rank_q(an)
    r = n - k
    cp = charpoly(a_pr)
    return DirectLimitGroup(
        n=n,
        a=a,
        r=r,
        a_prime=a_pr,
        charpoly_prime=cp,
        det_prime=dp,
        projection=proj,
        section=sect,
    )


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
        """Rank of the presentation: its row count."""
        return len(self.presentation_matrix())

    def det_class(self):
        """|det| of the presentation (1 for the empty one)."""
        return abs(det(self.presentation_matrix()))

    def presentation_matrix(self):
        """Presentation of the expression as lim->(Z^rank, A): block sums over
        (+), Kronecker products over (x).  Built once per expression, so the
        rank, the |det| and a printed matrix read one build."""
        return self._presentation

    @cached_property
    def _presentation(self):
        if self.kind == "z":
            return eye(1)
        if self.kind == "trivial":
            return ()
        if self.kind == "zloc":
            return ((self.m,),)
        if self.kind in ("alg", "limit"):
            return self.presentation
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
    Kronecker raw limit presentations together.  A lone limit takes the same
    path: its presentation is injective, so ``direct_limit`` gives it back
    unchanged."""
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
    """Isomorphism-invariant summary of a normalized expression: the rank,
    |det| and characteristic polynomial of its one presentation matrix."""
    a = expr.presentation_matrix()
    return {
        "rank": len(a),
        "det": abs(det(a)),
        "charpoly": poly_str(charpoly(a)) if a else "1",
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
    a_pr = g.a_prime
    if abs(g.det_prime) == 1:
        return normalize(GroupExpr.zpow(g.r))
    if g.r == 1:
        return GroupExpr.zloc(abs(a_pr[0][0]))
    # charpoly_prime is monic: its factors are monic, and a linear one x - e
    # is an integer root e
    cp = g.charpoly_prime
    factors = irreducible_factors(cp)
    if len(factors) == 1 and factors[0][1] == 1 and len(factors[0][0]) == g.r + 1:
        return GroupExpr.alg(g.charpoly_prime, g.a_prime)
    roots = sorted((-f[0], m) for f, m in factors if len(f) == 2)
    if sum(m for _, m in roots) == g.r:
        lattices = []
        diagonalizable = True
        for e, m in roots:
            ker = kernel_basis(add_identity(a_pr, -e))
            if shape(ker)[1] != m:
                diagonalizable = False
                break
            lattices.append(ker)
        if diagonalizable:
            index = abs(det(tuple(sum(rows, ()) for rows in zip(*lattices))))
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
