"""Anderson-Putnam complexes of 1-d substitutions.

Edges are collared letters: a core letter plus one letter of context on each
side that border forcing does not already determine.  Vertices are classes of
edge endpoints glued along legal two-letter transitions of the collared
substitution; the substitution induces a map on edges (whose abelianization
is the edge matrix) and a compatible map on vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import abelian
from .errors import FaultlineError, ValidationError
from .substitution import Substitution

_FORCING_CAP = 8   # the highest power at which collar looks for border forcing


def border_forcing(s, cap=_FORCING_CAP):
    """(right_forced_in, left_forced_in): the smallest power m <= cap at
    which all m-fold images share a first letter (forcing the border on the
    right) resp. a last letter (forcing on the left); None if no m works.
    This is the shared-prefix sufficient condition, not full border forcing.

    No image is built: rules are nonempty, so the first letter of s^m(a) is
    the first letter of the rule of the first letter of s^(m-1)(a), and
    likewise for last letters."""
    right = left = None
    firsts = lasts = range(s.size)
    for m in range(1, cap + 1):
        firsts = [s.rules[x][0] for x in firsts]
        lasts = [s.rules[x][-1] for x in lasts]
        if right is None and len(set(firsts)) == 1:
            right = m
        if left is None and len(set(lasts)) == 1:
            left = m
        if right is not None and left is not None:
            break
    return right, left


class CollaredLetter(NamedTuple):
    """Core letter with the collar context actually used on each side."""

    left: Optional[int]
    core: int
    right: Optional[int]

    def display(self, alphabet):
        parts = []
        if self.left is not None:
            parts.append(alphabet[self.left])
        parts.append(alphabet[self.core])
        if self.right is not None:
            parts.append(alphabet[self.right])
        return "|".join(parts)


@dataclass(frozen=True)
class APComplex:
    """Graph complex of a substitution: edges are collared letters, vertices
    glue edge endpoints along legal transitions."""

    base: Substitution
    substitution: Substitution          # induced substitution on collared letters
    edges: tuple                        # CollaredLetter per edge, index order
    edge_names: tuple
    edge_map: tuple                     # per edge: image as a tuple of edge ids
    edge_matrix: tuple                  # abelianization of edge_map
    vertices: tuple                     # per vertex: frozenset of (edge, 'start'|'end')
    ends: tuple                         # per edge: (start vertex id, end vertex id)
    vertex_map: tuple                   # per vertex: image vertex id
    transitions: tuple                  # legal 2-words of collared letters
    collared_left: bool
    collared_right: bool
    coboundary: tuple                   # vertex-to-edge: (df)(e) = f(end e) - f(start e)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def vertex_of(self, slot):
        """The vertex id of an endpoint slot (edge, 'start'|'end')."""
        e, side = slot
        return self.ends[e][side == "end"]

    def vertex_pullback_matrix(self):
        """0-1 matrix of f -> f o vertex_map acting on 0-cochains."""
        zeros = (0,) * self.n_vertices
        return tuple(zeros[:w] + (1,) + zeros[w + 1:] for w in self.vertex_map)

    def junctions_at(self, vertex):
        """Legal transitions (e, f) whose junction end(e) ~ start(f) sits at
        the given vertex, sorted."""
        return tuple(sorted((e, f) for e, f in self.transitions if self.ends[e][1] == vertex))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


_SIDES = ("end", "start")


def collar(s):
    """Build the collared substitution and its Anderson-Putnam complex.

    Collars carry exactly one letter of context on each side that is not
    border-forced.  Vertex classes come from union-find over the legal
    two-letter transitions of the collared substitution, and the vertex map
    is checked for consistency (every endpoint slot of a class must land in
    one class)."""
    if not isinstance(s, Substitution):
        raise ValidationError("collar expects a Substitution")
    right_forced, left_forced = border_forcing(s)
    need_left = left_forced is None
    need_right = right_forced is None
    width = 1 + need_left + need_right
    core_pos = int(need_left)

    # a collared letter is its context word, in the same order: the sorted
    # legal words of the collar width are the edges
    contexts = sorted(s.legal_words(width))
    if not contexts:
        raise ValidationError(f"substitution has no legal word of the collar width {width}")
    edges = tuple(CollaredLetter(w[0] if need_left else None, w[core_pos],
                                 w[-1] if need_right else None) for w in contexts)
    index = {w: i for i, w in enumerate(contexts)}
    rules = s.rules

    def image_word(w):
        # the image of the core with its collared sides' neighbouring letters
        core = rules[w[core_pos]]
        img = ((rules[w[0]][-1:] if need_left else ()) + core
               + (rules[w[-1]][:1] if need_right else ()))
        out = []
        for pos in range(len(core)):
            cw = img[pos:pos + width]
            if cw not in index:
                cc = CollaredLetter(cw[0] if need_left else None, cw[core_pos],
                                    cw[-1] if need_right else None)
                raise FaultlineError(
                    f"collared image letter {cc} is not legal; collaring is inconsistent"
                )
            out.append(index[cw])
        return tuple(out)

    edge_map = tuple(map(image_word, contexts))
    alphabet = s.alphabet
    names = tuple(c.display(alphabet) for c in edges)
    collared = Substitution(names, dict(zip(names, edge_map)))
    edge_matrix = collared.matrix()
    transitions = tuple(sorted(collared.legal_words(2)))

    # endpoint slots: 2e is the end of edge e and 2e + 1 its start, so that
    # slots sort as the (edge, side) pairs they stand for
    n = len(edges)
    uf = _UnionFind(range(2 * n))
    for e, f in transitions:
        uf.union(2 * e, 2 * f + 1)
    classes = {}
    for slot in range(2 * n):
        classes.setdefault(uf.find(slot), []).append(slot)
    groups = sorted(classes.values())
    vertex_of = [0] * (2 * n)
    for i, group in enumerate(groups):
        for slot in group:
            vertex_of[slot] = i

    vertex_map = []
    for group in groups:
        # the end of e lands on the end of its image's last edge, the start
        # on the start of its first
        targets = {vertex_of[2 * edge_map[slot >> 1][-1]] if slot & 1 == 0
                   else vertex_of[2 * edge_map[slot >> 1][0] + 1] for slot in group}
        if len(targets) != 1:
            raise FaultlineError("vertex map is inconsistent; the complex is invalid")
        vertex_map.append(targets.pop())

    ends = tuple((vertex_of[2 * e + 1], vertex_of[2 * e]) for e in range(n))
    cx = APComplex(
        base=s,
        substitution=collared,
        edges=edges,
        edge_names=names,
        edge_map=edge_map,
        edge_matrix=edge_matrix,
        vertices=tuple(frozenset((slot >> 1, _SIDES[slot & 1]) for slot in group)
                       for group in groups),
        ends=ends,
        vertex_map=tuple(vertex_map),
        transitions=transitions,
        collared_left=need_left,
        collared_right=need_right,
        coboundary=_coboundary(len(groups), ends),
    )
    # pullbacks on cochains must intertwine with the coboundary
    d = cx.coboundary
    assert (abelian.matmul(abelian.transpose(edge_matrix), d)
            == abelian.matmul(d, cx.vertex_pullback_matrix()))
    return collared, cx


def _coboundary(n_vertices, ends):
    """Vertex-to-edge coboundary: (df)(e) = f(end e) - f(start e)."""
    rows = []
    for start, end in ends:
        row = [0] * n_vertices
        row[end] += 1
        row[start] -= 1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class GradedGroupData:
    """H^1 of the complex as the cokernel of the coboundary, with the induced
    substitution action in a chosen basis."""

    h1_rank: int
    h1_basis: tuple      # edge coordinates of the basis, one column per generator
    induced_h1: tuple    # action of the edge-matrix transpose on the cokernel


def graph_h1(cx):
    """Cokernel of the coboundary (free of rank E - V + 1 for a connected
    complex) and the descended action of the edge-matrix transpose.  The
    coboundary of a graph has rank V minus its number of components, so the
    complex is connected exactly when the rank is V - 1."""
    snf = abelian.smith_normal_form(cx.coboundary)
    rank = snf.rank
    if rank != cx.n_vertices - 1:
        raise ValidationError("AP complex is not connected")
    assert all(x == 1 for x in snf.diagonal[:rank]), "graph coboundary must have unit invariant factors"
    e = cx.n_edges
    proj = snf.u[rank:]
    sect = tuple(row[rank:] for row in snf.u_inv)
    induced = abelian.matmul(abelian.matmul(proj, abelian.transpose(cx.edge_matrix)), sect)
    return GradedGroupData(
        h1_rank=e - rank,
        h1_basis=sect,
        induced_h1=induced,
    )
