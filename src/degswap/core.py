"""Graph/digraph values, degree sequences, canonical keys and text formats.

Vertices are the integers ``0 .. n-1`` throughout.  Graphs are simple and
labeled: no loops, no parallel edges; digraphs additionally allow a pair of
antiparallel arcs ``(u, v)`` and ``(v, u)``.

Graph and Digraph values store only their edge or arc list, its positions
and the degrees, which is all a chain step reads; a scan that needs
per-vertex neighbors builds them (:meth:`Digraph.adjacency`).

The step loops of :mod:`degswap.chain` write their moves straight into a
value's list and position map; a value that is no longer being stepped can
be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidInputError

UNDIRECTED = "undirected"
DIRECTED = "directed"


# ---------------------------------------------------------------------------
# degree sequences


class _Sequence:
    """An immutable value with one tuple field, named by its one slot.

    Equal to a value of the same class with an equal field, and hashed as
    the one-field tuple.  Not a NamedTuple: a sequence iterates its entries.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _field(self) -> tuple:
        return getattr(self, self.__slots__[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self) -> int:
        return hash((self._field(),))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.__slots__[0]}={self._field()!r})"

    def __reduce__(self):
        # unpickling cannot assign the slot, so it constructs the value again
        return self.__class__, (self._field(),)


class DegreeSequence(_Sequence):
    """Prescribed degrees for an undirected graph, one entry per vertex.

    Entries of 0 are permitted; isolated vertices are harmless.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[int]):
        degs = tuple(int(d) for d in degrees)
        if len(degs) < 1:
            raise InvalidInputError("degree sequence needs at least one vertex")
        if any(d < 0 for d in degs):
            raise InvalidInputError(f"negative degree in {degs}")
        object.__setattr__(self, "degrees", degs)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def m(self) -> int:
        """Edge count of any realization (total degree halved)."""
        return self.total // 2

    def complement(self) -> "DegreeSequence":
        """Degrees of the complement of a realization: n - 1 - d each."""
        n = self.n
        return DegreeSequence(n - 1 - d for d in self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)


class DiDegreeSequence(_Sequence):
    """Prescribed (out, in) degree pairs for a digraph, one pair per vertex."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        ps = tuple((int(a), int(b)) for a, b in pairs)
        if len(ps) < 1:
            raise InvalidInputError("degree sequence needs at least one vertex")
        if any(a < 0 or b < 0 for a, b in ps):
            raise InvalidInputError(f"negative degree in {ps}")
        object.__setattr__(self, "pairs", ps)

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def outs(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def ins(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.pairs)

    @property
    def m(self) -> int:
        """Arc count of any realization (the common out/in total)."""
        return sum(self.outs)

    def complement(self) -> "DiDegreeSequence":
        """Degrees of the complement of a realization: (n - 1 - a, n - 1 - b) each."""
        n = self.n
        return DiDegreeSequence((n - 1 - a, n - 1 - b) for a, b in self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


# ---------------------------------------------------------------------------
# graphs


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_pair(n: int, u: int, v: int) -> None:
    """Reject a pair that leaves ``0 .. n-1`` or is a loop."""
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidInputError(f"vertex out of range in ({u}, {v})")
    if u == v:
        raise InvalidInputError(f"loop ({u}, {v}) not allowed")


class Graph:
    """Simple undirected labeled graph with O(1) edge queries.

    Storage: the edges as a dense list ``_edges`` (for uniform random
    indexing), their list positions ``_pos`` (for membership) and the
    per-vertex ``degree``.  A swap rewrites two list slots and moves two
    ``_pos`` entries; an add or remove (swap-with-last) touches one or two
    of each.  No per-vertex adjacency is stored: :meth:`neighbors` scans
    the edge list.
    """

    __slots__ = ("n", "degree", "_edges", "_pos")

    kind = UNDIRECTED

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        self.n = n
        self.degree = [0] * n
        self._edges: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}
        for u, v in edges:
            _check_pair(n, u, v)
            e = _norm_edge(u, v)
            if e in self._pos:
                raise InvalidInputError(f"duplicate edge {e}")
            self._add_edge(*e)

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Edges in list order; do not mutate."""
        return self._edges

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._pos

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbors of v, from a scan of the edge list: O(m)."""
        return sorted(b if a == v else a for a, b in self._edges if v in (a, b))

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degree)

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g.degree = list(self.degree)
        g._edges = list(self._edges)
        g._pos = dict(self._pos)
        return g

    def complement(self) -> "Graph":
        """The graph of exactly the absent pairs, in lexicographic order: O(n^2)."""
        n, pos = self.n, self._pos
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in pos:
                    g._add_edge(u, v)
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._pos.keys() == other._pos.keys()
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self._edges)})"

    def _check_index(self) -> None:
        """Raise AssertionError unless ``_pos`` and ``degree`` match ``_edges``."""
        edges = self._edges
        if len(self._pos) != len(edges) or any(
            self._pos.get(e) != i for i, e in enumerate(edges)
        ):
            raise AssertionError("edge positions do not invert the edge list")
        degree = [0] * self.n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if degree != self.degree:
            raise AssertionError("stored degrees differ from the edge list")

    # mutation: reserved for constructors, the realizers and undo hooks

    def _add_edge(self, u: int, v: int) -> None:
        e = (u, v)
        self._pos[e] = len(self._edges)
        self._edges.append(e)
        self.degree[u] += 1
        self.degree[v] += 1

    def _remove_edge(self, u: int, v: int) -> None:
        e = (u, v)
        i = self._pos.pop(e)
        last = self._edges.pop()
        if last != e:
            self._edges[i] = last
            self._pos[last] = i
        self.degree[u] -= 1
        self.degree[v] -= 1


class Digraph:
    """Simple directed labeled graph; antiparallel arc pairs are allowed.

    Storage, as in :class:`Graph`: the arcs as a dense list ``_arcs`` (for
    uniform random indexing), their list positions ``_pos`` (for
    membership) and the per-vertex ``out_deg`` and ``in_deg``.  A swap
    writes two ``_arcs`` slots and a reorientation three, each moving the
    affected ``_pos`` entries; an add or remove (swap-with-last) touches
    one or two of each.  :meth:`adjacency` builds per-vertex lists on demand.
    """

    __slots__ = ("n", "out_deg", "in_deg", "_arcs", "_pos")

    kind = DIRECTED

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise InvalidInputError("digraph needs at least one vertex")
        self.n = n
        self.out_deg = [0] * n
        self.in_deg = [0] * n
        self._arcs: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}
        for u, v in arcs:
            _check_pair(n, u, v)
            if (u, v) in self._pos:
                raise InvalidInputError(f"duplicate arc ({u}, {v})")
            self._add_arc(u, v)

    @property
    def m(self) -> int:
        return len(self._arcs)

    def arcs(self) -> list[tuple[int, int]]:
        """Arcs in list order; do not mutate."""
        return self._arcs

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._pos

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """Fresh per-vertex ``(heads, tails)`` lists in arc-list order: O(n + m).

        ``heads[u]`` holds every v with an arc (u, v), ``tails[v]`` every u.
        """
        heads: list[list[int]] = [[] for _ in range(self.n)]
        tails: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self._arcs:
            heads[u].append(v)
            tails[v].append(u)
        return heads, tails

    def degree_sequence(self) -> DiDegreeSequence:
        return DiDegreeSequence(zip(self.out_deg, self.in_deg))

    def copy(self) -> "Digraph":
        g = Digraph.__new__(Digraph)
        g.n = self.n
        g.out_deg = list(self.out_deg)
        g.in_deg = list(self.in_deg)
        g._arcs = list(self._arcs)
        g._pos = dict(self._pos)
        return g

    def complement(self) -> "Digraph":
        """The digraph of exactly the absent arcs, in lexicographic order: O(n^2)."""
        n, pos = self.n, self._pos
        g = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and (u, v) not in pos:
                    g._add_arc(u, v)
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._pos.keys() == other._pos.keys()
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sorted(self._arcs)})"

    def _check_index(self) -> None:
        """Raise AssertionError unless ``_pos`` and the degrees match ``_arcs``."""
        arcs, pos = self._arcs, self._pos
        if len(pos) != len(arcs) or any(pos.get(a) != i for i, a in enumerate(arcs)):
            raise AssertionError("arc positions do not invert the arc list")
        degrees = [list(map(len, lists)) for lists in self.adjacency()]
        if degrees != [self.out_deg, self.in_deg]:
            raise AssertionError("stored degrees differ from the arc list")

    # mutation: reserved for constructors, the realizers and undo hooks

    def _add_arc(self, u: int, v: int) -> None:
        a = (u, v)
        self._pos[a] = len(self._arcs)
        self._arcs.append(a)
        self.out_deg[u] += 1
        self.in_deg[v] += 1

    def _remove_arc(self, u: int, v: int) -> None:
        a = (u, v)
        i = self._pos.pop(a)
        last = self._arcs.pop()
        if last != a:
            self._arcs[i] = last
            self._pos[last] = i
        self.out_deg[u] -= 1
        self.in_deg[v] -= 1


# ---------------------------------------------------------------------------
# canonical keys


class CanonicalKey(NamedTuple):
    """Bitstring over the fixed vertex-pair grid; equal keys == equal edge sets.

    Keys order as their ``(kind, n, bits)`` tuples.
    """

    kind: str
    n: int
    bits: int

    def __xor__(self, other: "CanonicalKey") -> int:
        if self.kind != other.kind or self.n != other.n:
            raise InvalidInputError("keys from different grids")
        return self.bits ^ other.bits

    def diff_size(self, other: "CanonicalKey") -> int:
        """|G delta G'| straight off the key bits."""
        return (self ^ other).bit_count()

    def hex(self) -> str:
        return format(self.bits, "x")

    def complement(self) -> "CanonicalKey":
        """Key of the complement graph: every grid bit flipped."""
        size = self.n * (self.n - 1) // (2 if self.kind == UNDIRECTED else 1)
        return CanonicalKey(self.kind, self.n, self.bits ^ ((1 << size) - 1))


def pair_index(n: int, u: int, v: int) -> int:
    """Position of undirected pair (u, v) in the lexicographic i<j grid."""
    if u > v:
        u, v = v, u
    return u * n - (u * (u + 1)) // 2 + (v - u - 1)


def arc_index(n: int, u: int, v: int) -> int:
    """Position of ordered pair (u, v), u != v, in the lexicographic grid."""
    return u * (n - 1) + v - (1 if v > u else 0)


def canonical_key(g: Graph | Digraph) -> CanonicalKey:
    """Key of g's edge/arc set: one bit per grid position, O(n^2/8 + m).

    The bits are set in a byte buffer and turned into an integer once, so no
    step copies the n^2-bit integer.
    """
    if isinstance(g, Graph):
        kind, n, index, pairs = UNDIRECTED, g.n, pair_index, g._edges
        size = n * (n - 1) // 2
    elif isinstance(g, Digraph):
        kind, n, index, pairs = DIRECTED, g.n, arc_index, g._arcs
        size = n * (n - 1)
    else:
        raise InvalidInputError(f"not a graph value: {g!r}")
    buf = bytearray((size + 7) // 8)
    for u, v in pairs:
        i = index(n, u, v)
        buf[i >> 3] |= 1 << (i & 7)
    return CanonicalKey(kind, n, int.from_bytes(buf, "little"))


def graph_from_key(key: CanonicalKey) -> Graph | Digraph:
    """Inverse of :func:`canonical_key`."""
    n = key.n
    bits = key.bits
    if key.kind == UNDIRECTED:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if bits >> pair_index(n, u, v) & 1
        ]
        return Graph(n, edges)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and bits >> arc_index(n, u, v) & 1
    ]
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# alternating cycles


class AlternatingCycle(NamedTuple):
    """Closed alternating walk: left arcs and right arcs interleave.

    ``vertices`` lists the closed walk order (first vertex implicitly
    repeated); ``left`` arcs belong to the first graph's exclusive side and
    ``right`` arcs to the second's.  Swapping along the cycle exchanges the
    two sides and preserves all degrees.
    """

    kind: str
    vertices: tuple[int, ...]
    left: tuple[tuple[int, int], ...]
    right: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.left) + len(self.right)


# ---------------------------------------------------------------------------
# text formats


def format_degree_sequence(s: DegreeSequence | DiDegreeSequence) -> str:
    if isinstance(s, DegreeSequence):
        return " ".join(str(d) for d in s.degrees)
    return " ".join(f"{a}/{b}" for a, b in s.pairs)


def parse_degree_sequence(text: str) -> DegreeSequence | DiDegreeSequence:
    """Parse ``a_1 a_2 ...`` (undirected) or ``out_1/in_1 out_2/in_2 ...``."""
    tokens = text.split()
    if not tokens:
        raise InvalidInputError("empty degree sequence")
    try:
        if any("/" in t for t in tokens):
            pairs = []
            for t in tokens:
                a, b = t.split("/")
                pairs.append((int(a), int(b)))
            return DiDegreeSequence(pairs)
        return DegreeSequence(int(t) for t in tokens)
    except ValueError as exc:
        raise InvalidInputError(f"bad degree sequence {text!r}: {exc}") from exc


def format_edgelist(g: Graph | Digraph) -> str:
    pairs = g.edges() if isinstance(g, Graph) else g.arcs()
    lines = [f"{g.kind} n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(pairs))
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph | Digraph:
    """Parse the edge-list format: a header line then one ``u v`` per line.

    Header: ``undirected n=<n>`` or ``directed n=<n>``.  ``#`` starts a
    comment; blank lines are ignored.
    """
    header = None
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if (
                len(parts) != 2
                or parts[0] not in (UNDIRECTED, DIRECTED)
                or not parts[1].startswith("n=")
            ):
                raise InvalidInputError(f"bad edge-list header {line!r}")
            try:
                header = (parts[0], int(parts[1][2:]))
            except ValueError as exc:
                raise InvalidInputError(f"bad vertex count in {line!r}") from exc
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"bad edge line {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InvalidInputError(f"bad edge line {line!r}") from exc
    if header is None:
        raise InvalidInputError("edge list has no header line")
    kind, n = header
    return Graph(n, pairs) if kind == UNDIRECTED else Digraph(n, pairs)
