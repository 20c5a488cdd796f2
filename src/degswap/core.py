"""Graph/digraph values, degree sequences, canonical keys and text formats.

Vertices are the integers ``0 .. n-1`` throughout.  Graphs are simple and
labeled: no loops, no parallel edges; digraphs additionally allow a pair of
antiparallel arcs ``(u, v)`` and ``(v, u)``.

Graph and Digraph values share one store: their edge or arc list, its
positions and the degrees, which is all a chain step reads; a scan that
needs per-vertex neighbors builds them (:meth:`Digraph.adjacency`).

The step loop of :mod:`degswap.chain` writes its moves straight into a
value's list and position map; a value that is no longer being stepped can
be shared freely across threads.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidInputError

UNDIRECTED = "undirected"
DIRECTED = "directed"


# ---------------------------------------------------------------------------
# degree sequences


class _Sequence:
    """Prescribed degrees as two stored int tuples, ``outs`` and ``ins``.

    A graph's sequence holds its one degree tuple under both names, as
    :class:`_Pairs` shares one degree list.  Equal to a value of the same
    class with equal tuples.  A subclass sets ``_symmetric`` and names its
    constructor's view of the tuples, ``_view``, which ``repr`` and
    iteration show.
    """

    __slots__ = ("outs", "ins")

    @classmethod
    def _of(cls, outs: tuple[int, ...], ins: tuple[int, ...]):
        """The value over two checked tuples, as they are: O(1)."""
        s = object.__new__(cls)
        object.__setattr__(s, "outs", outs)
        object.__setattr__(s, "ins", ins)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return len(self.outs)

    @property
    def m(self) -> int:
        """Edge or arc count of any realization: the out-degree total, halved on a graph."""
        return sum(self.outs) // (2 if self._symmetric else 1)

    def complement(self):
        """Degrees of the complement of a realization: n - 1 - d for every entry."""
        top = self.n - 1
        outs = tuple([top - d for d in self.outs])
        return self._of(outs, outs if self._symmetric else tuple([top - d for d in self.ins]))

    def __iter__(self) -> Iterator:
        return iter(getattr(self, self._view))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.outs == other.outs and self.ins == other.ins

    def __hash__(self) -> int:
        return hash((self.outs, self.ins))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self._view}={getattr(self, self._view)!r})"

    def __reduce__(self):
        # unpickling cannot assign the slots; pickle keeps a graph's one tuple shared
        return self._of, (self.outs, self.ins)


class DegreeSequence(_Sequence):
    """Prescribed degrees for an undirected graph, one entry per vertex.

    Entries of 0 are permitted; isolated vertices are harmless.
    """

    __slots__ = ()
    _symmetric, _view = True, "degrees"

    def __init__(self, degrees: Iterable[int]):
        degs = tuple(int(d) for d in degrees)
        if len(degs) < 1:
            raise InvalidInputError("degree sequence needs at least one vertex")
        if any(d < 0 for d in degs):
            raise InvalidInputError(f"negative degree in {degs}")
        object.__setattr__(self, "outs", degs)
        object.__setattr__(self, "ins", degs)

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degree tuple stored as both ``outs`` and ``ins``."""
        return self.outs


class DiDegreeSequence(_Sequence):
    """Prescribed (out, in) degree pairs for a digraph, one pair per vertex."""

    __slots__ = ()
    _symmetric, _view = False, "pairs"

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        ps = tuple((int(a), int(b)) for a, b in pairs)
        if len(ps) < 1:
            raise InvalidInputError("degree sequence needs at least one vertex")
        if any(a < 0 or b < 0 for a, b in ps):
            raise InvalidInputError(f"negative degree in {ps}")
        object.__setattr__(self, "outs", tuple(a for a, _ in ps))
        object.__setattr__(self, "ins", tuple(b for _, b in ps))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (out, in) pair of every vertex, built on each access: O(n)."""
        return tuple(zip(self.outs, self.ins))


# ---------------------------------------------------------------------------
# graphs


class _Pairs:
    """Storage shared by :class:`Graph` and :class:`Digraph`.

    The edges or arcs ("pairs") as a dense list ``_pairs`` (for uniform
    random indexing), their list positions ``_pos`` (for membership) and the
    per-vertex ``out_deg`` and ``in_deg``.  A graph stores each edge as
    (u, v) with u < v and keeps one degree list under both names, so an add
    or remove counts both ends alike.  A swap rewrites two list slots (a
    reorientation three), each moving the affected ``_pos`` entries; an add
    or remove (swap-with-last) touches one or two of each.

    A subclass sets ``kind``, its nouns, ``_symmetric`` (pairs are
    unordered), its ``_sequence`` class and the vertex-pair grid of its
    canonical keys: ``grid(n)``, every pair in key-bit order, and
    ``index(n, u, v)``, a pair's position in it.
    """

    __slots__ = ("n", "_pairs", "_pos", "out_deg", "in_deg")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise InvalidInputError(f"{self._noun} needs at least one vertex")
        symmetric = self._symmetric
        self.n = n
        self._pairs: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}
        self.out_deg = out_deg = [0] * n
        self.in_deg = in_deg = out_deg if symmetric else [0] * n
        pos, append = self._pos, self._pairs.append
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"vertex out of range in ({u}, {v})")
            if u == v:
                raise InvalidInputError(f"loop ({u}, {v}) not allowed")
            if symmetric and u > v:
                u, v = v, u
            p = (u, v)
            if p in pos:
                raise InvalidInputError(f"duplicate {self._pair_noun} {p}")
            pos[p] = len(pos)
            append(p)
            out_deg[u] += 1
            in_deg[v] += 1

    @property
    def m(self) -> int:
        return len(self._pairs)

    def pairs(self) -> list[tuple[int, int]]:
        """Edges or arcs in list order; do not mutate."""
        return self._pairs

    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs)

    def degree_sequence(self) -> DegreeSequence | DiDegreeSequence:
        """The stored degrees as a sequence value: O(n), no per-vertex tuples."""
        outs = tuple(self.out_deg)
        return self._sequence._of(outs, outs if self._symmetric else tuple(self.in_deg))

    def has(self, u: int, v: int) -> bool:
        if self._symmetric and u > v:
            u, v = v, u
        return (u, v) in self._pos

    def copy(self):
        g = self.__class__.__new__(self.__class__)
        g.n = self.n
        g._pairs = list(self._pairs)
        g._pos = dict(self._pos)
        g.out_deg = list(self.out_deg)
        g.in_deg = g.out_deg if self._symmetric else list(self.in_deg)
        return g

    def complement(self):
        """The value of exactly the absent pairs, in grid order: O(n^2)."""
        pos = self._pos
        g = self.__class__(self.n)
        for u, v in self.grid(self.n):
            if (u, v) not in pos:
                g._add(u, v)
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, self.__class__)
            and self.n == other.n
            and self._pos.keys() == other._pos.keys()
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(n={self.n}, {self._pair_noun}s={sorted(self._pairs)})"

    def _check_index(self) -> None:
        """Raise AssertionError unless ``_pos`` and the degrees match ``_pairs``."""
        pairs, pos, noun = self._pairs, self._pos, self._pair_noun
        if len(pos) != len(pairs) or any(pos.get(p) != i for i, p in enumerate(pairs)):
            raise AssertionError(f"{noun} positions do not invert the {noun} list")
        counted = self.__class__(self.n, pairs)
        if (counted.out_deg, counted.in_deg) != (self.out_deg, self.in_deg):
            raise AssertionError(f"stored degrees differ from the {noun} list")

    @classmethod
    def grid_size(cls, n: int) -> int:
        return n * (n - 1) // (2 if cls._symmetric else 1)

    # mutation: reserved for constructors, the realizers and undo hooks; a
    # graph's pair comes with u < v

    def _add(self, u: int, v: int) -> None:
        p = (u, v)
        self._pos[p] = len(self._pairs)
        self._pairs.append(p)
        self.out_deg[u] += 1
        self.in_deg[v] += 1

    def _remove(self, u: int, v: int) -> None:
        p = (u, v)
        i = self._pos.pop(p)
        last = self._pairs.pop()
        if last != p:
            self._pairs[i] = last
            self._pos[last] = i
        self.out_deg[u] -= 1
        self.in_deg[v] -= 1


class Graph(_Pairs):
    """Simple undirected labeled graph with O(1) edge queries.

    Its grid is every pair u < v in lexicographic order.
    """

    __slots__ = ()

    kind = UNDIRECTED
    _noun, _pair_noun, _symmetric, _sequence = "graph", "edge", True, DegreeSequence

    @property
    def degree(self) -> list[int]:
        """Per-vertex degrees: the one list behind ``out_deg`` and ``in_deg``."""
        return self.out_deg

    @staticmethod
    def grid(n: int) -> Iterator[tuple[int, int]]:
        return ((u, v) for u in range(n) for v in range(u + 1, n))

    @staticmethod
    def index(n: int, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return u * n - (u * (u + 1)) // 2 + (v - u - 1)


class Digraph(_Pairs):
    """Simple directed labeled graph; antiparallel arc pairs are allowed.

    :meth:`adjacency` builds per-vertex lists on demand.  Its grid is every
    ordered pair u != v in lexicographic order.
    """

    __slots__ = ()

    kind = DIRECTED
    _noun, _pair_noun, _symmetric, _sequence = "digraph", "arc", False, DiDegreeSequence

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """Fresh per-vertex ``(heads, tails)`` lists in arc-list order: O(n + m).

        ``heads[u]`` holds every v with an arc (u, v), ``tails[v]`` every u.
        """
        heads: list[list[int]] = [[] for _ in range(self.n)]
        tails: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self._pairs:
            heads[u].append(v)
            tails[v].append(u)
        return heads, tails

    @staticmethod
    def grid(n: int) -> Iterator[tuple[int, int]]:
        return ((u, v) for u in range(n) for v in range(n) if u != v)

    @staticmethod
    def index(n: int, u: int, v: int) -> int:
        return u * (n - 1) + v - (1 if v > u else 0)


def graph_class(kind: str) -> type[Graph] | type[Digraph]:
    """The class of ``kind``'s graph values, and so of its vertex-pair grid."""
    return Graph if kind == UNDIRECTED else Digraph


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
        size = graph_class(self.kind).grid_size(self.n)
        return CanonicalKey(self.kind, self.n, self.bits ^ ((1 << size) - 1))


def canonical_key(g: Graph | Digraph) -> CanonicalKey:
    """Key of g's edge/arc set: one bit per grid position, O(n^2/8 + m).

    The bits are set in a byte buffer and turned into an integer once, so no
    step copies the n^2-bit integer.
    """
    if not isinstance(g, _Pairs):
        raise InvalidInputError(f"not a graph value: {g!r}")
    n, index = g.n, g.index
    buf = bytearray((g.grid_size(n) + 7) // 8)
    for u, v in g._pairs:
        i = index(n, u, v)
        buf[i >> 3] |= 1 << (i & 7)
    return CanonicalKey(g.kind, n, int.from_bytes(buf, "little"))


def graph_from_key(key: CanonicalKey) -> Graph | Digraph:
    """Inverse of :func:`canonical_key`."""
    cls, n, bits = graph_class(key.kind), key.n, key.bits
    return cls(n, [p for i, p in enumerate(cls.grid(n)) if bits >> i & 1])


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
    lines = [f"{g.kind} n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g._pairs))
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
            if header[1] > sys.maxsize:
                raise InvalidInputError(f"vertex count too large in {line!r}")
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
