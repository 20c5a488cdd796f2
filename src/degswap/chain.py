"""Switching Markov chains over realizations of a fixed degree sequence.

Three walks are provided, named by their move sets:

* ``undirected`` -- 2-swaps on non-adjacent edge pairs, two re-pairings each;
* ``full`` (directed) -- 2-swaps on vertex-disjoint arc pairs plus 3-cycle
  reorientations selected through directed 2-paths;
* ``plain`` (directed) -- 2-swaps only.

Every step selects one element of a constant-size universe uniformly, so the
walk is the canonical 1/d-per-arc random walk on the corresponding state
graph (see :mod:`degswap.statespace`): each state's walk degree counts one
slot per selectable element plus the padding loop its state-graph rule adds.
Loops are real steps; the graph just does not change.

Both directed walks draw from one pair universe: the arc pairs with
distinct tails and distinct heads.  A state with ``anti`` antiparallel
pairs holds ``n_pairs + anti`` vertex-disjoint pairs, ``n_2paths - 2 * anti``
head-to-tail pairs (a proper 2-path u -> v -> w, u != w) and ``anti``
antiparallel pairs, so every state holds exactly ``n_pairs + n_2paths``.
``plain`` 2-swaps a vertex-disjoint pair and loops on the rest; ``full``
also reorients a proper 2-path when it closes an induced directed 3-cycle,
and an antiparallel pair admits neither move.

A universe pair is drawn by rejection: two distinct edge/arc list slots
uniformly, redrawn until they form a universe pair.  The loop keeps no
pair state, and a universe of P pairs among m slots costs C(m, 2) / P
expected tries per draw: a few on most input, about 13 around the hub of a
star with a matching beside it, and m / 2 on a star plus one edge.  The loop
draws a pair only when its universe holds one, so the redraw ends.

One step loop, ``_run``, serves all three modes: an undirected 2-swap is
a directed arc swap with the second edge read in the orientation the
slot's parity picks.  Sampling, traces, invariant checks and the one-step
fidelity check of :mod:`degswap.statespace` all run through it.  The loop
takes the ``random.Random`` itself and draws every integer below a fixed
bound from ``rng.getrandbits`` by rejection, one call per draw with the
bound's bit length hoisted out of the loop, so walks and the final
generator state depend on the draws alone.

A step's slot comes from a window (:func:`step_window`): one draw below
d^W decides up to W steps, the run of loop slots and the first element
slot after it, with exactly the probabilities of W independent uniform
slots; the window is exact because slot draws do not depend on the graph.
W grows with the expected run of loops between elements and is 1 on every
direct walk, where the window is the one-slot draw and walks are as
before.  Only a padded complement walk (below) with at least twice as
many loop slots as elements gets W > 1, and so prints a different walk
for a given seed; it pays one draw per element step or per W loop steps
instead of one per step.  A universe without elements draws nothing.

Dense input walks the complement.  A 2-swap of G is a 2-swap of its
complement H, and a reorientation of an induced directed 3-cycle of G is
the reverse reorientation in H, so the state graph of the complement
sequence, mapped through H -> complement(H), has exactly the move arcs of
the state graph of the sequence, each once.  When more pairs are present
than absent, :func:`run_chain` computes the complement sequence's walk
degree from the degrees alone (O(n)); if it is below g0's walk degree d,
the run steps the complement under its own universe but draws each slot
from d, every slot past the complement's elements being a loop, and
complements the result back.  Each move arc keeps probability exactly 1/d,
so the transition matrix is the direct walk's at a fraction of the step
cost: a near-complete digraph, whose direct steps are almost all gate
rejections, becomes a sparse one whose steps are almost all padding loops.
Sparse input pays one integer comparison, and ties stay on the direct
walk.  A switched run draws differently from a direct one, so its output
for a given seed differs; a run that does not switch draws as before.  A
:class:`ChainPlan` holds a run's set-up: both universes, the switch, the
complement start graph and the window.  An ensemble builds it once for
all of its runs.

The loop writes each move into the graph's list and position map itself,
reusing the tuples it drew and gated: each new edge/arc takes over the
list slot, and the position int, of the one it replaces, and enters the
map in replacement order, so a run stores no index int its start graph
does not hold.  The reference mutators of ``tests/conftest.py`` write a
move the same way, and the tests compare the loop with reference loops
that call them.
The loop also takes a private ``on_move(t, removed, added)`` hook, called
after every move and never after a loop, with the step index and the
edge/arc tuples taken out and put in.  The hook may restore the graph
through the graph's ``_add`` and ``_remove`` methods: the loop keeps
no graph-derived state, so the next step sees the graph as the hook left
it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional

from .core import (
    CanonicalKey,
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
)
from .errors import InvalidInputError
from .names import DEFAULT_SEED, MODE_FULL, MODE_PLAIN, MODE_UNDIRECTED, MODES

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, index: int) -> int:
    """Seed for the ``index``-th independent chain of a run (splitmix64 mix)."""
    x = (base + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# the selection universe


def _choose2(x: int) -> int:
    return x * (x - 1) // 2


class MoveUniverse(NamedTuple):
    """Constant-size selection universe of one chain step.

    The counts depend on the degree sequence only; that constancy makes the
    walk degree uniform across states.  ``n_2paths`` counts the in/out stub
    2-paths (u, v, w), degenerate ones (u == w) included.  A directed state
    with ``anti`` antiparallel pairs has ``n_pairs + anti`` vertex-disjoint
    arc pairs, so the directed ``n_pairs`` may be negative, while its pairs
    with distinct tails and distinct heads, the directed walks' universe,
    number exactly ``n_pairs + n_2paths`` (see the module docstring).
    """

    kind: str
    m: int
    n_pairs: int
    n_2paths: int

    @staticmethod
    def of(s: DegreeSequence | DiDegreeSequence, mode: str) -> "MoveUniverse":
        """The universe of ``mode`` on the realizations of s."""
        m = s.m
        if mode == MODE_UNDIRECTED:
            n_pairs = _choose2(m) - sum(_choose2(d) for d in s.degrees)
            if n_pairs < 0:
                raise InvalidInputError("degree sequence admits no simple graph")
            return MoveUniverse(mode, m, n_pairs, 0)
        if mode not in MODES:
            raise InvalidInputError(f"unknown mode {mode!r}")
        if m != sum(s.ins):
            raise InvalidInputError("out-degree total differs from in-degree total")
        n_2paths = sum(a * b for a, b in s.pairs)
        n_pairs = (
            _choose2(m)
            - sum(_choose2(a) for a in s.outs)
            - sum(_choose2(b) for b in s.ins)
            - n_2paths
        )
        # n_pairs alone may be negative (each antiparallel pair shifts one pair
        # into the stub count twice); the role-disjoint total cannot be
        if n_pairs + n_2paths < 0:
            raise InvalidInputError("degree sequence admits no simple digraph")
        return MoveUniverse(mode, m, n_pairs, n_2paths)

    @property
    def elements(self) -> int:
        """Selectable elements: slots below this draw a pair, the rest loop."""
        if self.kind == MODE_UNDIRECTED:
            return 2 * self.n_pairs
        return self.n_pairs + self.n_2paths

    @property
    def walk_degree(self) -> int:
        """Out-degree of every state of the matching state graph."""
        if self.kind == MODE_UNDIRECTED:
            return 2 * self.n_pairs + 1
        if self.kind == MODE_FULL:
            return self.n_pairs + self.n_2paths + (1 if self.n_2paths == 0 else 0)
        return self.n_pairs + self.n_2paths + 1

    def counts_on(self, g: Graph | Digraph) -> tuple[int, int]:
        """Direct (universe pairs, stub 2-paths) counts on g.

        Constancy check: ``pairs == n_pairs + n_2paths`` and
        ``stubs == n_2paths`` on every realization of the sequence.
        """
        if isinstance(g, Graph):
            return sum(1 for _ in iter_nonadjacent_pairs(g)), 0
        pairs = sum(1 for _ in iter_role_disjoint_arc_pairs(g))
        return pairs, sum(x * y for x, y in zip(g.out_deg, g.in_deg))


def iter_nonadjacent_pairs(g: Graph | Digraph):
    """All unordered pairs of edges/arcs with four distinct endpoints, list order."""
    pairs = g.pairs()
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1 :]:
            if a != c and a != d and b != c and b != d:
                yield (a, b), (c, d)


def iter_role_disjoint_arc_pairs(g: Digraph):
    """Arc pairs with distinct tails and distinct heads, list order.

    The directed walks' pair universe: head-to-tail and antiparallel pairs
    are members, and the count is the same in every realization.
    """
    arcs = g.pairs()
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if a != c and b != d:
                yield (a, b), (c, d)


# ---------------------------------------------------------------------------
# the slot window
#
# A step draws one of d slots uniformly; the first L (the universe's
# elements) draw a pair and the other q = d - L are loops.  A window draws
# the slots of up to W steps at once: one integer r below d^W, read as W
# base-d digits, most significant first, of which only the first element
# slot and the run of loop slots before it are used.  Outcome k < W (k
# loops, then an element step) holds q^k * L * d^(W-1-k) of the d^W values
# and outcome W (W loops) holds q^W, exactly the counts of W independent
# uniform slots; cum[k] is the cumulative count through outcome k, and
# within outcome k, (r - cum[k-1]) // (q^k * d^(W-1-k)) is the element's
# slot, uniform in [0, L).  The digits past the element are dropped and the
# next step draws a fresh window: slot draws do not depend on the graph, so
# the walk is the one-slot-per-step walk with the same transition matrix.
#
# W = 1 leaves the table [L] and the draw is the one-slot draw itself, so a
# direct walk (q <= 1) draws exactly as a per-step slot draw does.  W grows
# with the expected run of loops q / L, up to _MAX_WINDOW, so only a walk
# padded well past its elements (a dense input's complement walk) gets
# W > 1.  There one draw replaces about min(W, d / L) slot draws.  Wider
# windows than 64 were no faster on a near-complete digraph (d / L = 143,
# caps 32 to 256 within noise), and each draw costs W * log2(d) bits.

_MAX_WINDOW = 64


class StepWindow(NamedTuple):
    """The exact windowed slot draw of a walk with d slots, L of them elements.

    ``bound`` is d^W; a draw r below ``fast`` is the element slot r itself
    (``fast`` is L when W == 1, else 0), and ``cum`` and ``units`` decode
    the rest (see :meth:`decode`).
    """

    width: int
    bound: int
    fast: int
    cum: tuple[int, ...]
    units: tuple[int, ...]

    def decode(self, r: int) -> tuple[int, int]:
        """(k, slot): k loop steps, then an element step with that slot.

        k == width means the window is all loops, and slot is -1.
        """
        k = bisect_right(self.cum, r)
        if k == self.width:
            return k, -1
        return k, (r - (self.cum[k - 1] if k else 0)) // self.units[k]


def step_window(d: int, elements: int) -> StepWindow:
    """The window of a walk with d slots, the first ``elements`` of them elements.

    W is the expected run of loops between elements, q // L, clamped to
    [1, _MAX_WINDOW]; W = 1 whenever q < 2L, so every direct walk (q <= 1)
    gets the one-slot draw.  A walk without elements never draws.
    """
    q = d - elements
    width = max(1, min(_MAX_WINDOW, q // elements)) if elements else 1
    units = tuple(q**k * d ** (width - 1 - k) for k in range(width))
    cum = tuple(accumulate(elements * u for u in units))
    return StepWindow(width, d**width, elements if width == 1 else 0, cum, units)


# ---------------------------------------------------------------------------
# the step loop
#
# _run(g, universe, rng, tau, on_move=None, walk_degree=None, window=None)
# runs tau steps of universe.kind's walk on g in place and returns the
# number of moves; rng is the random.Random and on_move follows the module
# docstring.  The slot count d is walk_degree, by default the universe's
# own; every slot past the universe's elements is a loop, so a larger d pads
# the walk with loops.  window is step_window(d, elements) unless given; a
# universe without elements returns at once, drawing nothing.
#
# Each fixed-bound integer (the window's d^W and the m(m-1) ordered
# list-slot pairs) is ``r = grb(k)`` with the bound's bit length k computed
# once, then ``while r >= bound: r = grb(k)``.  A bound of 1 draws nothing,
# so d == 1 swaps grb for _zero; the pair bound exceeds 1 whenever a pair
# is drawn.  With W == 1 a draw at or past fast == L is a loop slot and
# continues at once, and one below is the slot; with W > 1 every draw is
# decoded, and the window's loop steps are skipped by moving the step
# iterator (``range_iterator.__setstate__``, O(1)), so a padded walk pays
# one draw per element step or per W loop steps.
#
# Every mode draws a pair (a, b), (c, d) with a != c and b != d, and a
# 2-swap of it writes (a, d), (c, b).  A graph also redraws a pair that
# shares an endpoint, and reads its second edge as (d, c) on an even slot,
# so {a,b},{c,d} re-pairs as {a,c},{b,d} on an even slot and as {a,d},{b,c}
# on an odd one; each new edge is stored with its smaller endpoint first.


def _zero(k: int) -> int:
    return 0


def _run(
    g: Graph | Digraph, universe, rng, tau: int, on_move=None, walk_degree=None, window=None
) -> int:
    directed = universe.kind != MODE_UNDIRECTED
    full = universe.kind == MODE_FULL
    loop_start = universe.elements
    d = universe.walk_degree if walk_degree is None else walk_degree
    if window is None:
        window = step_window(d, loop_start)
    if not loop_start:
        return 0
    pos = g._pos
    pairs = g._pairs
    m = len(pairs)
    m1 = m - 1
    mm = m * m1
    grb = rng.getrandbits
    dw = window.bound
    gw = grb if dw > 1 else _zero
    kw = (dw - 1).bit_length()
    km = (mm - 1).bit_length()
    fast = window.fast
    last = window.cum[-1]
    w1 = window.width - 1
    decode = window.decode
    moves = 0
    steps = iter(range(tau))
    skip_to = steps.__setstate__  # the next step index, in O(1)
    for t in steps:
        slot = gw(kw)
        while slot >= dw:
            slot = gw(kw)
        if slot >= fast:
            if slot >= last:  # padding loops: keep per-slot probability at 1/walk_degree
                if w1:
                    skip_to(t + w1 + 1)
                continue
            k, slot = decode(slot)
            if k:
                t += k
                if t >= tau:
                    break
                skip_to(t + 1)
        while True:
            r = grb(km)
            while r >= mm:
                r = grb(km)
            i = r // m1
            j = r - i * m1
            if j >= i:
                j += 1
            e1 = pairs[i]
            e2 = pairs[j]
            a, b = e1
            c, dd = e2
            if a != c and b != dd and (directed or (a != dd and b != c)):
                break
        if directed:
            if a == dd or b == c:
                # head-to-tail or antiparallel pair: no swap exists.  Under
                # full a proper 2-path u -> v -> w reorients when it closes an
                # induced directed 3-cycle and w carries the strictly largest
                # index.
                if not full or (a == dd and b == c):
                    continue
                if b == c:  # e1 = (u, v) in slot i, e2 = (v, w) in slot j
                    u, v, w = a, b, dd
                else:  # e2 = (u, v), e1 = (v, w): put (u, v)'s slot in i
                    u, v, w = c, a, b
                    e1, e2 = e2, e1
                    i, j = j, i
                if w <= u or w <= v:
                    continue
                e3 = (w, u)
                k = pos.get(e3)
                if k is None:
                    continue
                f1 = (v, u)
                f2 = (w, v)
                f3 = (u, w)
                if f1 in pos or f2 in pos or f3 in pos:
                    continue
                pos[f1] = pos.pop(e1)
                pos[f2] = pos.pop(e2)
                pos[f3] = pos.pop(e3)
                pairs[i] = f1
                pairs[j] = f2
                pairs[k] = f3
                moves += 1
                if on_move is not None:
                    on_move(t, (e1, e2, e3), (f1, f2, f3))
                continue
            f1 = (a, dd)
            f2 = (c, b)
        elif slot & 1:  # e2 read as (c, d)
            f1 = (a, dd) if a < dd else (dd, a)
            f2 = (b, c) if b < c else (c, b)
        else:  # e2 read as (d, c)
            f1 = (a, c) if a < c else (c, a)
            f2 = (b, dd) if b < dd else (dd, b)
        if f1 in pos or f2 in pos:
            continue
        pos[f1] = pos.pop(e1)
        pos[f2] = pos.pop(e2)
        pairs[i] = f1
        pairs[j] = f2
        moves += 1
        if on_move is not None:
            on_move(t, (e1, e2), (f1, f2))
    return moves


def universe_for(g: Graph | Digraph, mode: str) -> MoveUniverse:
    if mode == MODE_UNDIRECTED:
        if not isinstance(g, Graph):
            raise InvalidInputError("undirected mode needs an undirected graph")
    elif not isinstance(g, Digraph):
        raise InvalidInputError(f"{mode} mode needs a digraph")
    return MoveUniverse.of(g.degree_sequence(), mode)


def complement_universe(g: Graph | Digraph, universe: MoveUniverse):
    """The universe of g's complement when its walk degree is smaller, else None.

    Only a dense g, with more present than absent pairs, can qualify; the
    test then costs O(n), from the complement degrees alone.  Ties stay on
    the direct walk.
    """
    if 2 * universe.m <= g.grid_size(g.n):
        return None
    bar = MoveUniverse.of(g.degree_sequence().complement(), universe.kind)
    return bar if bar.walk_degree < universe.walk_degree else None


# ---------------------------------------------------------------------------
# whole runs


class _ChainFields(NamedTuple):
    tau: int
    mode: str
    seed: int = DEFAULT_SEED
    record_trace: bool = False


class ChainConfig(_ChainFields):
    """A run's settings, checked on construction (and so on unpickling)."""

    __slots__ = ()

    def __new__(cls, tau: int, mode: str, seed: int = DEFAULT_SEED, record_trace: bool = False):
        if tau < 0:
            raise InvalidInputError("tau must be >= 0")
        if mode not in MODES:
            raise InvalidInputError(f"unknown mode {mode!r}")
        if seed < 0:
            # random.Random(-s) is random.Random(s): two seeds, one walk
            raise InvalidInputError("seed must be >= 0")
        return super().__new__(cls, tau, mode, seed, record_trace)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result here; tuple.__new__ would skip the checks
        return cls(*iterable)


class ChainResult(NamedTuple):
    graph: Graph | Digraph
    moves: int
    loops: int
    trace: Optional[list[CanonicalKey]]


class ChainPlan(NamedTuple):
    """What every run from one start graph g0 in one mode shares.

    ``universe`` is g0's; ``walked`` is the universe the loop steps under,
    the complement's when ``complement`` is set; ``start`` is the graph each
    run copies, g0 or its complement; ``window`` is the walk's slot window.
    """

    mode: str
    universe: MoveUniverse
    walked: MoveUniverse
    complement: bool
    start: Graph | Digraph
    window: StepWindow


def plan_chain(g0: Graph | Digraph, mode: str) -> ChainPlan:
    """The set-up of every run from g0 in ``mode``, for :func:`run_chain`.

    Costs O(n + m), or O(n^2) for the complement of a dense g0; an
    ensemble builds it once and shares it across its runs.
    """
    universe = universe_for(g0, mode)
    bar = complement_universe(g0, universe)
    walked = universe if bar is None else bar
    start = g0 if bar is None else g0.complement()
    window = step_window(universe.walk_degree, walked.elements)
    return ChainPlan(mode, universe, walked, bar is not None, start, window)


def run_chain(
    g0: Graph | Digraph | ChainPlan, cfg: ChainConfig, check_invariants: bool = False
) -> ChainResult:
    """Run tau steps from g0; deterministic given (g0, seed).

    g0 may be given as its :func:`plan_chain` for ``cfg.mode``, which walks
    exactly as g0 itself does.  The run walks a copy of g0, or g0's
    complement when that walk is shorter (:func:`complement_universe`),
    padded to g0's walk degree and complemented back at the end; the two
    have the same transition matrix.

    With ``check_invariants`` the start state and the state after every move
    check the walked graph's index structures against its edge/arc list,
    then re-derive its degree sequence and universe counts and assert
    constancy (a loop leaves the graph, and so the counts, unchanged).  A
    trace records g0's side: the complement of each key on a complement
    walk.
    """
    plan = g0 if isinstance(g0, ChainPlan) else plan_chain(g0, cfg.mode)
    if plan.mode != cfg.mode:
        raise InvalidInputError(f"a {plan.mode} plan cannot run mode {cfg.mode!r}")
    walked = plan.walked
    g = plan.start.copy()
    if plan.complement:

        def key(h):
            return canonical_key(h).complement()

    else:
        key = canonical_key

    rng = random.Random(cfg.seed)
    trace = [key(g)] if cfg.record_trace else None
    on_move = None
    if trace is not None or check_invariants:
        s0 = g.degree_sequence()

        def on_move(t, removed, added):
            if trace is not None:
                # loop steps repeat the previous key: entry t + 1 is step t
                trace.extend([trace[-1]] * (t - len(trace) + 1))
                trace.append(key(g))
            if check_invariants:
                _check_invariants(g, walked, s0)

        if check_invariants:
            _check_invariants(g, walked, s0)

    d = plan.universe.walk_degree
    moves = _run(g, walked, rng, cfg.tau, on_move, d, plan.window)
    if plan.complement:
        g = g.complement()
    if trace is not None:
        trace.extend([trace[-1]] * (cfg.tau + 1 - len(trace)))
    return ChainResult(g, moves, cfg.tau - moves, trace)


def _check_invariants(g, universe: MoveUniverse, s0) -> None:
    g._check_index()
    if g.degree_sequence() != s0:
        raise AssertionError("degree sequence drifted")
    pairs, stubs = universe.counts_on(g)
    if pairs != universe.n_pairs + universe.n_2paths:
        raise AssertionError("universe pair count drifted")
    if stubs != universe.n_2paths:
        raise AssertionError("2-path count drifted")
