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
slot's parity picks.  Sampling runs through it, and so does the one-step
fidelity check in ``tests/conftest.py`` (``empirical_transition_check``),
which compares its steps with the state graphs of
:mod:`degswap.statespace`.  The loop takes the
``random.Random`` itself and draws every integer below a fixed bound from
``rng.getrandbits`` by rejection, one call per draw with the bound's bit
length hoisted out of the loop, so walks and the final generator state
depend on the draws alone.

A step's slot comes from a window (:func:`step_window`): one uniform draw
below d^W decides up to W steps, the run of loop slots and whether an
element slot ends it, with exactly the probabilities of W independent
uniform slots; the window is exact because slot draws do not depend on the
graph.  W is 1 while a walk has fewer than twice as many loop slots as
elements, every direct walk included, and the step then draws its one
slot below d as before, so those walks do not change.  A padded complement
walk (below) with at least twice as many loop slots as elements gets
W > 1, about four times the expected run of loops, and so prints a
different walk for a given seed.  Its draw is lazy: 64 random bits decide
the window but about W * 2^-64 of the time, and the element's slot is not
drawn (an undirected step draws its one re-pairing bit), so it pays about
one 64-bit draw per element step instead of one draw per step.  A universe
without elements draws nothing.

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
it; the fidelity check in ``tests/conftest.py`` undoes every move this
way.  :func:`run_chain` installs no hook; the tests observe its runs, key
by key or with invariant checks after each move, by wrapping ``_run``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from operator import mul
from typing import NamedTuple

from .core import DegreeSequence, DiDegreeSequence, Digraph, Graph
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


def _choose2_sum(ds: tuple[int, ...]) -> int:
    """The sum of d choose 2 over ds, summed in C."""
    return (sum(map(mul, ds, ds)) - sum(ds)) // 2


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
            n_pairs = m * (m - 1) // 2 - _choose2_sum(s.outs)
            if n_pairs < 0:
                raise InvalidInputError("degree sequence admits no simple graph")
            return MoveUniverse(mode, m, n_pairs, 0)
        if mode not in MODES:
            raise InvalidInputError(f"unknown mode {mode!r}")
        if m != sum(s.ins):
            raise InvalidInputError("out-degree total differs from in-degree total")
        n_2paths = sum(map(mul, s.outs, s.ins))
        n_pairs = m * (m - 1) // 2 - _choose2_sum(s.outs) - _choose2_sum(s.ins) - n_2paths
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
# elements) draw a pair and the other q = d - L are loops.  A window decides
# up to W steps from one integer U uniform below d^W, read as W base-d
# digits, most significant first: outcome k < W is k loop slots, then an
# element slot, and outcome W is W loop slots.  Outcome k < W holds
# q^k * L * d^(W-1-k) of the d^W values and outcome W holds q^W, exactly
# the counts of W independent uniform slots, so the outcome is
# bisect_right(cum, U) over the thresholds cum[k] = d^W - q^(k+1) * d^(W-1-k),
# the values through outcome k.  The digits past the element slot are
# dropped and the next step draws a fresh window: slot draws do not depend
# on the graph, so the walk is the one-slot-per-step walk with the same
# transition matrix.
#
# U is drawn lazily (Knuth and Yao, 1976).  The draw takes V uniform below
# c * d^W, with c = 2^(P + b) // d^W for b the bit length of d^W - 1, and
# reads U = V // c, uniform below d^W; outcome k < W then holds the V below
# c * cum[k], so the outcome is bisect_right over the scaled thresholds.
# V's top P = _PREFIX_BITS bits come first and decide the outcome by a
# bisect over the scaled thresholds' prefixes, unless they equal one of them
# or the prefix of c * d^W; only then are V's b low bits drawn and V compared
# with the exact scaled thresholds, about W * 2^-64 of the time.  A V at or
# past c * d^W, under 2^-64 of the time, is redrawn.  The table holds W + 1
# prefixes of at most 64 bits, built with one multiplication and one
# division per threshold; a tie recomputes the thresholds it needs in
# closed form.
#
# The element's slot is not drawn: a directed walk never reads it, and an
# undirected step reads only its parity, a fair bit independent of the rest
# because L = 2 * n_pairs is even, so a windowed undirected step draws that
# bit alone.
#
# W = 1 whenever q < 2L, every direct walk (q <= 1) included: such a step
# draws its slot below d itself, and those walks are unchanged.  Past that,
# W is 4q // L up to _MAX_WINDOW, so all but about e^-4 of the windows end
# in an element step, and a padded walk pays about one 64-bit draw per
# element step.

_MAX_WINDOW = 1024
_PREFIX_BITS = 64


class StepWindow(NamedTuple):
    """The exact windowed slot draw of a walk with d slots, L of them elements.

    A window draws V below ``scale`` * d^W as ``top_bits`` high bits, then
    ``shift`` low bits only on a tie.  ``tops`` holds the prefixes
    ``threshold(k) >> shift`` for k <= W (see :meth:`draw`).
    """

    width: int
    slots: int
    elements: int
    scale: int
    top_bits: int
    shift: int
    tops: tuple[int, ...]

    def threshold(self, k: int) -> int:
        """scale * cum[k], cum[k] the values of U below d^W with outcome at most k.

        cum[W] is d^W itself.
        """
        d, w = self.slots, self.width
        rest = (d - self.elements) ** (k + 1) * d ** (w - 1 - k) if k < w else 0
        return self.scale * (d**w - rest)

    def draw(self, grb) -> int:
        """One window's outcome from the bit source grb (``getrandbits``).

        k < width is k loop steps, then an element step; k == width is
        width loop steps.  The outcome is bisect_right(cum, U) for U
        uniform below d^W.
        """
        tops = self.tops
        while True:
            top = grb(self.top_bits)
            k = bisect_right(tops, top)
            if tops[k - 1] != top:  # no prefix is top, and tops[W] >= 2^P - 1, so k <= W
                return k
            v = top << self.shift | grb(self.shift)
            j = bisect_left(tops, top)
            while j < k and v >= self.threshold(j):
                j += 1
            if j <= self.width:
                return j
            # V >= scale * d^W: redraw


def step_window(d: int, elements: int) -> StepWindow:
    """The window of a walk with d slots, the first ``elements`` of them elements.

    W is 1 while q = d - L is below 2L, so every direct walk (q <= 1) gets
    the one-slot draw, and 4q // L up to _MAX_WINDOW past that.  A walk
    without elements never draws.
    """
    q = d - elements
    width = min(_MAX_WINDOW, 4 * q // elements) if elements and q >= 2 * elements else 1
    bound = d**width
    shift = (bound - 1).bit_length()
    scale = (1 << (_PREFIX_BITS + shift)) // bound
    span = scale * bound  # V's range
    rest = scale * q * d ** (width - 1)  # span - scale * cum[k], from k = 0
    tops = [(span - rest) >> shift]
    for _ in range(width - 1):
        rest = rest * q // d
        tops.append((span - rest) >> shift)
    tops.append(span >> shift)
    return StepWindow(width, d, elements, scale, _PREFIX_BITS, shift, tuple(tops))


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
# Each fixed-bound integer (the slot below d on a one-slot walk and the
# m(m-1) ordered list-slot pairs) is ``r = grb(k)`` with the bound's bit
# length k computed once, then ``while r >= bound: r = grb(k)``.  A bound of
# 1 draws nothing, so d == 1 swaps grb for _zero; the pair bound exceeds 1
# whenever a pair is drawn.  With W == 1 a slot at or past L is a loop and
# continues at once, and one below is the element's slot.  With W > 1 each
# window is one StepWindow.draw, and its loop steps are skipped by moving
# the step iterator (``range_iterator.__setstate__``, O(1)), so a padded
# walk pays one window per element step or per W loop steps; an undirected
# element step then draws its parity bit alone.
#
# Every mode draws a pair (a, b), (c, d) with a != c and b != d, and a
# 2-swap of it writes (a, d), (c, b).  A graph also redraws a pair that
# shares an endpoint, and reads its second edge as (d, c) on an even slot
# (a windowed step: a 0 parity bit), so {a,b},{c,d} re-pairs as {a,c},{b,d}
# on an even slot and as {a,d},{b,c} on an odd one; each new edge is stored
# with its smaller endpoint first.


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
    gw = grb if d > 1 else _zero
    kd = (d - 1).bit_length()
    km = (mm - 1).bit_length()
    w1 = window.width - 1
    draw = window.draw
    moves = 0
    steps = iter(range(tau))
    skip_to = steps.__setstate__  # the next step index, in O(1)
    for t in steps:
        if w1:
            k = draw(grb)
            if k:
                if k > w1:  # W padding loops: keep per-slot probability at 1/walk_degree
                    skip_to(t + k)
                    continue
                t += k
                if t >= tau:
                    break
                skip_to(t + 1)
            if not directed:
                slot = grb(1)
        else:
            slot = gw(kd)
            while slot >= d:
                slot = gw(kd)
            if slot >= loop_start:  # padding loops: keep per-slot probability at 1/walk_degree
                continue
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


class ChainConfig(_ChainFields):
    """A run's settings, checked on construction (and so on unpickling)."""

    __slots__ = ()

    def __new__(cls, tau: int, mode: str, seed: int = DEFAULT_SEED):
        if tau < 0:
            raise InvalidInputError("tau must be >= 0")
        if mode not in MODES:
            raise InvalidInputError(f"unknown mode {mode!r}")
        if seed < 0:
            # random.Random(-s) is random.Random(s): two seeds, one walk
            raise InvalidInputError("seed must be >= 0")
        return super().__new__(cls, tau, mode, seed)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result here; tuple.__new__ would skip the checks
        return cls(*iterable)


class ChainResult(NamedTuple):
    graph: Graph | Digraph
    moves: int
    loops: int


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


def run_chain(g0: Graph | Digraph | ChainPlan, cfg: ChainConfig) -> ChainResult:
    """Run tau steps from g0; deterministic given (g0, seed).

    g0 may be given as its :func:`plan_chain` for ``cfg.mode``, which walks
    exactly as g0 itself does.  The run walks a copy of g0, or g0's
    complement when that walk is shorter (:func:`complement_universe`),
    padded to g0's walk degree and complemented back at the end; the two
    have the same transition matrix.  The step loop runs without a move
    hook.
    """
    plan = g0 if isinstance(g0, ChainPlan) else plan_chain(g0, cfg.mode)
    if plan.mode != cfg.mode:
        raise InvalidInputError(f"a {plan.mode} plan cannot run mode {cfg.mode!r}")
    g = plan.start.copy()
    rng = random.Random(cfg.seed)
    moves = _run(g, plan.walked, rng, cfg.tau, None, plan.universe.walk_degree, plan.window)
    if plan.complement:
        g = g.complement()
    return ChainResult(g, moves, cfg.tau - moves)
