"""Hot enumeration kernels and the compressed search-space layout they read.

The kernels take a :class:`LocalSpace`: a search space renumbered to dense
local bits ``0..k-1``, holding per member the mask of its conflicts, and
Dung's defence relation as *obligation* bits: each distinct attacker of a
member is one obligation, a member owes the obligations of its attackers
and answers those of the attackers it attacks. A caller may add
obligations of its own, each owed by one member and answered by any of a
given set; restricted admissibility is such an obligation per restricted
member, answered by the unrestricted members it individually defends. The
space also splits itself into independent groups. Two enumeration
strategies live here:

* ``subset_scan`` tests every bit pattern of a (small) search space and
  keeps, in numeric order, those that are conflict-free and answer every
  obligation they owe (a space built without defence has none). This is
  the exhaustive reference path; the oracle hands it a layout of its own,
  built from the framework's masks, not a :class:`LocalSpace`. It is bit-sliced over plain Python ints:
  one int holds one yes/no answer for each of a block's ``_SCAN_CHUNK``
  patterns, so a handful of int operations per member tests the whole
  block. It takes at most ``SCAN_MAX_ARGUMENTS`` (62) members, and reads
  the ceiling between blocks.

* ``dfs_enumerate`` is the one search loop. While the included members
  owe an unanswered obligation, a node branches on the one with the
  fewest answerers still free to join, the most constrained, one child
  per answerer, each closing the answerers before its own; this is the
  labelling search of Modgil & Caminada (2009) and of Nofal, Atkinson &
  Dunne (AIJ 207, 2014). Once every obligation is answered, it includes
  or excludes the lowest free member. Its mode selects all admissible
  sets, candidates for the inclusion-maximal ones, candidates for the
  minimal ones, or one witness; the minimal mode is min-def's shrinking
  step, run over a framework's own masks, and the witness mode answers
  credulous queries. It is a pure-Python loop over unbounded ints
  with an explicit stack, so any depth fits; a node carries what its
  included members owe and answer as two obligation masks, so each test
  is one mask test. One call may search one independent group of a
  larger space.

Both read the request's wall-clock ceiling, a started :class:`Ceiling`
(:data:`UNBOUNDED` for none), and refuse with
:class:`~mindef.errors.BudgetExceeded` once it has passed or once a call
has collected more than ``MAX_SETS`` sets, so that no answer grows past
memory.
"""

import functools
import importlib.util
import math
import time
from itertools import accumulate

from .errors import BudgetExceeded
from .model import bits

# Machine facts reported by benchmark runs; the package has no JIT backend.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
JIT_ENABLED = False

# patterns per block in ``subset_scan``, a power of two; bounds its memory
# whatever k is. Its 2^16-bit (8 KiB) ints scanned random k=20 spaces in
# 1-2 ms, against 14-26 ms with 2^20-bit ones (2-core VM, Python 3.11).
_SCAN_CHUNK = 1 << 16
# the most members ``subset_scan`` takes: 2^62 patterns is past any ceiling,
# and refusals quote this cap
SCAN_MAX_ARGUMENTS = 62
# the most sets a kernel call collects, or a family holds, before refusing
MAX_SETS = 1 << 23


# the modes of ``dfs_enumerate``
ALL, MAXIMAL, MINIMAL, WITNESS = 0, 1, 2, 3


def too_many_sets():
    return BudgetExceeded(f"answer exceeds the cap of {MAX_SETS} sets")


# the default cap on the members of an exhaustive (oracle) scan
EXHAUSTIVE_CAP = 20


class Ceiling:
    """A request's started wall-clock ceiling.

    Holds the ceiling's ``seconds`` and the ``time.monotonic()`` value at
    which it expires, ``left`` seconds after it was made (by default all of
    them). ``check()`` refuses once that has passed; ``deadline()`` returns
    the ceiling itself. It also carries the request's cap on an exhaustive
    scan, ``max_arguments_for_exhaustive``, so a started ceiling stands in
    for the whole :class:`~mindef.extensions.SearchBudget`, on the solver
    and on the oracle alike.
    """

    __slots__ = ("seconds", "expiry", "max_arguments_for_exhaustive")

    def __init__(self, seconds: float, left: float | None = None,
                 cap: int = EXHAUSTIVE_CAP):
        self.seconds = seconds
        self.expiry = time.monotonic() + (seconds if left is None else left)
        self.max_arguments_for_exhaustive = cap

    def left(self) -> float:
        return self.expiry - time.monotonic()

    def check(self) -> None:
        if time.monotonic() > self.expiry:
            raise BudgetExceeded(
                f"wall-clock ceiling of {self.seconds}s exhausted")

    def deadline(self) -> "Ceiling":
        return self


# the ceiling of a request without one: it never expires
UNBOUNDED = Ceiling(math.inf)


def checked(items, deadline: Ceiling):
    """Yield ``items``, reading the ceiling before every 256th (the first
    included): the one strided read of the passes over mask lists."""
    for n, item in enumerate(items):
        if n & 255 == 0:
            deadline.check()
        yield item


class LocalSpace:
    """A subset of a framework's arguments renumbered to local bits.

    ``members[j]`` is the global index behind local bit ``j``.
    ``conflict[j]`` is the local mask of members that attack member ``j`` or
    are attacked by it. ``owes[j]`` has the bits of the obligations member
    ``j`` owes, ``answers[j]`` those it answers, and ``answerers[o]`` is
    the local mask of the members that answer obligation ``o`` (``0`` when
    none does). With ``defence``, each distinct attacker of a member is one
    obligation, numbered in the order the attackers first appear, member by
    member: the members it attacks owe it, and those that attack it answer
    it. Each pair ``(g, m)`` of ``extra`` adds one more obligation,
    numbered after those: member ``g`` owes it, and the members of the
    global mask ``m`` answer it.
    """

    __slots__ = ("members", "local_of", "space", "conflict", "owes",
                 "answers", "answerers")

    def __init__(self, af, space: int, defence: bool, extra=()):
        att = af.attacker_masks
        tgt = af.target_masks
        self.space = space
        self.members = list(bits(space))
        self.local_of = {g: j for j, g in enumerate(self.members)}
        to_local = self.to_local
        self.conflict = [to_local(att[g] | tgt[g]) for g in self.members]
        bit_of = {}
        self.owes = []
        self.answerers = []
        for g in self.members:
            owed = 0
            for b in bits(att[g]) if defence else ():
                if b not in bit_of:
                    bit_of[b] = 1 << len(self.answerers)
                    self.answerers.append(to_local(att[b]))
                owed |= bit_of[b]
            self.owes.append(owed)
        for g, m in extra:
            self.owes[self.local_of[g]] |= 1 << len(self.answerers)
            self.answerers.append(to_local(m))
        self.answers = [0] * len(self.members)
        for o, m in enumerate(self.answerers):
            for j in bits(m):
                self.answers[j] |= 1 << o

    def to_local(self, global_mask: int) -> int:
        local_of = self.local_of
        out = 0
        for g in bits(global_mask & self.space):
            out |= 1 << local_of[g]
        return out

    def to_global(self, local_mask: int) -> int:
        members = self.members
        out = 0
        for j in bits(local_mask):
            out |= 1 << members[j]
        return out

    def components(self, seeds: int) -> list[int]:
        """Local masks of the space's independent groups of members that
        hold a member of the local mask ``seeds`` (``-1``: every member).

        Members are linked, both ways, to their conflicts and to the
        answerers of the obligations they owe, so no two groups share a
        conflict or an obligation. A caller leaves its forced members out
        of ``seeds``, so that no group made of them alone is returned; a
        group still holds the forced members linked to its seeds.
        """
        link = list(self.conflict)
        for i, owed in enumerate(self.owes):
            for o in bits(owed):
                m = self.answerers[o]
                link[i] |= m
                for j in bits(m):
                    link[j] |= 1 << i
        groups = []
        rest = (1 << len(link)) - 1 & seeds
        while rest:
            group = frontier = rest & -rest
            while frontier:
                reach = 0
                for j in bits(frontier):
                    reach |= link[j]
                frontier = reach & ~group
                group |= frontier
            groups.append(group)
            rest &= ~group
        return groups


@functools.cache
def _columns(w: int) -> tuple[int, ...]:
    """Per bit ``i < w``, the ``2^w``-bit int whose bit ``p`` is set when
    ``p`` has bit ``i`` set: runs of ``2^i`` zeros and ``2^i`` ones, built
    by doubling. Cached, as ``w`` is at most ``log2(_SCAN_CHUNK)``."""
    columns = []
    for i in range(w):
        run = 1 << i
        col = ((1 << run) - 1) << run
        period = run << 1
        while period >> w == 0:
            col |= col << period
            period <<= 1
        columns.append(col)
    return tuple(columns)


def subset_scan(k: int, space: LocalSpace,
                deadline: Ceiling = UNBOUNDED) -> list[int]:
    """All k-bit patterns that are admissible in ``space``: conflict-free,
    and answering every obligation they owe.

    ``space`` is a :class:`LocalSpace`, or any layout with its lists
    ``conflict``, ``owes`` and ``answerers`` (the oracle builds its own,
    see :func:`mindef.oracle._layout`); the scan reads nothing else. A
    space built without defence has no obligations, so every
    conflict-free pattern qualifies. ``k`` must not exceed
    ``SCAN_MAX_ARGUMENTS``. Patterns are tested in blocks of ``_SCAN_CHUNK``
    and come back in increasing numeric order. The ceiling is checked
    between blocks, and the ``MAX_SETS`` cap after each.

    The test is bit-sliced over plain ints. A block holds the ``2^w``
    patterns that share their bits at and above ``w``, and bit ``p`` of an
    int stands for the block's pattern ``p``. Member ``i``'s column has bit
    ``p`` set when pattern ``p`` holds ``i``; for ``i >= w`` it is all ones
    or zero. A pattern is bad when it holds a member ``i`` and one of
    ``conflict[i]``, or holds ``i`` and none of the answerers of one of
    the obligations ``i`` owes. Each block finds once per obligation the
    patterns that leave it unanswered. Every pattern is tested; the block's
    survivors are the patterns that are not bad.
    """
    w = min(k, _SCAN_CHUNK.bit_length() - 1)
    span = 1 << w
    full = (1 << span) - 1
    column = _columns(w)
    low = span - 1
    memo = {}

    def none_of(mask):
        # the column of the patterns holding no member of ``mask`` below w
        mask &= low
        col = memo.get(mask)
        if col is None:
            col = 0
            for j in bits(mask):
                col |= column[j]
            col = memo[mask] = full ^ col
        return col

    # per member: its conflicts' bits at and above w, the column of the
    # patterns holding one below w, and the obligations it owes; per
    # obligation, the answerers' bits at and above w, and the column of the
    # patterns holding none below w
    checks = [(conflict >> w, full ^ none_of(conflict), list(bits(owed)))
              for conflict, owed in zip(space.conflict, space.owes)]
    answered = [(m >> w, none_of(m)) for m in space.answerers]
    out = []
    for block in range(1 << k - w):
        if block:
            deadline.check()
        unmet = [0 if answer_high & block else col
                 for answer_high, col in answered]
        bad = 0
        for i, (conflict_high, conflict_col, owed) in enumerate(checks):
            if i < w:
                held = column[i]
            elif block >> i - w & 1:
                held = full
            else:
                continue
            hit = full if conflict_high & block else conflict_col
            for o in owed:
                hit |= unmet[o]
            bad |= held & hit
        good = full ^ bad
        if good:
            # split the binary digits, lowest first and without the top one,
            # at each set bit: a run of zeros and the set bit after it span
            # len + 1 patterns, so the running sum lands on each survivor
            found = accumulate(
                map((1).__add__, map(len, bin(good)[:2:-1].split("1"))),
                initial=(block << w) - 1)
            next(found)
            out.extend(found)
        if len(out) > MAX_SETS:
            raise too_many_sets()
    return out


def dfs_enumerate(k: int, pos_idx, branchable: int, forced_mask: int,
                  space, mode: int, deadline: Ceiling) -> list[int]:
    """Admissible sets (conflict-free ones, when no obligations) of a space.

    The search includes ``forced_mask`` and branches on the members of the
    mask ``branchable``. ``space`` is a :class:`LocalSpace`, or any
    object with its four lists ``conflict``, ``owes``, ``answers`` and
    ``answerers``. A call may search any members that share no conflict or
    obligation with the rest. The kernel reads neither ``k`` nor
    ``pos_idx``: they are the search's size and its branchable members,
    counted by the benchmark's tracer (``perfbench/tracer.py``), which
    wraps this function positionally.

    With the ``mode`` ``ALL`` every set is returned once. With ``MAXIMAL``
    branches that provably yield no inclusion-maximal set are cut, so the
    caller must only use the result for maximality filtering. With
    ``MINIMAL`` it holds admissible sets whose inclusion-minimal ones are
    the minimal ones of all admissible sets that include ``forced_mask``;
    a set found early may contain one found later, never the reverse.
    ``WITNESS`` is the minimal mode stopped at its first leaf: it returns
    one admissible set that includes ``forced_mask``, or none when there
    is no such set, in a list either way. Refuses past the ceiling, read
    every 256 nodes, or past ``MAX_SETS`` sets. The walk keeps an explicit
    stack, so its depth is bounded by memory, not by the interpreter's
    recursion limit.

    A node is ``(inc, closed, owed, answered)``: the included members, the
    members no longer free to join (included, excluded, or in conflict
    with an included one), and the obligations the included members owe
    and answer. While an owed obligation is unanswered, the node branches
    on the one with the fewest free answerers, the most constrained: child
    ``i`` includes its ``i``-th answerer and closes the ones before it, so
    no set is reached twice, and an obligation without a free answerer
    ends the branch. Once all are answered, ``inc`` is admissible: the
    minimal mode records it as a leaf, and the witness mode returns it;
    the other modes include or exclude the lowest free member, and a node
    with none free is a leaf.

    In the minimal mode no node popped after a leaf ``L`` contains it.
    Such a node lies in a later child of some branching node on ``L``'s
    path; that child has closed the answerer ``L`` took there, so none of
    its descendants includes it. (The root, the one node with no
    branchable member, is popped first.) So a containment test against
    the recorded leaves would never cut, and the caller's minimality pass
    is needed only the other way round.
    """
    conflict = space.conflict
    owes = space.owes
    answers = space.answers
    answerers = space.answerers
    maximal = mode == MAXIMAL
    witness = mode == WITNESS
    minimal = witness or mode == MINIMAL
    closed = forced_mask
    owed = answered = 0
    for j in bits(forced_mask):
        closed |= conflict[j]
        owed |= owes[j]
        answered |= answers[j]

    def joinable(inc, answered):
        # some excluded candidate could still join: the enlarged set is
        # admissible, so ``inc`` is not maximal
        for j in bits(branchable & ~inc):
            if (conflict[j] & inc == 0
                    and owes[j] & ~(answered | answers[j]) == 0):
                return True
        return False

    out = []
    cap = MAX_SETS
    ticks = 0
    stack = [(forced_mask, closed, owed, answered)]
    pop = stack.pop
    push = stack.append
    while stack:
        if ticks & 255 == 0:
            deadline.check()
        ticks += 1
        inc, closed, owed, answered = pop()
        free = branchable & ~closed
        unmet = owed & ~answered
        if unmet:
            # the most constrained obligation: child i takes its i-th free
            # answerer and closes the ones before it
            pick = min([answerers[o] & free for o in bits(unmet)],
                       key=int.bit_count)
            children = []
            for c in bits(pick):
                bit = 1 << c
                closed |= bit
                children.append((inc | bit, closed | conflict[c],
                                 owed | owes[c], answered | answers[c]))
            stack.extend(reversed(children))
            continue
        if minimal or not free:
            if not (maximal and joinable(inc, answered)):
                if witness:
                    return [inc]
                out.append(inc)
                if len(out) > cap:
                    raise too_many_sets()
            continue
        bit = free & -free
        i = bit.bit_length() - 1
        need = owes[i]
        grown = answered | answers[i]
        # already defended, or nothing free can ever conflict with i and i
        # stays defendable by itself: any admissible superset without i
        # extends by i (Dung's fundamental lemma), so no exclude-leaf is
        # maximal
        if not (maximal and (need & ~answered == 0
                             or conflict[i] & free == 0
                             and need & ~grown == 0)):
            push((inc, closed | bit, owed, answered))
        push((inc | bit, closed | bit | conflict[i], owed | need, grown))
    return out


# the name the benchmark tracer looks the kernel up by
_dfs_py = dfs_enumerate
