"""Hot enumeration kernels and the compressed search-space layout they read.

The kernels take a :class:`LocalSpace`: a search space renumbered to dense
local bits ``0..k-1``, holding per member the mask of its conflicts and a
list of its defence obligations (per attacker, the mask of members that
answer it). The space also splits itself into independent groups. Two
enumeration strategies live here:

* ``subset_scan`` tests every bit pattern of a (small) search space and
  keeps, in numeric order, those that are conflict-free and meet every
  obligation (a space built without defence has none). This is the
  exhaustive reference path. It is bit-sliced over plain Python ints: one
  int holds one yes/no answer for each of a block's ``_SCAN_CHUNK``
  patterns, so a handful of int operations per member tests the whole
  block. It takes at most ``SCAN_MAX_ARGUMENTS`` (62) members, and reads
  the ceiling between blocks.

* ``dfs_enumerate`` explores an include/exclude tree over the candidate
  arguments, pruning conflicting inclusions and branches whose pending
  defence obligations can no longer be met. It is a pure-Python loop over
  unbounded ints with an explicit stack, so any depth fits; it checks
  incrementally (an inclusion checks the included member's own
  obligations, an exclusion only the included owners' obligations the
  excluded member answers). One call may search one independent group of
  a larger space.

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


def too_many_sets():
    return BudgetExceeded(f"answer exceeds the cap of {MAX_SETS} sets")


class Ceiling:
    """A request's started wall-clock ceiling.

    Holds the ceiling's ``seconds`` and the ``time.monotonic()`` value at
    which it expires, ``left`` seconds after it was made (by default all of
    them). ``check()`` refuses once that has passed; ``deadline()`` returns
    the ceiling itself, so a started ceiling stands in wherever a
    :class:`~mindef.extensions.SearchBudget` would be started.
    """

    __slots__ = ("seconds", "expiry")

    def __init__(self, seconds: float, left: float | None = None):
        self.seconds = seconds
        self.expiry = time.monotonic() + (seconds if left is None else left)

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


class LocalSpace:
    """A subset of a framework's arguments renumbered to local bits.

    ``members[j]`` is the global index behind local bit ``j``.
    ``conflict[j]`` is the local mask of members that attack member ``j`` or
    are attacked by it. ``obligations[j]`` lists, per attacker of member
    ``j``, the local mask of members that counter-attack it; built without
    ``defence``, every list is empty.
    """

    __slots__ = ("members", "local_of", "space", "conflict", "obligations")

    def __init__(self, af, space: int, defence: bool):
        att = af.attacker_masks
        tgt = af.target_masks
        self.space = space
        self.members = list(bits(space))
        self.local_of = {g: j for j, g in enumerate(self.members)}
        to_local = self.to_local
        self.conflict = [to_local(att[g] | tgt[g]) for g in self.members]
        self.obligations = [
            [to_local(att[b]) for b in bits(att[g])] if defence else []
            for g in self.members]

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

    def components(self, forced: int) -> list[int]:
        """Local masks of the space's independent groups of members.

        Members are linked, both ways, to their conflicts and to the
        answerers of their attackers, so no two groups share a conflict or
        an obligation. Groups made only of ``forced`` members are left out.
        """
        link = list(self.conflict)
        for i, obs in enumerate(self.obligations):
            for m in obs:
                link[i] |= m
                for j in bits(m):
                    link[j] |= 1 << i
        groups = []
        rest = (1 << len(link)) - 1 & ~forced
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
    """All k-bit patterns that are admissible in ``space``.

    A space built without defence has no obligations, so every
    conflict-free pattern qualifies. ``k`` must not exceed
    ``SCAN_MAX_ARGUMENTS``. Patterns are tested in blocks of ``_SCAN_CHUNK``
    and come back in increasing numeric order. The ceiling is checked
    between blocks, and the ``MAX_SETS`` cap after each.

    The test is bit-sliced over plain ints. A block holds the ``2^w``
    patterns that share their bits at and above ``w``, and bit ``p`` of an
    int stands for the block's pattern ``p``. Member ``i``'s column has bit
    ``p`` set when pattern ``p`` holds ``i``; for ``i >= w`` it is all ones
    or zero. A pattern is bad when it holds a member ``i`` and one of
    ``conflict[i]``, or holds ``i`` and none of the answerers in one of
    ``i``'s obligations. Every pattern is tested; the block's survivors are
    the patterns that are not bad.
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

    # per member: its conflicts' bits at and above w, and the column of the
    # patterns holding one below w; per obligation, the answerers' bits at
    # and above w, and the column of the patterns holding none below w
    checks = [(conflict >> w, full ^ none_of(conflict),
               [(m >> w, none_of(m)) for m in obligations])
              for conflict, obligations in zip(space.conflict,
                                               space.obligations)]
    out = []
    for block in range(1 << k - w):
        if block:
            deadline.check()
        bad = 0
        for i, (conflict_high, conflict_col, obligations) in enumerate(checks):
            if i < w:
                held = column[i]
            elif block >> i - w & 1:
                held = full
            else:
                continue
            hit = full if conflict_high & block else conflict_col
            for answer_high, unmet in obligations:
                if not answer_high & block:
                    hit |= unmet
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


def dfs_enumerate(k: int, pos_idx, suffix_avail, forced_mask: int,
                  space: LocalSpace, maximal_only: bool,
                  deadline: Ceiling) -> list[int]:
    """Admissible (or conflict-free, when no obligations) candidate masks.

    A call may search any ``k`` of ``space``'s members that share no
    conflict or obligation with the rest. The kernel never reads ``k``:
    it is the group's size, counted by the benchmark's tracer
    (``perfbench/tracer.py``, ``extensions.solve.candidates``), which
    wraps this function positionally. ``pos_idx`` lists the branchable
    member indices in fixed order; ``forced_mask`` members are included
    unconditionally.
    ``suffix_avail[d]`` must hold the union of bits still branchable at
    depth ``d``. With ``maximal_only``, branches that provably yield no
    inclusion-maximal set are cut, so the caller must only use the result
    for maximality filtering. Refuses past the ceiling or past ``MAX_SETS``
    sets. The walk keeps an explicit stack, so its depth is bounded by
    memory, not by the interpreter's recursion limit.
    """
    npos = len(pos_idx)
    branchable = suffix_avail[0]
    # per branchable bit, the mask of owners and the (owner bit, obligation)
    # pairs whose last branchable answerer it is: only excluding that one can
    # strand an obligation, and only if its owner is included
    conflict = space.conflict
    own = space.obligations
    depth_of = {i: d for d, i in enumerate(pos_idx)}
    watch = {i: [] for i in pos_idx}
    owners = dict.fromkeys(pos_idx, 0)
    for o in bits(forced_mask | branchable):
        for m in own[o]:
            if m & forced_mask or m & branchable == 0:
                continue  # always met, or never: no exclusion changes it
            last = max(bits(m & branchable), key=depth_of.__getitem__)
            watch[last].append((1 << o, m))
            owners[last] |= 1 << o
    reach = forced_mask | branchable
    for o in bits(forced_mask):
        for m in own[o]:
            if m & reach == 0:
                return []

    def joinable(inc):
        # some excluded candidate could still join: the enlarged set is
        # admissible, so ``inc`` is not maximal
        for j in bits(branchable & ~inc):
            if conflict[j] & inc == 0:
                grown = inc | 1 << j
                if all(m & grown for m in own[j]):
                    return True
        return False

    out = []
    cap = MAX_SETS
    ticks = 0
    stack = [(0, forced_mask)]
    pop = stack.pop
    push = stack.append
    while stack:
        ticks += 1
        if ticks & 1023 == 0:
            deadline.check()
        depth, inc = pop()
        if depth == npos:
            if not (maximal_only and joinable(inc)):
                out.append(inc)
                if len(out) > cap:
                    raise too_many_sets()
            continue
        i = pos_idx[depth]
        depth += 1
        avail = suffix_avail[depth]
        include = exclude = True
        if conflict[i] & inc:
            include = False
        else:
            obs = own[i]
            grown = inc | 1 << i
            # including i adds only i's own obligations
            reach = grown | avail
            for m in obs:
                if m & reach == 0:
                    include = False
                    break
            if maximal_only:
                # already defended and non-conflicting: any admissible
                # superset without i extends by i, so no exclude-leaf is
                # maximal; same if nothing ahead can ever conflict with i
                # and i stays defendable by itself
                for m in obs:
                    if m & inc == 0:
                        break
                else:
                    exclude = False
                if exclude and conflict[i] & avail == 0:
                    for m in obs:
                        if m & grown == 0:
                            break
                    else:
                        exclude = False
        if exclude and inc & owners[i]:
            # excluding i fails if an included owner loses its last answerer
            for owner, m in watch[i]:
                if inc & owner and m & inc == 0:
                    exclude = False
                    break
        if exclude:
            push((depth, inc))
        if include:
            push((depth, grown))
    return out


# the name the benchmark tracer looks the kernel up by
_dfs_py = dfs_enumerate
