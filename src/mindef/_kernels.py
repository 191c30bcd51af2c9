"""Hot enumeration kernels and the compressed search-space layout they read.

The kernels work on a search space renumbered to dense local bits
``0..k-1`` (see :class:`LocalSpace`). Two enumeration strategies live here:

* ``subset_scan`` walks every bit pattern of a (small) search space in
  numeric order and keeps the conflict-free / admissible ones. This is the
  exhaustive reference path, vectorized with numpy over ``arange`` blocks
  of at most ``2^20`` patterns, with the deadline read between blocks.

* ``dfs_enumerate`` explores an include/exclude tree over the candidate
  arguments, pruning conflicting inclusions and branches whose pending
  defence obligations can no longer be met. It is a pure-Python loop over
  unbounded ints with an explicit stack, so any depth fits; it checks
  incrementally (an inclusion checks the included member's own
  obligations, an exclusion only the included owners' obligations the
  excluded member answers) and reads the clock for wall-clock deadlines.
  One call may search one independent group of a larger space.
"""

import importlib.util
import time

import numpy as np

from .model import bits

# Machine facts reported by benchmark runs; the package has no JIT backend.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
JIT_ENABLED = False

# patterns per numpy block in ``subset_scan``; bounds its memory whatever k is
_SCAN_CHUNK = 1 << 20


class DeadlineReached(Exception):
    """Internal signal: the wall-clock ceiling fired mid-search."""


class LocalSpace:
    """A subset of a framework's arguments renumbered to local bits.

    ``members[j]`` is the global index behind local bit ``j``.
    ``conflict[j]`` is the local mask of members that attack member ``j`` or
    are attacked by it. With ``defence``, ``ob_masks[ob_off[j]:ob_off[j+1]]``
    holds, per attacker of member ``j``, the local mask of members that
    counter-attack it; without, every member has no obligations.
    """

    __slots__ = ("members", "local_of", "space", "conflict", "ob_off",
                 "ob_masks")

    def __init__(self, af, space: int, defence: bool):
        att = af.attacker_masks
        tgt = af.target_masks
        self.space = space
        self.members = list(bits(space))
        self.local_of = {g: j for j, g in enumerate(self.members)}
        to_local = self.to_local
        self.conflict = [to_local(att[g] | tgt[g]) for g in self.members]
        self.ob_off = [0]
        self.ob_masks = []
        for g in self.members:
            if defence:
                for b in bits(att[g]):
                    self.ob_masks.append(to_local(att[b]))
            self.ob_off.append(len(self.ob_masks))

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


def subset_scan(k: int, conflict, ob_off, ob_masks, require_defence: bool,
                deadline: float | None = None) -> list[int]:
    """All conflict-free (and, on request, admissible) k-bit patterns.

    Arguments follow the :class:`LocalSpace` layout. Patterns are tested
    in blocks of ``_SCAN_CHUNK`` and come back in increasing numeric order.
    The deadline is checked between blocks; raises :class:`DeadlineReached`
    when it has passed.
    """
    conflict = np.asarray(conflict, dtype=np.int64)
    total = 1 << k
    out = []
    for start in range(0, total, _SCAN_CHUNK):
        if start and deadline is not None and time.monotonic() > deadline:
            raise DeadlineReached
        subs = np.arange(start, min(start + _SCAN_CHUNK, total),
                         dtype=np.int64)
        ok = np.ones(subs.shape[0], dtype=np.bool_)
        for i in range(k):
            member = (subs >> i) & 1 == 1
            ok &= ~(member & ((subs & conflict[i]) != 0))
            if require_defence:
                for t in range(ob_off[i], ob_off[i + 1]):
                    ok &= ~(member & ((subs & ob_masks[t]) == 0))
        out.extend(subs[ok].tolist())
    return out


def dfs_enumerate(k: int, pos_idx, suffix_avail, forced_mask: int, conflict,
                  ob_off, ob_masks, maximal_only: bool,
                  deadline: float | None) -> list[int]:
    """Admissible (or conflict-free, when no obligations) candidate masks.

    Arguments follow the :class:`LocalSpace` layout; a call may search any
    ``k`` of the space's members that share no conflict or obligation with
    the rest. ``pos_idx`` lists the branchable member indices in fixed
    order; ``forced_mask`` members are included unconditionally.
    ``suffix_avail[d]`` must hold the union of bits still branchable at
    depth ``d``. With ``maximal_only``, branches that provably yield no
    inclusion-maximal set are cut, so the caller must only use the result
    for maximality filtering. Raises :class:`DeadlineReached` when the
    deadline fires. The walk keeps an explicit stack, so its depth is
    bounded by memory, not by the interpreter's recursion limit.
    """
    npos = len(pos_idx)
    branchable = suffix_avail[0]
    # each member's own obligations; and per branchable bit, the mask of
    # owners and the (owner bit, obligation) pairs whose last branchable
    # answerer it is: only excluding that one can strand an obligation,
    # and only if its owner is included
    depth_of = {i: d for d, i in enumerate(pos_idx)}
    own = {}
    watch = {i: [] for i in pos_idx}
    owners = dict.fromkeys(pos_idx, 0)
    for o in bits(forced_mask | branchable):
        obs = ob_masks[ob_off[o]:ob_off[o + 1]]
        own[o] = obs
        for m in obs:
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
    ticks = 0
    stack = [(0, forced_mask)]
    pop = stack.pop
    push = stack.append
    while stack:
        ticks += 1
        if deadline is not None and ticks & 1023 == 0:
            if time.monotonic() > deadline:
                raise DeadlineReached
        depth, inc = pop()
        if depth == npos:
            if not (maximal_only and joinable(inc)):
                out.append(inc)
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
