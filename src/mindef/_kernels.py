"""Hot enumeration kernels and the compressed search-space layout they read.

The kernels work on a search space renumbered to dense local bits
``0..k-1`` (see :class:`LocalSpace`). Two enumeration strategies live here:

* ``subset_scan`` walks every bit pattern of a (small) search space in
  numeric order and keeps the conflict-free / admissible ones. This is the
  exhaustive reference path, vectorized with numpy over ``arange`` blocks
  of at most ``2^20`` patterns.

* ``dfs_enumerate`` explores an include/exclude tree over the candidate
  arguments, pruning conflicting inclusions and branches whose pending
  defence obligations can no longer be met. It is a recursive pure-Python
  walk over unbounded ints that reads the clock for wall-clock deadlines.
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


def subset_scan(k: int, conflict, ob_off, ob_masks,
                require_defence: bool) -> list[int]:
    """All conflict-free (and, on request, admissible) k-bit patterns.

    Arguments follow the :class:`LocalSpace` layout. Patterns are tested
    in blocks of ``_SCAN_CHUNK`` and come back in increasing numeric order.
    """
    conflict = np.asarray(conflict, dtype=np.int64)
    total = 1 << k
    out = []
    for start in range(0, total, _SCAN_CHUNK):
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

    Arguments follow the :class:`LocalSpace` layout. ``pos_idx`` lists the
    branchable candidate indices in fixed order; ``forced_mask`` members are
    included unconditionally. ``suffix_avail[d]`` must hold the union of
    bits still branchable at depth ``d``. With ``maximal_only``, branches
    that provably yield no inclusion-maximal set are cut, so the caller must
    only use the result for maximality filtering. Raises
    :class:`DeadlineReached` when the deadline fires; recursion depth grows
    with ``len(pos_idx)``.
    """
    npos = len(pos_idx)
    out = []
    ticks = 0

    def walk(depth, inc):
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 1024 == 0:
            if time.monotonic() > deadline:
                raise DeadlineReached
        avail = suffix_avail[depth]
        probe = inc
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            probe ^= low
            for t in range(ob_off[i], ob_off[i + 1]):
                m = ob_masks[t]
                if m & inc == 0 and m & avail == 0:
                    return
        if depth == npos:
            if maximal_only:
                # drop leaves some excluded candidate could still join:
                # the enlarged set is admissible, so this one is not maximal
                for i in range(k):
                    bit = 1 << i
                    if inc & bit or conflict[i] & inc:
                        continue
                    if all(ob_masks[t] & (inc | bit)
                           for t in range(ob_off[i], ob_off[i + 1])):
                        return
            out.append(inc)
            return
        i = pos_idx[depth]
        bit = 1 << i
        if conflict[i] & inc == 0:
            walk(depth + 1, inc | bit)
            if maximal_only:
                obligations = range(ob_off[i], ob_off[i + 1])
                # already defended and non-conflicting: any admissible
                # superset without i extends by i, so no exclude-leaf is
                # maximal; same if nothing ahead can ever conflict with i
                # and i stays defendable by itself
                if all(ob_masks[t] & inc for t in obligations):
                    return
                if (conflict[i] & suffix_avail[depth + 1] == 0
                        and all(ob_masks[t] & (inc | bit) for t in obligations)):
                    return
        walk(depth + 1, inc)

    walk(0, forced_mask)
    return out


# the name the benchmark tracer reads the recursive ``walk`` helper from
_dfs_py = dfs_enumerate
