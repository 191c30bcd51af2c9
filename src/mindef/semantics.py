"""Pointwise acceptability predicates and the preference order on sets.

Everything here is a pure function over immutable inputs. The vocabulary:
a set is *conflict-free* when no member attacks a member; it *defends* an
argument when every attacker of that argument is itself attacked from
inside the set; it is *admissible* when it is conflict-free and defends all
its members. On top of a partition, a set is *restrictedly admissible* when
it is admissible and each of its restricted members individually defends at
least one of its unrestricted members.
"""

import enum

from .errors import CrossFrameworkSet, NotWithinFocus
from .model import ArgumentationFramework, ArgumentSet, Partition, bits, split


class PrecOrdering(enum.Enum):
    """How the second of two compared sets fares relative to the first."""

    STRICTLY_BETTER = "strictly-better"
    EQUIVALENT = "equivalent"
    STRICTLY_WORSE = "strictly-worse"
    INCOMPARABLE = "incomparable"


# plain globals: attribute access on the enum class is slow in hot loops
BETTER, EQUIVALENT, WORSE, INCOMPARABLE = PrecOrdering


def is_conflict_free(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    """True iff no member of ``s`` attacks a member of ``s`` (self included)."""
    mask = s.mask
    for i in bits(mask):
        if af.attacker_masks[i] & mask:
            return False
    return True


def defends(af: ArgumentationFramework, s: ArgumentSet, a) -> bool:
    """True iff every attacker of ``a`` is attacked by some member of ``s``."""
    att = af.attacker_masks
    smask = s.mask
    for b in bits(att[af.index(a)]):
        if not att[b] & smask:
            return False
    return True


def defends_all(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    """True iff ``s`` defends every one of its members."""
    att = af.attacker_masks
    smask = s.mask
    attackers = 0  # an attacker of several members is answered once
    for i in bits(smask):
        attackers |= att[i]
    return all(att[b] & smask for b in bits(attackers))


def is_admissible(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    return is_conflict_free(af, s) and defends_all(af, s)


def _parity_reachable(masks, start_index: int) -> int:
    """Bitmask of vertices reachable from ``start_index`` by walks of even
    length >= 2 along the adjacency ``masks``.

    Walks may revisit vertices, so plain reachability over (vertex, parity)
    states is exact; the start vertex itself is included when an even cycle
    leads back to it.
    """
    seen = [0, masks[start_index]]
    frontier = seen[1]
    parity = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= masks[v]
        parity ^= 1
        frontier = nxt & ~seen[parity]
        seen[parity] |= frontier
    return seen[0]


def individual_defenders(af: ArgumentationFramework, a) -> ArgumentSet:
    """All arguments connected to ``a`` by an even-length backward attack walk.

    These are the arguments that, on their own, neutralize some attack line
    against ``a``: the walk alternates attacker-of-attacker steps, so every
    even position is a defender. Intermediate vertices are unconstrained.
    """
    return ArgumentSet(af, _parity_reachable(af.attacker_masks, af.index(a)))


def individually_defended_by(af: ArgumentationFramework, c) -> ArgumentSet:
    """Transpose view: all arguments that ``c`` individually defends."""
    return ArgumentSet(af, _parity_reachable(af.target_masks, af.index(c)))


def is_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                               s: ArgumentSet) -> bool:
    """Admissible, and every restricted member defends an unrestricted one.

    ``s`` must be a subset of the partition's focus; anything else is a
    caller bug and raises :class:`NotWithinFocus` rather than being silently
    truncated. Defender walks range over the whole framework.
    """
    if s.framework is not af or p.framework is not af:
        raise CrossFrameworkSet("set and partition must belong to the framework")
    if s.mask & ~p.focus.mask:
        raise NotWithinFocus(f"set {s!r} is not within the focus {p.focus!r}")
    if not is_admissible(af, s):
        return False
    su, sr = split(s, p)
    for x in bits(sr.mask):
        if not _parity_reachable(af.target_masks, x) & su.mask:
            return False
    return True


def prec_order(p: Partition, m1: int, m2: int) -> PrecOrdering:
    """How the focus subset with mask ``m2`` fares against mask ``m1``.

    Mask-level core of :func:`prec_compare`, without its checks.
    """
    # inclusion on the unrestricted parts decides; when they agree, reverse
    # inclusion on the restricted parts does (fewer is better)
    u = p.unrestricted.mask
    low, high = m1 & u, m2 & u
    if low == high:
        r = p.restricted.mask
        low, high = m2 & r, m1 & r
    if low == high:
        return EQUIVALENT
    if low | high == high:
        return BETTER
    if low | high == low:
        return WORSE
    return INCOMPARABLE


def prec_compare(p: Partition, s1: ArgumentSet, s2: ArgumentSet) -> PrecOrdering:
    """Compare two subsets of the focus; the verdict describes ``s2``.

    ``STRICTLY_BETTER`` means ``s2`` improves on ``s1``: it has strictly
    more unrestricted members, or the same unrestricted members and strictly
    fewer restricted ones. ``EQUIVALENT`` holds exactly for equal sets
    (given both are within the focus).
    """
    for s in (s1, s2):
        if s.framework is not p.framework:
            raise CrossFrameworkSet("set and partition belong to different frameworks")
        if s.mask & ~p.focus.mask:
            raise NotWithinFocus(f"set {s!r} is not within the focus {p.focus!r}")
    return prec_order(p, s1.mask, s2.mask)
