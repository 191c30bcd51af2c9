"""Extension enumeration: preferred, preferred-on-a-set, and min-def.

The solver explores an include/exclude tree over the candidate arguments
(see :mod:`mindef._kernels`). Before searching it shrinks the problem:

* arguments that can never sit in a conflict-free set (self-attackers) or
  can never be defended inside the search space are dropped, to a fixed
  point;
* for maximality searches, the "forced core" - the least fixed point of
  collective defence inside the space - is included up front, and anything
  in conflict with it is dropped, again to a fixed point. Every maximal
  admissible subset of the space provably contains that core, so this
  prunes without losing solutions;
* the candidates are split into independent groups, linking each member
  both ways to the members it conflicts with and to the answerers of its
  attackers. No two groups share a conflict or a defence obligation, so a
  set qualifies exactly when its part in every group does, and (for
  maximality) is maximal exactly when every part is. Each group gets its
  own tree search, maximal searches keep each group's inclusion-maximal
  sets, and the family is the product of the groups' answers, built under
  the request's deadline.

Min-def extensions are computed by a two-step pipeline: enumerate the
preferred extensions on the focus, keep those whose unrestricted part is
maximal, then shrink each one's restricted part to all its minimal
admissible supports; a final pass keeps, among the candidates with the
same unrestricted part, those with a subset-minimal restricted part, which
removes the candidates dominated across branches. The whole pipeline shares
one wall-clock deadline.

The shrinking step is an obligation-driven search. A candidate is
conflict-free, so any subset is too and only defence matters: each attacker
of a member is an *obligation*, met by the members that attack it. A
minimal support is a minimal set of restricted members that meets every
obligation of the unrestricted part and of the restricted members it takes
in (a minimal transversal, closed under the obligations it brings). The
search starts from the unrestricted part and branches only on the answerers
of the first unmet obligation, excluding each answerer from the branches
after its own; a branch whose restricted part already contains a found
support is cut, and a last pass keeps the inclusion-minimal leaves.
"""

import time
from dataclasses import dataclass
from itertools import compress

from . import _kernels
from .errors import (BudgetExceeded, CrossFrameworkSet, EmptyFamily,
                     NotWithinFocus, PreconditionViolated)
from .model import ArgumentationFramework, ArgumentSet, Partition, bits
from .semantics import BETTER, _parity_reachable, is_admissible, prec_order

CONFLICT_FREE = "conflict-free"
ADMISSIBLE_ALL = "admissible-all"
ADMISSIBLE_MAX = "admissible-max"


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a single solver or oracle invocation.

    ``max_arguments_for_exhaustive`` caps the exhaustive (oracle) search
    space; exceeding it is a hard error, never a truncated answer. The
    wall-clock ceiling applies to the tree search and to the oracle's scan,
    which abort with :class:`BudgetExceeded` when it fires; a min-def
    request spends one ceiling across all its steps.
    """

    max_arguments_for_exhaustive: int = 20
    wall_clock_seconds: float | None = None

    def deadline(self) -> float | None:
        if self.wall_clock_seconds is None:
            return None
        return time.monotonic() + self.wall_clock_seconds


DEFAULT_BUDGET = SearchBudget()


class _ByteTable(dict):
    """Maps ``k << 8 | byte`` to ``join`` of the values of the byte's set
    bits, highest bit first. Bit ``7 - p`` of byte ``k`` has the value
    ``values[8 * k + p]``.

    Each entry is filled on first use, so a small family pays only for the
    bytes its members hold, and a large one looks each byte up once.
    """

    __slots__ = ("values", "join")

    def __init__(self, values, join):
        super().__init__()
        self.values = values
        self.join = join

    def __missing__(self, key):
        base = key >> 8 << 3
        entry = self[key] = self.join(
            compress(self.values[base:base + 8], _HIGH_FIRST[key & 255]))
        return entry


# the bits of each byte value, highest first
_HIGH_FIRST = [tuple(b >> (7 - p) & 1 for p in range(8)) for b in range(256)]


class ExtensionFamily:
    """A duplicate-free, canonically ordered collection of argument sets.

    Canonical order is lexicographic on the tuple of sorted member names,
    so identical inputs always serialize identically.

    The order is computed on integers. The arguments the members hold are
    relabelled by name order: the one of rank ``j`` (0 = smallest name)
    goes to bit ``W-1-j`` of a rank mask ``r``, where ``W`` is their number
    rounded up to whole bytes. A member's key is

        ``0 if r == 0 else r.bit_count() + (1 << W) - (r & -r) - r``

    which is its index in the lexicographic order of all sorted name tuples
    over those ``W`` ranks. The tuples before a nonempty member ``S`` are
    its ``|S|`` proper prefixes (``()`` included) and, for every rank ``c``
    missing from ``S`` but below its largest rank, the ``2^(W-1-c)`` tuples
    that follow ``S`` up to ``c``, take ``c`` next and go on freely above
    it. ``2^(W-1-c)`` is the bit of rank ``c``, and those bits are all the
    bits above ``r``'s lowest one that ``r`` lacks: ``2^W - lowbit(r) - r``.
    """

    __slots__ = ("members", "_masks", "framework", "_ranks", "_by_rank")

    def __init__(self, members):
        framework = None
        by_mask = {}
        for s in members:
            if framework is None:
                framework = s.framework
            elif s.framework is not framework:
                raise CrossFrameworkSet(
                    "family members belong to different frameworks")
            by_mask[s.mask] = s
        self.framework = framework
        self._masks = frozenset(by_mask)
        union = 0
        for m in by_mask:
            union |= m
        names = framework.names if framework is not None else ()
        self._by_rank = sorted(bits(union), key=names.__getitem__)
        width = -(-len(self._by_rank) // 8) * 8
        full = (1 << width) - (1 << (width - len(self._by_rank)))
        if len(by_mask) < 2:
            # nothing to order, and a lone member is the union
            self.members = tuple(by_mask.values())
            self._ranks = [full] * len(by_mask)
            return
        nbytes = (union.bit_length() + 7) // 8
        rank_bit = [0] * (8 * nbytes)
        for j, i in enumerate(self._by_rank):
            # the table keeps bit i % 8 of byte i // 8 at i ^ 7
            rank_bit[i ^ 7] = 1 << (width - 1 - j)
        # a member's rank mask is that of the union less the ranks of the
        # union's arguments it lacks, looked up a byte at a time over the
        # bytes the union uses (rank bits are distinct, so sums are unions);
        # members close to the union need few lookups
        table = _ByteTable(rank_bit, sum)
        used = [(k, k << 8)
                for k, b in enumerate(union.to_bytes(nbytes, "little")) if b]
        masks = list(by_mask)
        ranks = []
        for m in masks:
            raw = (union ^ m).to_bytes(nbytes, "little")
            r = full
            for k, key in used:
                if raw[k]:
                    r -= table[key | raw[k]]
            ranks.append(r)
        top = 1 << width
        keys = [r and r.bit_count() + top - (r & -r) - r for r in ranks]
        order = sorted(range(len(masks)), key=keys.__getitem__)
        self.members = tuple([by_mask[masks[i]] for i in order])
        self._ranks = [ranks[i] for i in order]

    def member_names(self):
        """Yield each member's names in name order, in the family's order.

        Reads each member's rank mask from the top byte down, through a
        table from byte position and value to the names of the set bits.
        """
        nbytes = -(-len(self._by_rank) // 8)
        # bit 7 - p of byte q from the top of a rank mask holds rank 8q + p
        by_rank = [self.framework.names[i] for i in self._by_rank]
        by_rank += [None] * (8 * nbytes - len(by_rank))
        table = _ByteTable(by_rank, tuple)
        for r in self._ranks:
            found = []
            for q, byte in enumerate(r.to_bytes(nbytes, "big")):
                if byte:
                    found += table[q << 8 | byte]
            yield found

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, s):
        return (isinstance(s, ArgumentSet)
                and s.framework is self.framework
                and s.mask in self._masks)

    def __eq__(self, other):
        if not isinstance(other, ExtensionFamily):
            return NotImplemented
        if len(self) == len(other) == 0:
            return True
        return self.framework is other.framework and self._masks == other._masks

    def __hash__(self):
        return hash((id(self.framework), self._masks))

    def __repr__(self):
        return "ExtensionFamily[%s]" % ", ".join(repr(m) for m in self.members)


def _prepare_space(af, space_mask, mode):
    """Shrink the search space; returns (candidate mask, forced mask)."""
    att = af.attacker_masks
    tgt = af.target_masks
    cand = space_mask
    for i in bits(space_mask):
        if att[i] >> i & 1:
            cand &= ~(1 << i)  # self-attackers are never conflict-free
    if mode == CONFLICT_FREE:
        return cand, 0
    forced = 0
    while True:
        changed = False
        # drop members with an attacker nobody in the space can answer
        dropping = True
        while dropping:
            dropping = False
            for i in bits(cand):
                for b in bits(att[i]):
                    if att[b] & cand == 0:
                        cand &= ~(1 << i)
                        dropping = changed = True
                        break
        if mode != ADMISSIBLE_MAX:
            return cand, 0
        # least fixed point of collective defence inside the space
        forced = 0
        while True:
            grown = forced
            for i in bits(cand & ~forced):
                if all(att[b] & forced for b in bits(att[i])):
                    grown |= 1 << i
            if grown == forced:
                break
            forced = grown
        conflicted = 0
        for i in bits(cand & ~forced):
            if (att[i] | tgt[i]) & forced:
                conflicted |= 1 << i
        if conflicted:
            cand &= ~conflicted
            changed = True
        if not changed:
            return cand, forced


def _product(factors, base, deadline):
    """Every union of ``base`` with one mask from each factor."""
    out = [base]
    # smallest factors first, so the list grows as late as possible
    for masks in sorted(factors, key=len):
        grown = []
        for n, a in enumerate(out):
            if deadline is not None and n & 1023 == 0:
                if time.monotonic() > deadline:
                    raise _kernels.DeadlineReached
            grown.extend([a | b for b in masks])
        out = grown
    return out


def _solve_space(af, space_mask, mode, budget):
    """Global masks of all qualifying subsets of ``space_mask``.

    For ``ADMISSIBLE_MAX`` these are the inclusion-maximal admissible ones.
    Each independent group of candidates is searched on its own, and the
    answer is the product of the groups' answers.
    """
    deadline = (budget or DEFAULT_BUDGET).deadline()
    cand, forced = _prepare_space(af, space_mask, mode)
    space = _kernels.LocalSpace(af, cand, mode != CONFLICT_FREE)
    forced_local = space.to_local(forced)
    maximal_only = mode == ADMISSIBLE_MAX
    factors = []
    try:
        for group in space.components(forced_local):
            pos_idx = list(bits(group & ~forced_local))
            suffix = [0] * (len(pos_idx) + 1)
            for d in range(len(pos_idx) - 1, -1, -1):
                suffix[d] = suffix[d + 1] | (1 << pos_idx[d])
            local_masks = _kernels.dfs_enumerate(
                group.bit_count(), pos_idx, suffix, group & forced_local,
                space, maximal_only, deadline)
            if maximal_only:
                local_masks = _subset_maximal_masks(local_masks)
            factors.append([space.to_global(lm) for lm in local_masks])
        return _product(factors, forced, deadline)
    except _kernels.DeadlineReached:
        raise BudgetExceeded(
            f"wall-clock ceiling of {budget.wall_clock_seconds}s exhausted"
        ) from None


def _subset_maximal_masks(masks):
    # a strict superset has strictly more bits, so candidates only need to
    # be tested against survivors from larger popcount groups
    groups = {}
    for m in set(masks):
        groups.setdefault(m.bit_count(), []).append(m)
    kept = []
    larger = []
    for pc in sorted(groups, reverse=True):
        survivors = [m for m in sorted(groups[pc])
                     if not any(m | k == k for k in larger)]
        kept.extend(survivors)
        larger = kept[:]
    return kept


def _space_of(af, within):
    if within is None:
        return af.full_mask
    if within.framework is not af:
        raise CrossFrameworkSet("set belongs to a different framework")
    return within.mask


def conflict_free_sets(af: ArgumentationFramework, within: ArgumentSet = None,
                       budget: SearchBudget = None) -> ExtensionFamily:
    """Every conflict-free subset of ``within`` (default: all arguments)."""
    space = _space_of(af, within)
    masks = _solve_space(af, space, CONFLICT_FREE, budget)
    return ExtensionFamily(ArgumentSet(af, m) for m in masks)


def admissible_sets(af: ArgumentationFramework, within: ArgumentSet = None,
                    budget: SearchBudget = None) -> ExtensionFamily:
    """Every admissible subset of ``within`` (default: all arguments)."""
    space = _space_of(af, within)
    masks = _solve_space(af, space, ADMISSIBLE_ALL, budget)
    return ExtensionFamily(ArgumentSet(af, m) for m in masks)


def restrictedly_admissible_sets(af: ArgumentationFramework, p: Partition,
                                 budget: SearchBudget = None) -> ExtensionFamily:
    """Every restrictedly admissible subset of the focus."""
    masks = _solve_space(af, _space_of(af, p.focus), ADMISSIBLE_ALL, budget)
    # the masks are the admissible subsets of the focus; what is left is
    # that each restricted member individually defends an unrestricted
    # one, and a member's defender walk is the same in every set
    u, r = p.unrestricted.mask, p.restricted.mask
    used = 0
    for m in masks:
        used |= m
    defended = {x: _parity_reachable(af.target_masks, x)
                for x in bits(used & r)}
    return ExtensionFamily(
        ArgumentSet(af, m) for m in masks
        if all(defended[x] & m & u for x in bits(m & r)))


def preferred_extensions(af: ArgumentationFramework,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """The inclusion-maximal admissible sets (always at least one)."""
    return preferred_extensions_on(af, af.full_set(), budget)


def preferred_extensions_on(af: ArgumentationFramework, x: ArgumentSet,
                            budget: SearchBudget = None) -> ExtensionFamily:
    """The inclusion-maximal admissible subsets of ``x``.

    Note this is genuinely different from intersecting the preferred
    extensions with ``x``: a defender outside ``x`` does not count.
    """
    masks = _solve_space(af, _space_of(af, x), ADMISSIBLE_MAX, budget)
    return ExtensionFamily(ArgumentSet(af, m) for m in masks)


def minimize_restricted(af: ArgumentationFramework, p: Partition,
                        e: ArgumentSet, budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible shrinkings of ``e`` that keep its unrestricted part.

    Every result is ``e_u`` plus a subset of ``e_r`` that is minimal for
    inclusion among those keeping the whole set admissible. ``e`` itself
    qualifies as a support, so the family is never empty.
    """
    if e.framework is not af:
        raise CrossFrameworkSet("set belongs to a different framework")
    if e.mask & ~p.focus.mask:
        raise PreconditionViolated("set must lie within the partition's focus")
    if not is_admissible(af, e):
        raise PreconditionViolated("set must be admissible")
    deadline = (budget or DEFAULT_BUDGET).deadline()
    att = af.attacker_masks
    emask = e.mask
    eu = emask & p.unrestricted.mask

    def unmet(members, inc):
        # e is conflict-free, so only defence matters: each attacker b of a
        # member is an obligation, met by any member in att[b] & e
        return [att[b] & emask for x in bits(members) for b in bits(att[x])
                if not att[b] & inc]

    leaves = []
    ticks = 0
    # depth-first over (included, excluded, unmet obligations); a child
    # includes one answerer of the first unmet obligation, and siblings to
    # its right exclude it
    stack = [(eu, 0, unmet(eu, eu))]
    while stack:
        if deadline is not None and ticks & 255 == 0:
            if time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"wall-clock ceiling of {budget.wall_clock_seconds}s exhausted")
        ticks += 1
        inc, excluded, pending = stack.pop()
        r = inc & ~eu
        if any(leaf | r == r for leaf in leaves):
            continue  # contains a recorded support, so is not minimal
        if not pending:
            leaves.append(r)
            continue
        children = []
        for c in bits(pending[0] & ~excluded):
            bit = 1 << c
            grown = inc | bit
            left = [m for m in pending if not m & bit] + unmet(bit, grown)
            children.append((grown, excluded, left))
            excluded |= bit
        stack.extend(reversed(children))
    # a leaf found early may still contain one found later
    minimal = [m for m in leaves
               if not any(o != m and o | m == m for o in leaves)]
    return ExtensionFamily(ArgumentSet(af, eu | m) for m in minimal)


def min_def_extensions(af: ArgumentationFramework, p: Partition,
                       budget: SearchBudget = None) -> ExtensionFamily:
    """The preference-maximal restrictedly admissible sets.

    Two-step computation: take the preferred extensions on the focus whose
    unrestricted part is inclusion-maximal, minimize each one's restricted
    part, and keep the candidates no other candidate strictly improves on.
    """
    budget = budget or DEFAULT_BUDGET
    deadline = budget.deadline()

    def remaining():
        # each step gets only what is left of the request's one deadline
        if deadline is None:
            return budget
        left = deadline - time.monotonic()
        if left <= 0:
            raise BudgetExceeded
        return SearchBudget(budget.max_arguments_for_exhaustive, left)

    try:
        u = p.unrestricted.mask
        prefs = _solve_space(af, _space_of(af, p.focus), ADMISSIBLE_MAX,
                             remaining())
        max_u = set(_subset_maximal_masks([m & u for m in prefs]))
        candidates = []
        for m in prefs:
            if m & u in max_u:
                supports = minimize_restricted(af, p, ArgumentSet(af, m),
                                               remaining())
                candidates.extend(s.mask for s in supports)
        kept = _least_restricted(p, candidates, deadline)
    except BudgetExceeded:
        # only the clock refuses here: report the request's ceiling, not
        # the slice a step was handed
        raise BudgetExceeded(
            f"wall-clock ceiling of {budget.wall_clock_seconds}s exhausted"
        ) from None
    return ExtensionFamily(ArgumentSet(af, m) for m in kept)


def _least_restricted(p, candidates, deadline):
    """The candidate masks no other candidate strictly improves on.

    This is ``filter_maximal(..., order="prec")`` for min-def's candidates,
    in one pass. Each candidate's unrestricted part is inclusion-maximal
    among those of the preferred extensions on the focus, so two
    candidates' unrestricted parts are either equal or incomparable. The
    preference order looks at restricted parts only when the unrestricted
    parts are equal, so a candidate is dominated exactly when another with
    the same unrestricted part has a strictly smaller restricted part.
    Grouping by unrestricted part and keeping each group's subset-minimal
    restricted parts therefore keeps exactly the undominated candidates.

    Each support is minimal among all admissible shrinkings of its own
    preferred extension, and a smaller restricted part with the same
    unrestricted part found in another branch would be one of them; so this
    pass drops only duplicates in practice. It checks anyway, so that the
    answer does not rest on that argument.
    """
    u, r = p.unrestricted.mask, p.restricted.mask
    groups = {}
    for m in candidates:
        groups.setdefault(m & u, set()).add(m & r)
    kept = []
    ticks = 0
    for eu, parts in groups.items():
        minimal = []
        # a strict subset has fewer bits, so it is kept before its supersets
        for part in sorted(parts, key=int.bit_count):
            if deadline is not None and ticks & 255 == 0:
                if time.monotonic() > deadline:
                    raise BudgetExceeded
            ticks += 1
            if not any(k | part == part for k in minimal):
                minimal.append(part)
        kept.extend(eu | part for part in minimal)
    return kept


def filter_maximal(family: ExtensionFamily, order: str = "subset",
                   partition: Partition = None) -> ExtensionFamily:
    """Members of ``family`` not strictly dominated by another member.

    ``order`` is ``"subset"`` (inclusion) or ``"prec"`` (the partition's
    preference order; requires ``partition``, and every member must lie
    within its focus).
    """
    if order == "subset":
        kept = _subset_maximal_masks([s.mask for s in family])
        return ExtensionFamily(ArgumentSet(family.framework, m) for m in kept)
    if order != "prec":
        raise ValueError(f"unknown order {order!r}")
    if partition is None:
        raise ValueError("prec order needs a partition")
    p = partition
    if family.framework is not None and family.framework is not p.framework:
        raise CrossFrameworkSet("family and partition belong to different frameworks")
    for s in family:
        if s.mask & ~p.focus.mask:
            raise NotWithinFocus(f"family member {s!r} is not within the focus")
    # dominators always rank higher under (|unrestricted|, -|restricted|)
    masks = sorted({s.mask for s in family},
                   key=lambda m: (-(m & p.unrestricted.mask).bit_count(),
                                  (m & p.restricted.mask).bit_count(), m))
    kept = []
    for m in masks:
        if not any(prec_order(p, m, k) is BETTER for k in kept):
            kept.append(m)
    return ExtensionFamily(ArgumentSet(p.framework, m) for m in kept)


def credulous_accepted(af: ArgumentationFramework, family: ExtensionFamily,
                       a) -> bool:
    """True iff ``a`` belongs to at least one member of ``family``."""
    if len(family) == 0:
        raise EmptyFamily("acceptance query against an empty family")
    if family.framework is not af:
        raise CrossFrameworkSet("family belongs to a different framework")
    bit = 1 << af.index(a)
    return any(s.mask & bit for s in family)


def skeptical_accepted(af: ArgumentationFramework, family: ExtensionFamily,
                       a) -> bool:
    """True iff ``a`` belongs to every member of ``family``."""
    if len(family) == 0:
        raise EmptyFamily("acceptance query against an empty family")
    if family.framework is not af:
        raise CrossFrameworkSet("family belongs to a different framework")
    bit = 1 << af.index(a)
    return all(s.mask & bit for s in family)
