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
admissible supports; a final strict-preference filter removes candidates
dominated across branches. The whole pipeline shares one wall-clock
deadline.

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

from . import _kernels
from .errors import (BudgetExceeded, CrossFrameworkSet, EmptyFamily,
                     NotWithinFocus, PreconditionViolated)
from .model import ArgumentationFramework, ArgumentSet, Partition, bits
from .semantics import (BETTER, is_admissible, is_restrictedly_admissible,
                        prec_order)

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


class ExtensionFamily:
    """A duplicate-free, canonically ordered collection of argument sets.

    Canonical order is lexicographic on the tuple of sorted member names,
    so identical inputs always serialize identically.
    """

    __slots__ = ("members", "_masks", "framework")

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
        self.members = tuple(sorted(by_mask.values(),
                                    key=lambda s: tuple(sorted(s.names))))
        self._masks = frozenset(by_mask)

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


def _components(space, forced):
    """Local masks of the space's independent groups of members.

    Members are linked, both ways, to their conflicts and to the answerers
    of their attackers, so no two groups share a conflict or an obligation.
    Groups made only of ``forced`` members are left out.
    """
    link = list(space.conflict)
    ob_off, ob_masks = space.ob_off, space.ob_masks
    for i in range(len(link)):
        for t in range(ob_off[i], ob_off[i + 1]):
            m = ob_masks[t]
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
        for group in _components(space, forced_local):
            pos_idx = list(bits(group & ~forced_local))
            suffix = [0] * (len(pos_idx) + 1)
            for d in range(len(pos_idx) - 1, -1, -1):
                suffix[d] = suffix[d + 1] | (1 << pos_idx[d])
            local_masks = _kernels.dfs_enumerate(
                group.bit_count(), pos_idx, suffix, group & forced_local,
                space.conflict, space.ob_off, space.ob_masks, maximal_only,
                deadline)
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
    members = (ArgumentSet(af, m) for m in masks)
    return ExtensionFamily(s for s in members
                           if is_restrictedly_admissible(af, p, s))


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
        prefs = preferred_extensions_on(af, p.focus, remaining())
        u_masks = [s.mask & p.unrestricted.mask for s in prefs]
        max_u = _subset_maximal_masks(u_masks)
        candidates = []
        for s in prefs:
            if s.mask & p.unrestricted.mask in max_u:
                candidates.extend(minimize_restricted(af, p, s, remaining()))
    except BudgetExceeded:
        # only the clock refuses here: report the request's ceiling, not
        # the slice a step was handed
        raise BudgetExceeded(
            f"wall-clock ceiling of {budget.wall_clock_seconds}s exhausted"
        ) from None
    return filter_maximal(ExtensionFamily(candidates), order="prec", partition=p)


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
