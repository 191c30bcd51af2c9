"""Extension enumeration: preferred, preferred-on-a-set, and min-def.

The solver searches the candidate arguments with the one tree kernel,
which branches on the most constrained defence obligation (see
:mod:`mindef._kernels`). Before searching it shrinks the problem:

* self-attackers are dropped, then the members that can never be defended
  inside the search space, to the greatest fixed point. A work list holds
  the attackers to test: first every attacker of a candidate, then only
  the targets of the members just dropped, the only attackers a drop can
  leave unanswered. An attacker that nobody left answers drops its
  targets. Dropping a member never gives an attacker an answerer, so any
  order of the tests drops the same members;
* for maximality searches, the "forced core" - the least fixed point of
  collective defence inside the space - is then computed once and included
  up front. It grows from the unattacked members: a candidate joins once
  the core attacks all its attackers, so only the targets of newly
  defeated attackers are tested again. Joining never undoes a defeat, so
  the order of the joins does not change the core either, and each
  argument's targets are walked at most once by each list. Every maximal
  admissible subset of the space provably contains the core, so this
  prunes without losing solutions. No member left conflicts
  with it: one that attacks a core member is attacked by a core member, and
  one attacked by a core member has an answerer of it left, which is itself
  attacked by a core member that joined the core earlier; by induction on
  the joining order, neither can survive the drop. So nothing needs
  dropping or recomputing after the core. Both lists read the ceiling once
  per round;
* the candidates are split into independent groups, linking each member
  both ways to the members it conflicts with and to the answerers of its
  attackers. No two groups share a conflict or a defence obligation, so a
  set qualifies exactly when its part in every group does, and (for
  maximality) is maximal exactly when every part is. Each group gets its
  own tree search, maximal searches keep each group's inclusion-maximal
  sets, and the family holds the groups' answers, forced members
  included, as the factors of a product (see :class:`ExtensionFamily`);
  the forced members that share no group with a candidate form one more
  factor of one mask. Counts, membership and acceptance are read from the
  factors; the product is built and ordered only when the members are
  read, under what the request's ceiling left.

Min-def extensions are computed by a two-step pipeline, one factor of the
preferred extensions on the focus at a time: keep the factor's masks whose
unrestricted part is maximal, then shrink each one's restricted part to
all its minimal admissible supports. The factor's distinct supports are
its answer, and the family is their product; no pass over the whole
family follows (see :func:`min_def_extensions`). Every step reads the
request's one started wall-clock ceiling.

The shrinking step is the tree kernel's minimal mode. A candidate is
conflict-free, so any subset is too and only defence matters: each attacker
of a member is an *obligation*, met by the members that attack it. A
minimal support is a minimal set of restricted members that meets every
obligation of the unrestricted part and of the restricted members it takes
in (a minimal transversal, closed under the obligations it brings). The
kernel runs over the framework's own masks, where an attacker's index is
its obligation bit, so the included members' unmet obligations are their
attackers less their targets. It starts from the unrestricted part and
branches only on the restricted answerers still free to join of the unmet
attacker that has the fewest, excluding each answerer from the branches
after its own; a branch whose restricted part already contains a found
support is cut, and a last pass, which reads the ceiling too, keeps the
inclusion-minimal leaves.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import prod
from operator import or_
from types import SimpleNamespace

from . import _kernels
from .errors import (CrossFrameworkSet, EmptyFamily, NotWithinFocus,
                     PreconditionViolated)
from .model import ArgumentationFramework, ArgumentSet, Partition, bits
from .semantics import BETTER, _parity_reachable, is_admissible, prec_order

CONFLICT_FREE = "conflict-free"
ADMISSIBLE_ALL = "admissible-all"
ADMISSIBLE_MAX = "admissible-max"


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a single solver or oracle invocation.

    ``max_arguments_for_exhaustive`` caps the exhaustive (oracle) search
    space; exceeding it is a hard error, never a truncated answer.
    ``deadline()`` starts the wall-clock ceiling, a
    :class:`mindef._kernels.Ceiling` (without one, ``_kernels.UNBOUNDED``,
    which never expires). A request starts it once and hands it to every
    step that reads the clock: the space preparation, the tree search,
    the oracle's scan, the passes over the scanned sets and the maximality
    pass, each of min-def's steps, and the building and ordering of a
    returned family's members on first use. Each raises
    :class:`BudgetExceeded` once the ceiling has passed; the CLI's
    default oracle cap is this class's ``max_arguments_for_exhaustive``.
    Either limit set to NaN raises ``ValueError``: no comparison with NaN
    is true, so it would never refuse.
    """

    max_arguments_for_exhaustive: int = 20
    wall_clock_seconds: float | None = None

    def __post_init__(self):
        for name in ("max_arguments_for_exhaustive", "wall_clock_seconds"):
            value = getattr(self, name)
            if value != value:
                raise ValueError(f"{name} must not be NaN")

    def deadline(self) -> _kernels.Ceiling:
        if self.wall_clock_seconds is None:
            return _kernels.UNBOUNDED
        return _kernels.Ceiling(self.wall_clock_seconds)


DEFAULT_BUDGET = SearchBudget()


# members per block when a family's members are written out; a block's
# fragment columns and strings are all that rendering holds at once
_RENDER_BLOCK = 1 << 12


class _Fragments(dict):
    """One byte position of the rank masks: maps a byte value to the
    concatenation of the pieces of its set bits, highest bit first (name
    order). ``pieces[t]`` is the piece of bit ``t``.

    Each entry is filled on first use, from the entry without its lowest
    bit, so a small family pays only for the bytes its members hold, and a
    large one looks each byte up once.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces, empty):
        super().__init__({0: empty})
        self.pieces = pieces

    def __missing__(self, byte):
        low = byte & -byte
        entry = self[byte] = (self[byte ^ low]
                              + self.pieces[low.bit_length() - 1])
        return entry


class ExtensionFamily:
    """A duplicate-free, canonically ordered collection of argument sets.

    Canonical order is lexicographic on the tuple of sorted member names,
    so identical inputs always serialize identically.

    A family is held in product form: a list of factors, each a list of
    masks over arguments no other factor uses. Its members are the unions
    of one mask from each factor. The solver hands back one factor per
    independent group of its search space; a family built from a list of
    sets (``ExtensionFamily(sets)``) is the one-factor case. ``len``,
    ``in`` and the acceptance queries read the factors and never build the
    product. The order, ``members`` and ``member_names()`` are computed on
    first use; equality and hashing compare the ordered ``members``, so
    equal families are equal whatever their factoring. A family returned
    under a wall-clock ceiling may spend on that first use what the
    ceiling had left when the family was returned, and raises
    :class:`BudgetExceeded` past it.

    The order is computed on integers. The arguments the members hold are
    relabelled by name order: the one of rank ``j`` (0 = smallest name)
    goes to bit ``W-1-j`` of a rank mask ``r``, where ``W`` is their number
    rounded up to whole bytes. Each factor's masks are ranked once,
    argument by argument, and a member's rank mask is the union of its
    parts' rank masks. A member's index in the lexicographic order of all
    sorted name tuples over those ``W`` ranks is

        ``index(r) = 0 if r == 0 else |r| + 2^W - lowbit(r) - r``

    where ``|r|`` counts its bits. The tuples before a nonempty member
    ``S`` are its ``|S|`` proper prefixes (``()`` included) and, for every
    rank ``c`` missing from ``S`` but below its largest rank, the
    ``2^(W-1-c)`` tuples that follow ``S`` up to ``c``, take ``c`` next and
    go on freely above it. ``2^(W-1-c)`` is the bit of rank ``c``, and
    those bits are all the bits above ``r``'s lowest one that ``r`` lacks:
    ``2^W - lowbit(r) - r``.

    The members are ordered by one sort of plain ints, their codes
    ``index(r) << W | r``: the indices are distinct and ``r < 2^W``, so the
    codes sort as the indices, and their low ``W`` bits give the rank masks
    back. The codes of a product are built with no step per member
    (:func:`_member_codes`), because they add up over the factors within
    each group of members that share their lowest bit ``L``. The factors
    use disjoint ranks, so a member's parts ``m`` sum to ``r`` and their
    counts to ``|r|``. In the group, ``lowbit(r) = L`` is the same for
    every member: the factor holding ``L`` gives a part whose own lowest
    bit is ``L``, and every other factor a part with no bit below ``L``
    (possibly empty), and every such choice is a member of the group. So
    ``index(r) = (2^W - L) + sum(|m| - m)``, and the code is the sum of
    ``(2^W - L) << W`` and each part's own ``((|m| - m) << W) + m``: the
    group is the product of the parts' codes under ``+``. The empty member,
    the one member without a lowest bit, has code 0.

    Names are read off the ordered rank masks a block of at most
    ``_RENDER_BLOCK`` members at a time (:meth:`fragment_blocks`). Byte
    ``q`` from the top of a rank mask holds ranks ``8q..8q+7``, so one
    table per byte position maps a byte value to its set bits' formatted
    names, already concatenated; a block is one column of such fragments
    per byte position. Rendering, :meth:`member_names` and ``members`` all
    read these blocks; the first two hold one block at a time, whatever the
    family's size.
    """

    __slots__ = ("framework", "_factors", "_limit", "_parts",
                 "_by_rank", "_ranks", "_members")

    def __init__(self, members):
        framework = None
        masks = set()
        for s in members:
            if framework is None:
                framework = s.framework
            elif s.framework is not framework:
                raise CrossFrameworkSet(
                    "family members belong to different frameworks")
            masks.add(s.mask)
        self._setup(framework, [list(masks)], _kernels.UNBOUNDED)

    @classmethod
    def _product_of(cls, framework, factors, deadline=_kernels.UNBOUNDED):
        """The family of the unions of one mask from each factor.

        The factors' masks must be distinct within a factor and use
        arguments disjoint from every other factor's. The lazy work may
        take what is left of the started ceiling.
        """
        family = cls.__new__(cls)
        family._setup(framework, factors, deadline)
        return family

    def _setup(self, framework, factors, deadline):
        self.framework = framework
        self._factors = factors
        self._limit = (deadline.seconds, deadline.left())
        self._parts = self._ranks = self._members = None

    def _deadline(self):
        # the lazy work's ceiling: what the request's had left
        return _kernels.Ceiling(*self._limit)

    def _factor_parts(self):
        """Per factor: the union, the intersection and the set of its masks."""
        if self._parts is None:
            parts = []
            for masks in self._factors:
                span = 0
                common = -1
                for m in masks:
                    span |= m
                    common &= m
                parts.append((span, common & span, frozenset(masks)))
            self._parts = parts
        return self._parts

    def _ordered(self):
        """The members' rank masks in canonical order, computed once."""
        if self._ranks is None:
            if len(self) > _kernels.MAX_SETS:
                raise _kernels.too_many_sets()
            union = reduce(or_, chain.from_iterable(self._factors), 0)
            names = self.framework.names if self.framework else ()
            by_rank = sorted(bits(union), key=names.__getitem__)
            width = -(-len(by_rank) // 8) * 8
            if len(self) == 1:
                # a lone member holds every rank
                ranks = [(1 << width) - (1 << (width - len(by_rank)))]
            else:
                rank_bit = [0] * union.bit_length()
                for j, i in enumerate(by_rank):
                    rank_bit[i] = 1 << (width - 1 - j)

                def rank(m):
                    return sum(map(rank_bit.__getitem__, bits(m)))

                # the codes read the ceiling first, after the ranking, and
                # it is read again after the sort
                deadline = self._deadline()
                codes = _member_codes([[rank(m) for m in masks]
                                       for masks in self._factors],
                                      width, deadline)
                codes.sort()
                deadline.check()
                below = (1 << width) - 1
                ranks = [v & below for v in codes]
            self._by_rank = by_rank
            self._ranks = ranks
        return self._ranks

    @property
    def members(self):
        """The members as a tuple of :class:`ArgumentSet`, in order.

        Reads :meth:`fragment_blocks` with each name's argument bit as its
        piece, so a member's fragments sum to its mask.
        """
        if self._members is None:
            af = self.framework
            self._members = tuple([
                ArgumentSet(af, sum(fragments))
                for block in self.fragment_blocks(
                    lambda name: 1 << af.index_of[name], 0)
                for fragments in block])
        return self._members

    def fragment_blocks(self, piece, empty=""):
        """The members in order, at most ``_RENDER_BLOCK`` at a time.

        Each block is an iterable of one tuple per member; the tuple's
        items concatenate to the ``piece(name)`` of the member's names, in
        name order, and ``empty`` is the concatenation of no pieces. The
        members are ordered before this returns, so a refusal comes before
        the first block. A lone member is read from the names of the
        factors' union; otherwise each byte of a rank mask, from the top,
        is looked up in its position's :class:`_Fragments` table.
        """
        ranks = self._ordered()
        names = self.framework.names if self.framework else ()
        pieces = [piece(names[i]) for i in self._by_rank]
        if len(ranks) == 1:
            return iter([[tuple(pieces)]])
        return self._blocks(ranks, pieces, empty)

    @staticmethod
    def _blocks(ranks, pieces, empty):
        nbytes = -(-len(pieces) // 8)
        pieces += [empty] * (8 * nbytes - len(pieces))
        # bit 7 - p of byte q from the top of a rank mask holds rank 8q + p
        tables = [_Fragments(pieces[8 * q:8 * q + 8][::-1], empty)
                  for q in range(nbytes)]
        for start in range(0, len(ranks), _RENDER_BLOCK):
            packed = b"".join([r.to_bytes(nbytes, "big")
                            for r in ranks[start:start + _RENDER_BLOCK]])
            yield zip(*[map(table.__getitem__, packed[q::nbytes])
                        for q, table in enumerate(tables)])

    def member_names(self):
        """Yield each member's names in name order, in the family's order.

        Reads :meth:`fragment_blocks` with each name as its own piece.
        """
        for block in self.fragment_blocks(lambda name: (name,), ()):
            for fragments in block:
                yield list(chain.from_iterable(fragments))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return prod(map(len, self._factors))

    def __contains__(self, s):
        if not (isinstance(s, ArgumentSet) and s.framework is self.framework):
            return False
        m = s.mask
        # the part in each factor's arguments must be one of its masks
        for span, _, masks in self._factor_parts():
            if m & span not in masks:
                return False
            m &= ~span
        return m == 0

    def __eq__(self, other):
        if not isinstance(other, ExtensionFamily):
            return NotImplemented
        return len(self) == len(other) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "ExtensionFamily[%s]" % ", ".join(repr(m) for m in self.members)


def _prepare_space(af, space_mask, mode, deadline=_kernels.UNBOUNDED):
    """Shrink the search space; returns (candidate mask, forced mask).

    The drop and the core are work lists over the attacker and target
    masks (see the module docstring), so each visits an argument's targets
    at most once. The ceiling is read once per round of either.
    """
    att = af.attacker_masks
    tgt = af.target_masks
    cand = space_mask
    todo = unattacked = 0
    for i in bits(space_mask):
        attackers = att[i]
        if attackers >> i & 1:
            cand ^= 1 << i  # self-attackers are never conflict-free
        elif attackers:
            todo |= attackers
        else:
            unattacked |= 1 << i
    if mode == CONFLICT_FREE:
        return cand, 0
    # drop the targets of every attacker nobody left in the space answers;
    # only a dropped member's targets can lose their last answerer
    while todo:
        deadline.check()
        dropped = 0
        for b in bits(todo):
            if not att[b] & cand:
                hit = tgt[b] & cand
                dropped |= hit
                cand ^= hit
        todo = 0
        for i in bits(dropped):
            todo |= tgt[i]
    if mode != ADMISSIBLE_MAX:
        return cand, 0
    # grow the core from the unattacked members; only the targets of
    # newly defeated attackers can have become defended
    forced = defeated = 0
    joining = unattacked
    while joining:
        deadline.check()
        forced |= joining
        beaten = 0
        for i in bits(joining):
            beaten |= tgt[i]
        beaten &= ~defeated
        defeated |= beaten
        retest = 0
        for b in bits(beaten):
            retest |= tgt[b]
        joining = 0
        for i in bits(retest & cand & ~forced):
            if not att[i] & ~defeated:
                joining |= 1 << i
    return cand, forced


def _product(factors, deadline):
    """Every union of one mask from each factor."""
    if prod(map(len, factors)) > _kernels.MAX_SETS:
        raise _kernels.too_many_sets()
    out = [0]
    # smallest factors first, so the list grows as late as possible
    for masks in sorted(factors, key=len):
        deadline.check()
        out = [a | b for b in masks for a in out]
    return out


# a family of at most this many members is ordered as one factor, its
# product; grouping by lowest bit pays off only above it
_MULTIPLY_OUT = 128


def _member_codes(factors, width, deadline):
    """The code of every union of one rank mask from each factor, unsorted.

    The factors hold rank masks of ``width`` bits over disjoint ranks. A
    member ``r``'s code is ``index(r) << width | r``, ``index(r)`` being
    its canonical index; :class:`ExtensionFamily` shows that the codes add
    up over the factors among the members that share their lowest bit. A
    lone factor's masks, and the members of a small product, are coded one
    by one. The ceiling is read first, then per group and per factor step.
    """
    top = 1 << width
    deadline.check()
    if len(factors) > 1 and prod(map(len, factors)) <= _MULTIPLY_OUT:
        factors = [_product(factors, deadline)]
    if len(factors) == 1:
        return [(r and r.bit_count() + top - (r & -r) - r) << width | r
                for r in factors[0]]
    # per factor: its masks' lowest bits, the empty mask's as top, and
    # their codes, in ascending order of lowest bit
    tables = []
    for masks in factors:
        masks = sorted(masks, key=lambda r: r & -r or top)
        tables.append(([r & -r or top for r in masks],
                       [((r.bit_count() - r) << width) + r for r in masks]))
    # the empty member, when every factor has the empty mask
    out = [0] if all(lows and lows[-1] == top for lows, _ in tables) else []
    for f, (lows, codes) in enumerate(tables):
        for low in dict.fromkeys(lows):
            if low == top:
                break
            deadline.check()
            # each other factor's masks with no bit at or below this one
            tails = [theirs[bisect_right(their_lows, low):]
                     for g, (their_lows, theirs) in enumerate(tables)
                     if g != f]
            seed = (top - low) << width
            group = [seed + c for c in
                     codes[bisect_left(lows, low):bisect_right(lows, low)]]
            for tail in sorted(tails, key=len):
                if tail != [0]:  # the empty mask alone adds nothing
                    deadline.check()
                    group = [a + b for b in tail for a in group]
            out += group
    return out


def _solve_space(af, space_mask, mode, deadline):
    """Per independent group of the space, the masks of its answers.

    The qualifying subsets of ``space_mask`` are the unions of one mask
    from each factor; for ``ADMISSIBLE_MAX`` these are the
    inclusion-maximal admissible ones. Each group is searched on its own,
    and its masks hold its forced members. The forced members that share
    no group with a candidate form one more factor of one mask, when there
    are any.
    """
    cand, forced = _prepare_space(af, space_mask, mode, deadline)
    space = _kernels.LocalSpace(af, cand, mode != CONFLICT_FREE)
    forced_local = space.to_local(forced)
    maximal_only = mode == ADMISSIBLE_MAX
    factors = []
    alone = forced_local
    for group in space.components(forced_local):
        free = group & ~forced_local
        local_masks = _kernels.dfs_enumerate(
            group.bit_count(), list(bits(free)), (free,),
            group & forced_local, space, maximal_only, deadline)
        if maximal_only:
            local_masks = _subset_maximal_masks(local_masks, deadline)
        factors.append([space.to_global(lm) for lm in local_masks])
        alone &= ~group
    if alone:
        factors.append([space.to_global(alone)])
    return factors


def _subset_maximal_masks(masks, deadline=_kernels.UNBOUNDED):
    # the maximal masks are the complements, within the masks' union, of
    # the minimal complements
    union = reduce(or_, masks, 0)
    return [union ^ c for c in _subset_minimal_masks(
        [union ^ m for m in masks], deadline)]


def _subset_minimal_masks(masks, deadline=_kernels.UNBOUNDED):
    # each distinct mask once; a strict subset has strictly fewer bits, so a
    # mask is tested only against survivors of smaller popcounts; the
    # deadline is read every 256 masks
    layers = {}
    for m in set(masks):
        layers.setdefault(m.bit_count(), []).append(m)
    kept = []
    ticks = 0
    for pc in sorted(layers):
        survivors = []
        for m in layers[pc]:
            if ticks & 255 == 0:
                deadline.check()
            ticks += 1
            if not any(k | m == m for k in kept):
                survivors.append(m)
        kept += survivors
    return kept


def _space_of(af, within):
    if within is None:
        return af.full_mask
    if within.framework is not af:
        raise CrossFrameworkSet("set belongs to a different framework")
    return within.mask


def _solved(af, space_mask, mode, budget):
    """The family of ``_solve_space``'s answers, in product form."""
    deadline = (budget or DEFAULT_BUDGET).deadline()
    return ExtensionFamily._product_of(
        af, _solve_space(af, space_mask, mode, deadline), deadline)


def conflict_free_sets(af: ArgumentationFramework, within: ArgumentSet = None,
                       budget: SearchBudget = None) -> ExtensionFamily:
    """Every conflict-free subset of ``within`` (default: all arguments)."""
    return _solved(af, _space_of(af, within), CONFLICT_FREE, budget)


def admissible_sets(af: ArgumentationFramework, within: ArgumentSet = None,
                    budget: SearchBudget = None) -> ExtensionFamily:
    """Every admissible subset of ``within`` (default: all arguments)."""
    return _solved(af, _space_of(af, within), ADMISSIBLE_ALL, budget)


def restrictedly_admissible_sets(af: ArgumentationFramework, p: Partition,
                                 budget: SearchBudget = None) -> ExtensionFamily:
    """Every restrictedly admissible subset of the focus."""
    deadline = (budget or DEFAULT_BUDGET).deadline()
    # the admissible subsets of the focus; what is left is that each
    # restricted member individually defends an unrestricted one, and a
    # member's defender walk is the same in every set
    factors = _solve_space(af, _space_of(af, p.focus), ADMISSIBLE_ALL,
                           deadline)
    u, r = p.unrestricted.mask, p.restricted.mask
    spans = [reduce(or_, masks, 0) for masks in factors]
    used = reduce(or_, spans, 0)
    defended = {x: _parity_reachable(af.target_masks, x)
                for x in bits(used & r)}
    # the test reads one factor's part alone unless some restricted member
    # defends a member of another factor; then it reads whole sets
    if any(defended[x] & used & ~span
           for span in spans for x in bits(span & r)):
        factors = [_product(factors, deadline)]
    factors = [[m for m in masks
                if all(defended[x] & m & u for x in bits(m & r))]
               for masks in factors]
    return ExtensionFamily._product_of(af, factors, deadline)


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
    return _solved(af, _space_of(af, x), ADMISSIBLE_MAX, budget)


def minimize_restricted(af: ArgumentationFramework, p: Partition,
                        e: ArgumentSet,
                        budget: SearchBudget | _kernels.Ceiling = None
                        ) -> ExtensionFamily:
    """All admissible shrinkings of ``e`` that keep its unrestricted part.

    Every result is ``e_u`` plus a subset of ``e_r`` that is minimal for
    inclusion among those keeping the whole set admissible. ``e`` itself
    qualifies as a support, so the family is never empty. ``budget`` may
    also be an already started ceiling, which the search then shares.
    """
    if e.framework is not af or p.framework is not af:
        raise CrossFrameworkSet(
            "set and partition must belong to the framework")
    if e.mask & ~p.focus.mask:
        raise PreconditionViolated("set must lie within the partition's focus")
    if not is_admissible(af, e):
        raise PreconditionViolated("set must be admissible")
    deadline = (budget or DEFAULT_BUDGET).deadline()
    emask = e.mask
    eu = emask & p.unrestricted.mask
    er = emask ^ eu
    # the kernel's minimal mode over the framework's own masks: an
    # attacker's index is its obligation bit, and e is conflict-free, so no
    # member of it blocks another and its targets may stand for conflicts
    att = af.attacker_masks
    tgt = af.target_masks
    layout = SimpleNamespace(conflict=tgt, owes=att, answers=tgt,
                             answerers=att)
    leaves = _kernels.dfs_enumerate(emask.bit_count(), list(bits(er)), (er,),
                                    eu, layout, _kernels.MINIMAL, deadline)
    # a leaf found early may still contain one found later
    minimal = _subset_minimal_masks(leaves, deadline)
    return ExtensionFamily._product_of(af, [[eu | r for r in minimal]],
                                       deadline)


def min_def_extensions(af: ArgumentationFramework, p: Partition,
                       budget: SearchBudget = None) -> ExtensionFamily:
    """The preference-maximal restrictedly admissible sets.

    Two-step computation on each factor of the preferred extensions on the
    focus: keep the masks whose unrestricted part is inclusion-maximal
    within the factor, and minimize each one's restricted part; the
    factor's answer is the set of their supports.

    The factors' groups share no conflict or obligation, so three things
    hold group by group: a product member's unrestricted part is maximal
    exactly when every factor's part is; its minimal supports are the
    product of its parts' supports; and a support is dominated exactly when
    its part in one factor is dominated there. Inside a factor, the kept
    unrestricted parts are equal or incomparable, and the preference order
    reads restricted parts only between equal unrestricted parts. So a
    support ``eu | r`` dominated by another candidate's support is
    dominated by some ``eu | r2`` with ``r2`` strictly inside ``r``; that
    set is an admissible shrinking of the support's own preferred
    extension, against the support's minimality there. Dropping duplicates
    is all that remains.
    """
    deadline = (budget or DEFAULT_BUDGET).deadline()
    u = p.unrestricted.mask
    kept = []
    for masks in _solve_space(af, _space_of(af, p.focus), ADMISSIBLE_MAX,
                              deadline):
        max_u = set(_subset_maximal_masks([m & u for m in masks], deadline))
        supports = set()
        for m in masks:
            if m & u in max_u:
                # one factor: the support masks, read without ordering them
                supports.update(minimize_restricted(
                    af, p, ArgumentSet(af, m), deadline)._factors[0])
        kept.append(list(supports))
    return ExtensionFamily._product_of(af, kept, deadline)


def filter_maximal(family: ExtensionFamily, order: str = "subset",
                   partition: Partition = None, *,
                   deadline: _kernels.Ceiling = _kernels.UNBOUNDED
                   ) -> ExtensionFamily:
    """Members of ``family`` not strictly dominated by another member.

    ``order`` is ``"subset"`` (inclusion) or ``"prec"`` (the partition's
    preference order; requires ``partition``, and every member must lie
    within its focus). ``deadline`` is a started ceiling, as made by
    ``SearchBudget(wall_clock_seconds=...).deadline()``; once it has
    passed, the pass raises :class:`BudgetExceeded`, and the returned
    family is ordered under what it had left.
    """
    if order not in ("subset", "prec"):
        raise ValueError(f"unknown order {order!r}")
    p = partition
    if order == "prec":
        if p is None:
            raise ValueError("prec order needs a partition")
        if (family.framework is not None
                and family.framework is not p.framework):
            raise CrossFrameworkSet(
                "family and partition belong to different frameworks")
    masks = _product(family._factors, family._deadline())
    if order == "prec":
        if any(m & ~p.focus.mask for m in masks):
            for s in family:
                if s.mask & ~p.focus.mask:
                    raise NotWithinFocus(
                        f"family member {s!r} is not within the focus")
    if order == "subset":
        kept = _subset_maximal_masks(masks, deadline)
    else:
        kept = _prec_maximal_masks(p, masks, deadline)
    return ExtensionFamily._product_of(family.framework, [kept], deadline)


def _prec_maximal_masks(p, masks, deadline):
    # dominators always rank higher under (|unrestricted|, -|restricted|);
    # the deadline is read every 256 candidates
    masks = sorted(set(masks),
                   key=lambda m: (-(m & p.unrestricted.mask).bit_count(),
                                  (m & p.restricted.mask).bit_count(), m))
    kept = []
    for n, m in enumerate(masks):
        if n & 255 == 0:
            deadline.check()
        if not any(prec_order(p, m, k) is BETTER for k in kept):
            kept.append(m)
    return kept


def credulous_accepted(af: ArgumentationFramework, family: ExtensionFamily,
                       a) -> bool:
    """True iff ``a`` belongs to at least one member of ``family``.

    Read from the factors: ``a`` is in some mask of a factor.
    """
    if len(family) == 0:
        raise EmptyFamily("acceptance query against an empty family")
    if family.framework is not af:
        raise CrossFrameworkSet("family belongs to a different framework")
    bit = 1 << af.index(a)
    return any(bit & span for span, _, _ in family._factor_parts())


def skeptical_accepted(af: ArgumentationFramework, family: ExtensionFamily,
                       a) -> bool:
    """True iff ``a`` belongs to every member of ``family``.

    Read from the factors: ``a`` is in every mask of a factor.
    """
    if len(family) == 0:
        raise EmptyFamily("acceptance query against an empty family")
    if family.framework is not af:
        raise CrossFrameworkSet("family belongs to a different framework")
    bit = 1 << af.index(a)
    return any(bit & common for _, common, _ in family._factor_parts())
