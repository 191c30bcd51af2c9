"""Brute-force reference enumeration over all subsets of a search space.

This module is the trust anchor for the tree-search solver, so it stays as
literal as possible. Every entry point is one pass of the same pipeline
(:func:`_family`): a subset scan, then for the restricted semantics the
paper's restricted-admissibility predicate, then for the maximal ones one
maximality pass. The scan (:func:`~mindef._kernels.subset_scan`) tests
every bit pattern of the space in numeric order against conflict-freeness,
and against defence for the admissible families, a block of patterns at a
time in bit-sliced Python ints. The restricted filter keeps the scanned
sets that pass :func:`~mindef.semantics.is_restrictedly_admissible`.
Maximality is one ``filter_maximal`` pass over the whole family, under
inclusion or under the partition's preference order, which tests a set
only against the kept sets of larger popcount (inclusion) or of higher
rank (preference). No preprocessing, no pruning.

The scan reads a layout built here from the framework's own masks, by the
definitions, and not the solver's :class:`~mindef._kernels.LocalSpace`, so
that a fault in the solver's layout cannot hide by hitting both sides of a
comparison (see :func:`_layout`). When the space is every argument, local
bits are global bits: the layout is the framework's masks, and the scan's
sets are returned as they are. A smaller space (a focus, or ``--on``) is
renumbered to the bits of its members, and its sets are mapped back.

Spaces are capped at 20 arguments by default, and never above the scan's
62; beyond the cap the run is refused outright rather than left to crawl
for hours. Every entry point takes a :class:`SearchBudget` or an already
started ceiling; the pipeline starts it once, and the scan reads its cap
from the started ceiling, so a request's ceiling, started before its
input was read, serves the oracle as it serves the solver. That one
wall-clock ceiling is checked between the scan's blocks of patterns, once
after a full space's scan and every 1024 sets while a smaller space's
sets are mapped back, every 1024 sets while they are filtered, during the
maximality pass, and when the returned family is ordered.
"""

from collections import namedtuple

from . import _kernels
from .errors import BudgetExceeded
from .extensions import (DEFAULT_BUDGET, ExtensionFamily, SearchBudget,
                         _space_of, filter_maximal)
from .model import ArgumentationFramework, ArgumentSet, Partition, bits
from .semantics import is_restrictedly_admissible


def _checked(items, deadline):
    """Yield ``items``, reading the ceiling before every 1024th."""
    for n, item in enumerate(items):
        if n & 1023 == 0:
            deadline.check()
        yield item


# what ``subset_scan`` reads of a space, plus the global index of each
# local bit (``None`` when they are the same)
_Layout = namedtuple("_Layout", "members conflict owes answerers")


def _layout(af, space, defence):
    """The scan layout of the space mask ``space``, by the definitions.

    Local bit ``j`` is the space's ``j``-th member. ``conflict[j]`` holds
    the members that attack member ``j`` or that it attacks. With
    ``defence``, each distinct attacker of a member is one obligation: the
    members it attacks owe it (``owes[j]``), and the members that attack it
    answer it (``answerers[o]``); without, there are none. In a space of
    every argument, local bits are global bits and obligation ``b`` is
    argument ``b``, so the layout is the framework's masks as they are (an
    argument that attacks nothing is an obligation no one owes). In a
    smaller space the obligations are numbered in the attackers' index
    order, so the layout's size depends on the space, not on the framework.
    """
    att = af.attacker_masks
    if space == af.full_mask:
        conflict = list(map(int.__or__, att, af.target_masks))
        if defence:
            return _Layout(None, conflict, att, att)
        return _Layout(None, conflict, [0] * len(conflict), [])
    tgt = af.target_masks
    members = list(bits(space))
    # the local bit of each global argument, 0 outside the space
    bit_of = [0] * len(att)
    for j, g in enumerate(members):
        bit_of[g] = 1 << j

    def local(mask):
        out = 0
        for g in bits(mask & space):
            out |= bit_of[g]
        return out

    conflict = [local(att[g] | tgt[g]) for g in members]
    if not defence:
        return _Layout(members, conflict, [0] * len(members), [])
    attackers = 0
    for g in members:
        attackers |= att[g]
    obligors = list(bits(attackers))
    # the obligation bit of each global argument, 0 if it attacks no member
    obligation = [0] * len(att)
    for o, b in enumerate(obligors):
        obligation[b] = 1 << o
    owes = []
    for g in members:
        owed = 0
        for b in bits(att[g]):
            owed |= obligation[b]
        owes.append(owed)
    return _Layout(members, conflict, owes, [local(att[b]) for b in obligors])


def _scan(af, restrict_to, defence, deadline):
    """The masks of the qualifying subsets of ``restrict_to``, under the
    size cap the started ceiling ``deadline`` carries."""
    space = _space_of(af, restrict_to)
    k = space.bit_count()
    cap = min(deadline.max_arguments_for_exhaustive,
              _kernels.SCAN_MAX_ARGUMENTS)
    if k > cap:
        raise BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    layout = _layout(af, space, defence)
    found = _kernels.subset_scan(k, layout, deadline)
    members = layout.members
    if members is None:
        deadline.check()
        return found
    out = []
    for lm in _checked(found, deadline):
        gm = 0
        for j in bits(lm):
            gm |= 1 << members[j]
        out.append(gm)
    return out


def _family(af, budget, x, defence, order=None, p=None):
    """The one oracle pipeline, under one started ceiling: the scan of the
    subsets of ``x``, conflict-free or with ``defence`` admissible; with a
    partition ``p``, only the restrictedly admissible ones; and with an
    ``order``, their ``filter_maximal``."""
    deadline = (budget or DEFAULT_BUDGET).deadline()
    masks = _scan(af, x, defence, deadline)
    if p is not None:
        masks = [m for m in _checked(masks, deadline)
                 if is_restrictedly_admissible(af, p, ArgumentSet(af, m))]
    family = ExtensionFamily._product_of(af, [masks], deadline)
    if order is None:
        return family
    return filter_maximal(family, order, p, deadline=deadline)


def oracle_conflict_free(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """All conflict-free subsets of ``restrict_to`` (default: all arguments)."""
    return _family(af, budget, restrict_to, False)


def oracle_admissible(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                      budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible subsets of ``restrict_to`` (default: all arguments)."""
    return _family(af, budget, restrict_to, True)


def oracle_preferred(af: ArgumentationFramework,
                     budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible sets, by scan plus a maximality pass."""
    return _family(af, budget, None, True, "subset")


def oracle_preferred_on(af: ArgumentationFramework, x: ArgumentSet,
                        budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible subsets of ``x``."""
    return _family(af, budget, x, True, "subset")


def oracle_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                                   budget: SearchBudget = None) -> ExtensionFamily:
    """All restrictedly admissible subsets of the focus."""
    return _family(af, budget, p.focus, True, p=p)


def oracle_min_def(af: ArgumentationFramework, p: Partition,
                   budget: SearchBudget = None) -> ExtensionFamily:
    """Preference-maximal restrictedly admissible sets, definition-literally."""
    return _family(af, budget, p.focus, True, "prec", p)
