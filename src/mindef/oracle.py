"""Brute-force reference enumeration over all subsets of a search space.

This module is the trust anchor for the tree-search solver, so it stays as
literal as possible: every bit pattern of the space is generated in numeric
order and tested against the defining predicate, and maximality is one
``filter_maximal`` pass over the whole family, which tests a set only
against the kept sets of larger popcount (inclusion) or of higher rank
(preference). No preprocessing, no pruning: the scan
(:func:`~mindef._kernels.subset_scan`) tests every pattern, a block of
them at a time in bit-sliced Python ints. Spaces are capped at 20
arguments by default, and never above the scan's 62; beyond the cap the
run is refused outright rather than left to crawl for hours. One started
wall-clock ceiling is checked between the scan's blocks of patterns, every
1024 sets while the scanned sets are mapped back and filtered, during the
maximality pass, and when the returned family is ordered.
"""

from . import _kernels
from .errors import BudgetExceeded
from .extensions import (DEFAULT_BUDGET, ExtensionFamily, SearchBudget,
                         _space_of, filter_maximal)
from .model import ArgumentationFramework, ArgumentSet, Partition
from .semantics import is_restrictedly_admissible


def _checked(items, deadline):
    """Yield ``items``, reading the ceiling before every 1024th."""
    for n, item in enumerate(items):
        if n & 1023 == 0:
            deadline.check()
        yield item


def _scan(af, restrict_to, budget, defence, deadline):
    """The masks of the qualifying subsets of ``restrict_to``."""
    space = _space_of(af, restrict_to)
    k = space.bit_count()
    cap = min((budget or DEFAULT_BUDGET).max_arguments_for_exhaustive,
              _kernels.SCAN_MAX_ARGUMENTS)
    if k > cap:
        raise BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    local = _kernels.LocalSpace(af, space, defence)
    local_masks = _kernels.subset_scan(k, local, deadline)
    return [local.to_global(lm) for lm in _checked(local_masks, deadline)]


def _family(af, budget, masks_of, order=None, partition=None):
    """The family of the masks ``masks_of(deadline)`` returns, and with an
    ``order`` its ``filter_maximal``, all under one started ceiling."""
    deadline = (budget or DEFAULT_BUDGET).deadline()
    family = ExtensionFamily._product_of(af, [masks_of(deadline)], deadline)
    if order is None:
        return family
    return filter_maximal(family, order, partition, deadline=deadline)


def oracle_conflict_free(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """All conflict-free subsets of ``restrict_to`` (default: all arguments)."""
    return _family(af, budget,
                   lambda d: _scan(af, restrict_to, budget, False, d))


def oracle_admissible(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                      budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible subsets of ``restrict_to`` (default: all arguments)."""
    return _family(af, budget,
                   lambda d: _scan(af, restrict_to, budget, True, d))


def oracle_preferred(af: ArgumentationFramework,
                     budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible sets, by scan plus a maximality pass."""
    return _family(af, budget, lambda d: _scan(af, None, budget, True, d),
                   "subset")


def oracle_preferred_on(af: ArgumentationFramework, x: ArgumentSet,
                        budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible subsets of ``x``."""
    return _family(af, budget, lambda d: _scan(af, x, budget, True, d),
                   "subset")


def _restrictedly_admissible(af, p, budget, deadline):
    return [m for m in _checked(_scan(af, p.focus, budget, True, deadline),
                                deadline)
            if is_restrictedly_admissible(af, p, ArgumentSet(af, m))]


def oracle_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                                   budget: SearchBudget = None) -> ExtensionFamily:
    """All restrictedly admissible subsets of the focus."""
    return _family(af, budget,
                   lambda d: _restrictedly_admissible(af, p, budget, d))


def oracle_min_def(af: ArgumentationFramework, p: Partition,
                   budget: SearchBudget = None) -> ExtensionFamily:
    """Preference-maximal restrictedly admissible sets, definition-literally."""
    return _family(af, budget,
                   lambda d: _restrictedly_admissible(af, p, budget, d),
                   "prec", p)
