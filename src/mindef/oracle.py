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
wall-clock ceiling is checked between the scan's blocks of patterns and
during the maximality pass.
"""

from . import _kernels
from .errors import BudgetExceeded
from .extensions import (DEFAULT_BUDGET, ExtensionFamily, SearchBudget,
                         _space_of, filter_maximal)
from .model import ArgumentationFramework, ArgumentSet, Partition
from .semantics import is_restrictedly_admissible


def _scan(af, restrict_to, budget, defence, deadline=None):
    # under the caller's started ceiling, else under one started here
    space = _space_of(af, restrict_to)
    k = space.bit_count()
    budget = budget or DEFAULT_BUDGET
    cap = min(budget.max_arguments_for_exhaustive, _kernels.SCAN_MAX_ARGUMENTS)
    if k > cap:
        raise BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    local = _kernels.LocalSpace(af, space, defence)
    local_masks = _kernels.subset_scan(k, local, deadline or budget.deadline())
    return [ArgumentSet(af, local.to_global(lm)) for lm in local_masks]


def oracle_conflict_free(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """All conflict-free subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, defence=False))


def oracle_admissible(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                      budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, defence=True))


def _maximal(sets_of, budget, order="subset", partition=None):
    """``filter_maximal`` of the family of ``sets_of(deadline)``, both under
    one started ceiling."""
    deadline = (budget or DEFAULT_BUDGET).deadline()
    return filter_maximal(ExtensionFamily(sets_of(deadline)), order,
                          partition, deadline=deadline)


def oracle_preferred(af: ArgumentationFramework,
                     budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible sets, by scan plus a maximality pass."""
    return _maximal(lambda d: _scan(af, None, budget, True, d), budget)


def oracle_preferred_on(af: ArgumentationFramework, x: ArgumentSet,
                        budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible subsets of ``x``."""
    return _maximal(lambda d: _scan(af, x, budget, True, d), budget)


def _restrictedly_admissible(af, p, budget, deadline=None):
    return [s for s in _scan(af, p.focus, budget, True, deadline)
            if is_restrictedly_admissible(af, p, s)]


def oracle_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                                   budget: SearchBudget = None) -> ExtensionFamily:
    """All restrictedly admissible subsets of the focus."""
    return ExtensionFamily(_restrictedly_admissible(af, p, budget))


def oracle_min_def(af: ArgumentationFramework, p: Partition,
                   budget: SearchBudget = None) -> ExtensionFamily:
    """Preference-maximal restrictedly admissible sets, definition-literally."""
    return _maximal(lambda d: _restrictedly_admissible(af, p, budget, d),
                    budget, "prec", p)
