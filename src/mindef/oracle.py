"""Brute-force reference enumeration over all subsets of a search space.

This module is the trust anchor for the tree-search solver, so it stays as
literal as possible: every bit pattern of the space is generated in numeric
order and tested against the defining predicate, and maximality is a final
pairwise pass. No preprocessing, no pruning. Spaces are capped at 20
arguments by default, and never above the scan's 62; beyond the cap the
run is refused outright rather than left to crawl for hours. A wall-clock
ceiling is checked between the scan's blocks of patterns and during the
maximality pass.
"""

from . import _kernels
from .errors import BudgetExceeded
from .extensions import (DEFAULT_BUDGET, ExtensionFamily, SearchBudget,
                         _exhausted, _space_of, filter_maximal)
from .model import ArgumentationFramework, ArgumentSet, Partition
from .semantics import is_restrictedly_admissible


def _scan(af, restrict_to, budget, defence):
    space = _space_of(af, restrict_to)
    k = space.bit_count()
    budget = budget or DEFAULT_BUDGET
    cap = min(budget.max_arguments_for_exhaustive, _kernels.SCAN_MAX_ARGUMENTS)
    if k > cap:
        raise BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    deadline = budget.deadline()
    local = _kernels.LocalSpace(af, space, defence)
    try:
        local_masks = _kernels.subset_scan(k, local, deadline)
    except _kernels.DeadlineReached:
        raise _exhausted(budget.wall_clock_seconds) from None
    return [ArgumentSet(af, local.to_global(lm)) for lm in local_masks]


def oracle_conflict_free(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """All conflict-free subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, defence=False))


def oracle_admissible(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                      budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, defence=True))


def _maximal(family_of, budget, order="subset", partition=None):
    """``filter_maximal`` of ``family_of(budget)``, both under one deadline."""
    budget = budget or DEFAULT_BUDGET
    deadline = budget.deadline()
    family = family_of(budget)
    try:
        return filter_maximal(family, order, partition, deadline=deadline)
    except BudgetExceeded:
        raise _exhausted(budget.wall_clock_seconds) from None


def oracle_preferred(af: ArgumentationFramework,
                     budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible sets, by scan plus a maximality pass."""
    return _maximal(lambda b: oracle_admissible(af, None, b), budget)


def oracle_preferred_on(af: ArgumentationFramework, x: ArgumentSet,
                        budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible subsets of ``x``."""
    return _maximal(lambda b: oracle_admissible(af, x, b), budget)


def oracle_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                                   budget: SearchBudget = None) -> ExtensionFamily:
    """All restrictedly admissible subsets of the focus."""
    return ExtensionFamily(
        s for s in oracle_admissible(af, p.focus, budget)
        if is_restrictedly_admissible(af, p, s))


def oracle_min_def(af: ArgumentationFramework, p: Partition,
                   budget: SearchBudget = None) -> ExtensionFamily:
    """Preference-maximal restrictedly admissible sets, definition-literally."""
    return _maximal(lambda b: oracle_restrictedly_admissible(af, p, b),
                    budget, "prec", p)
