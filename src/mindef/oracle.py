"""Brute-force reference enumeration over all subsets of a search space.

This module is the trust anchor for the tree-search solver, so it stays as
literal as possible: every bit pattern of the space is generated in numeric
order and tested against the defining predicate, and maximality is a final
pairwise pass. No preprocessing, no pruning. Spaces are capped at 20
arguments; beyond that the run is refused outright rather than left to
crawl for hours. A wall-clock ceiling is checked between the scan's
blocks of patterns.
"""

from . import _kernels
from .errors import BudgetExceeded, CrossFrameworkSet
from .extensions import (DEFAULT_BUDGET, ExtensionFamily, SearchBudget,
                         filter_maximal)
from .model import ArgumentationFramework, ArgumentSet, Partition
from .semantics import is_restrictedly_admissible


def _scan(af, restrict_to, budget, require_defence):
    if restrict_to is None:
        space = af.full_mask
    else:
        if restrict_to.framework is not af:
            raise CrossFrameworkSet("set belongs to a different framework")
        space = restrict_to.mask
    k = space.bit_count()
    cap = (budget or DEFAULT_BUDGET).max_arguments_for_exhaustive
    if k > cap:
        raise BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    deadline = (budget or DEFAULT_BUDGET).deadline()
    local = _kernels.LocalSpace(af, space, require_defence)
    try:
        local_masks = _kernels.subset_scan(k, local.conflict, local.ob_off,
                                           local.ob_masks, require_defence,
                                           deadline)
    except _kernels.DeadlineReached:
        raise BudgetExceeded(
            f"wall-clock ceiling of {budget.wall_clock_seconds}s exhausted"
        ) from None
    return [ArgumentSet(af, local.to_global(lm)) for lm in local_masks]


def oracle_conflict_free(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                         budget: SearchBudget = None) -> ExtensionFamily:
    """All conflict-free subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, require_defence=False))


def oracle_admissible(af: ArgumentationFramework, restrict_to: ArgumentSet = None,
                      budget: SearchBudget = None) -> ExtensionFamily:
    """All admissible subsets of ``restrict_to`` (default: all arguments)."""
    return ExtensionFamily(_scan(af, restrict_to, budget, require_defence=True))


def oracle_preferred(af: ArgumentationFramework,
                     budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible sets, by scan plus a maximality pass."""
    return filter_maximal(oracle_admissible(af, None, budget), order="subset")


def oracle_preferred_on(af: ArgumentationFramework, x: ArgumentSet,
                        budget: SearchBudget = None) -> ExtensionFamily:
    """Inclusion-maximal admissible subsets of ``x``."""
    return filter_maximal(oracle_admissible(af, x, budget), order="subset")


def oracle_restrictedly_admissible(af: ArgumentationFramework, p: Partition,
                                   budget: SearchBudget = None) -> ExtensionFamily:
    """All restrictedly admissible subsets of the focus."""
    return ExtensionFamily(
        s for s in oracle_admissible(af, p.focus, budget)
        if is_restrictedly_admissible(af, p, s))


def oracle_min_def(af: ArgumentationFramework, p: Partition,
                   budget: SearchBudget = None) -> ExtensionFamily:
    """Preference-maximal restrictedly admissible sets, definition-literally."""
    return filter_maximal(oracle_restrictedly_admissible(af, p, budget),
                          order="prec", partition=p)
