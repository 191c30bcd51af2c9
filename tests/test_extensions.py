import time
import types

import pytest

import mindef as md
from mindef import (BudgetExceeded, EmptyFamily, ExtensionFamily,
                    NotWithinFocus, PreconditionViolated, SearchBudget,
                    build_framework, credulous_accepted,
                    filter_maximal, min_def_extensions,
                    minimize_restricted, preferred_extensions,
                    preferred_extensions_on, skeptical_accepted)
from mindef import _kernels, extensions
from mindef.extensions import ADMISSIBLE_ALL, ADMISSIBLE_MAX, CONFLICT_FREE

from conftest import (instance_stream, single_tree_solve_space, sset,
                      structured_stream, subset_walk_minimize)


class TestPreferred:
    def test_af1_has_a_unique_preferred_extension(self, af1):
        fam = preferred_extensions(af1)
        assert fam.members == (sset(af1, "o1,u2,u3,u4,u5,r1,r2,r3,o5"),)

    def test_mutual_attack_yields_both_singletons(self):
        af = build_framework(["a", "b"], [("a", "b"), ("b", "a")])
        assert preferred_extensions(af) == ExtensionFamily(
            [af.subset(["a"]), af.subset(["b"])])

    def test_empty_framework(self):
        af = build_framework([], [])
        fam = preferred_extensions(af)
        assert fam.members == (af.empty_set(),)


class TestPreferredOn:
    def test_af2_focus(self, af1, p2):
        fam = preferred_extensions_on(af1, p2.focus)
        assert fam.members == (sset(af1, "u2,u3,u4,u5,r1,r2,r3"),)

    def test_chain_restricted_to_the_tail_is_empty(self, abc):
        af, _ = abc
        fam = preferred_extensions_on(af, af.subset(["a"]))
        assert fam.members == (af.empty_set(),)

    def test_on_the_whole_universe_equals_preferred(self):
        for _, af, _ in instance_stream(15, base_seed=950):
            assert (preferred_extensions_on(af, af.full_set())
                    == preferred_extensions(af))

    def test_not_the_intersection_with_the_preferred_extension(self, abc):
        af, _ = abc
        x = af.subset(["a"])
        preferred = preferred_extensions(af)
        assert preferred.members == (af.subset(["c", "a"]),)
        intersections = ExtensionFamily(e & x for e in preferred)
        assert preferred_extensions_on(af, x) != intersections


class TestMinDef:
    def test_af3_unique_min_def_extension(self, af1, p3):
        fam = min_def_extensions(af1, p3)
        assert fam.members == (sset(af1, "u2,u3,u4,u5,r2"),)

    def test_without_restricted_arguments_degenerates(self):
        for _, af, p in instance_stream(12, base_seed=77,
                                        restricted_fraction=0.0):
            assert not p.restricted
            assert (min_def_extensions(af, p)
                    == preferred_extensions_on(af, p.focus))

    def test_matches_oracle_on_random_instances(self):
        for _, af, p in instance_stream(40, base_seed=3000):
            assert min_def_extensions(af, p) == md.oracle_min_def(af, p)


class TestMinimizeRestricted:
    def test_af3_drops_the_redundant_defenders(self, af1, p3):
        fam = minimize_restricted(af1, p3, sset(af1, "u2,u3,u4,u5,r1,r2,r3"))
        assert fam.members == (sset(af1, "u2,u3,u4,u5,r2"),)

    def test_nothing_to_remove(self, af1, p3):
        e = sset(af1, "u2,u3")
        assert minimize_restricted(af1, p3, e).members == (e,)

    def test_requires_admissible_input(self, af1, p3):
        with pytest.raises(PreconditionViolated):
            minimize_restricted(af1, p3, sset(af1, "u1"))

    def test_requires_input_within_focus(self, af1, p3):
        with pytest.raises(PreconditionViolated):
            minimize_restricted(af1, p3, sset(af1, "o1"))

    def test_outputs_are_minimal_and_complete(self):
        for _, af, p in instance_stream(25, base_seed=60):
            for e in md.oracle_admissible(af, p.focus):
                got = {s.mask for s in minimize_restricted(af, p, e)}
                assert got == subset_walk_minimize(af, p, e)

    def test_matches_the_subset_walk_above_the_oracle_cap(self):
        # preferred-on-focus members of frameworks too large for the oracle
        checked = 0
        for seed in range(300):
            n = 60 + seed % 41
            af, p = md.random_instance(md.GeneratorConfig(
                n, 2.0 / n, 0.7, 0.4, seed=seed))
            for e in preferred_extensions_on(af, p.focus):
                if (e.mask & p.restricted.mask).bit_count() > 14:
                    continue
                got = {s.mask for s in minimize_restricted(af, p, e)}
                assert got == subset_walk_minimize(af, p, e), seed
                checked += 1
        assert checked >= 300

    def test_every_minimal_support_of_a_choice_chain_is_found(self):
        # u is attacked by x1..x4; each xi is countered by ai or bi, and
        # each ai is itself attacked by yi, which only ci counters
        names = ["u"]
        attacks = []
        restricted = []
        for i in range(1, 5):
            x, a, b, y, c = (f"{t}{i}" for t in "xabyc")
            names += [x, a, b, y, c]
            restricted += [a, b, c]
            attacks += [(x, "u"), (a, x), (b, x), (y, a), (c, y)]
        af = build_framework(names, attacks)
        e = af.subset(["u"] + restricted)
        p = md.Partition(af, e, af.subset(restricted))
        got = {s.mask for s in minimize_restricted(af, p, e)}
        assert got == subset_walk_minimize(af, p, e)
        assert len(got) == 2 ** 4


class TestComponentSearch:
    def test_independent_groups_are_searched_apart(self):
        # two two-cycles, an isolated argument, and z, whose attacker y lies
        # outside the space: z shares no conflict with x but needs it
        af = build_framework("abcdexyz", [
            ("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"),
            ("y", "z"), ("x", "y")])
        space = _kernels.LocalSpace(
            af, af.subset("abcdexz").mask, defence=True)
        groups = sorted(space.to_global(g) for g in space.components(0))
        assert groups == sorted(af.subset(names).mask
                                for names in ("ab", "cd", "e", "xz"))
        x = af.subset("abcdexz")
        assert [s.names for s in preferred_extensions_on(af, x)] == [
            ("a", "c", "e", "x", "z"), ("a", "d", "e", "x", "z"),
            ("b", "c", "e", "x", "z"), ("b", "d", "e", "x", "z")]

    def test_matches_the_single_tree_search_above_the_oracle_cap(self):
        # sparse random frameworks at n=60-200: maximal sets of the whole
        # framework and of its focus, admissible and conflict-free sets of
        # windows of its first 20 and 14 arguments
        compared = 0
        for k in range(24):
            n = 60 + (k * 37) % 141
            af, p = md.random_instance(md.GeneratorConfig(
                n, 1.5 / n, 0.7, 0.3, seed=9100 + k))
            cases = ((ADMISSIBLE_MAX, af.full_mask),
                     (ADMISSIBLE_MAX, p.focus.mask),
                     (ADMISSIBLE_ALL, af.subset(af.names[:20]).mask),
                     (CONFLICT_FREE, af.subset(af.names[:14]).mask))
            for mode, space in cases:
                got = extensions._solve_space(af, space, mode, None)
                assert len(got) == len(set(got))
                assert set(got) == single_tree_solve_space(af, space, mode)
                compared += len(got)
        assert compared > 24 * 100

    def test_matches_the_single_tree_search_on_structured_shapes(self):
        small = {"two-cycles": range(1, 4), "chain": range(1, 5),
                 "cycle": range(1, 10), "isolated": range(1, 4)}
        for mode, sizes in ((ADMISSIBLE_MAX, None), (ADMISSIBLE_ALL, small),
                            (CONFLICT_FREE, small)):
            for label, af in structured_stream(40, 9300, sizes):
                got = extensions._solve_space(af, af.full_mask, mode, None)
                assert len(got) == len(set(got)), label
                assert set(got) == single_tree_solve_space(
                    af, af.full_mask, mode), label

    def test_restrictedly_admissible_sets_build_one_family(self, monkeypatch):
        built = []

        class Counted(ExtensionFamily):
            __slots__ = ()

            def __init__(self, members):
                built.append(1)
                super().__init__(members)

        monkeypatch.setattr(extensions, "ExtensionFamily", Counted)
        for _, af, p in instance_stream(20, base_seed=9500):
            built.clear()
            fam = md.restrictedly_admissible_sets(af, p)
            assert len(built) == 1
            assert fam == md.oracle_restrictedly_admissible(af, p)


class TestFilterMaximal:
    def test_subset_order(self, af1):
        fam = ExtensionFamily([af1.empty_set(), sset(af1, "o1"),
                               sset(af1, "o1,u2,u3")])
        kept = filter_maximal(fam, order="subset")
        assert kept.members == (sset(af1, "o1,u2,u3"),)

    def test_singleton_family_is_fixed(self, af1):
        fam = ExtensionFamily([sset(af1, "o1")])
        assert filter_maximal(fam) == fam

    def test_prec_order(self, af1, p3):
        fam = ExtensionFamily([sset(af1, "u2,u3,u4,u5,r2"),
                               sset(af1, "u2,u3,u4,u5,r1,r2")])
        kept = filter_maximal(fam, order="prec", partition=p3)
        assert kept.members == (sset(af1, "u2,u3,u4,u5,r2"),)

    def test_prec_order_rejects_out_of_focus_members(self, af1, p3):
        fam = ExtensionFamily([sset(af1, "o1")])
        with pytest.raises(NotWithinFocus):
            filter_maximal(fam, order="prec", partition=p3)

    def test_incomparable_members_all_survive(self, af1, p3):
        fam = ExtensionFamily([sset(af1, "u1"), sset(af1, "u2"),
                               sset(af1, "u3")])
        assert filter_maximal(fam, order="prec", partition=p3) == fam


class TestAcceptance:
    def test_af1_contains_o1_everywhere(self, af1):
        fam = preferred_extensions(af1)
        assert credulous_accepted(af1, fam, "o1")
        assert skeptical_accepted(af1, fam, "o1")

    def test_af1_never_contains_r4(self, af1):
        fam = preferred_extensions(af1)
        assert not credulous_accepted(af1, fam, "r4")
        assert not skeptical_accepted(af1, fam, "r4")

    def test_mutual_attack_splits_the_two_notions(self):
        af = build_framework(["a", "b"], [("a", "b"), ("b", "a")])
        fam = preferred_extensions(af)
        assert credulous_accepted(af, fam, "a")
        assert not skeptical_accepted(af, fam, "a")

    def test_empty_family_is_an_error(self, af1):
        with pytest.raises(EmptyFamily):
            credulous_accepted(af1, ExtensionFamily([]), "o1")
        with pytest.raises(EmptyFamily):
            skeptical_accepted(af1, ExtensionFamily([]), "o1")


class TestFamily:
    def test_members_are_deduplicated_and_ordered(self, af1):
        fam = ExtensionFamily([sset(af1, "u2,u1"), sset(af1, "o1"),
                               sset(af1, "u1,u2")])
        assert fam.members == (sset(af1, "o1"), sset(af1, "u1,u2"))

    def test_canonical_order_is_by_sorted_name_tuples(self, af1):
        fam = ExtensionFamily([sset(af1, "u2"), sset(af1, "u1,u5"),
                               af1.empty_set()])
        assert [tuple(sorted(s.names)) for s in fam] == [
            (), ("u1", "u5"), ("u2",)]


class TestBudget:
    def test_wall_clock_ceiling_aborts(self):
        names = [f"x{i}" for i in range(28)]
        pairs = []
        for i in range(0, 28, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        with pytest.raises(BudgetExceeded):
            md.admissible_sets(af, budget=SearchBudget(wall_clock_seconds=0.02))

    def test_enumeration_without_ceiling_completes(self):
        names = [f"x{i}" for i in range(16)]
        pairs = []
        for i in range(0, 16, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        fam = preferred_extensions(af)
        assert len(fam) == 2 ** 8

    def test_min_def_shares_one_deadline_across_its_steps(self, monkeypatch):
        # three two-cycles: eight preferred extensions on the focus, each
        # with a maximal unrestricted part, so eight minimisations
        names = [f"x{i}" for i in range(6)]
        pairs = []
        for i in range(0, 6, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        p = md.Partition(af, af.full_set(), af.empty_set())
        skew = [0.0]
        real = time.monotonic
        monkeypatch.setattr(md.extensions, "time", types.SimpleNamespace(
            monotonic=lambda: real() + skew[0]))
        minimize = md.extensions.minimize_restricted
        calls = []

        def slow_minimize(af, p, e, budget):
            calls.append(budget.wall_clock_seconds)
            skew[0] += 0.2  # each step takes 0.2 s of the fake clock
            return minimize(af, p, e, budget)

        monkeypatch.setattr(md.extensions, "minimize_restricted",
                            slow_minimize)
        deadlines = []
        deadline = SearchBudget.deadline

        def counted(budget):
            deadlines.append(budget)
            return deadline(budget)

        monkeypatch.setattr(SearchBudget, "deadline", counted)
        budget = SearchBudget(wall_clock_seconds=0.5)
        with pytest.raises(BudgetExceeded, match="ceiling of 0.5s exhausted"):
            min_def_extensions(af, p, budget)
        # the steps got what was left, and the fourth was never started
        assert len(calls) == 3
        assert calls[0] <= 0.5 and calls[2] < 0.1 + 1e-3
        assert sum(b is budget for b in deadlines) == 1

    def test_roadmap_min_def_probe_answers_within_a_second(self):
        # |e_r| = 23 here; the subset walk needed far more than 20 s
        af, p = md.random_instance(md.GeneratorConfig(400, 0.005, 0.7, 0.3,
                                                      seed=1))
        fam = min_def_extensions(af, p, SearchBudget(wall_clock_seconds=1.0))
        assert len(fam) >= 1
        for s in fam:
            assert md.is_restrictedly_admissible(af, p, s)


def test_two_step_pipeline_matches_the_exhaustive_answer():
    for _, af, p in instance_stream(30, base_seed=4100):
        assert min_def_extensions(af, p) == md.oracle_min_def(af, p)


def test_solver_families_are_deterministic(af1, p3):
    first = min_def_extensions(af1, p3)
    second = min_def_extensions(af1, p3)
    assert first.members == second.members
    assert [s.names for s in first] == [s.names for s in second]
