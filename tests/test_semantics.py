import pytest
from hypothesis import given, strategies as st

import mindef as md
from mindef import (NotWithinFocus, PrecOrdering, build_framework,
                    build_partition, defends, defends_all,
                    individual_defenders, individually_defended_by,
                    is_admissible, is_conflict_free,
                    is_restrictedly_admissible, prec_compare)

from conftest import instance_stream, sset, walk_defenders


class TestConflictFree:
    def test_admissible_example_is_conflict_free(self, af1):
        assert is_conflict_free(af1, sset(af1, "o1,u2,u3"))

    def test_attacking_pair_is_not(self, af1):
        assert not is_conflict_free(af1, sset(af1, "o2,u3"))

    def test_empty_set_always_is(self, af1):
        assert is_conflict_free(af1, af1.empty_set())

    def test_self_attacker_never_is(self):
        af = build_framework(["a"], [("a", "a")])
        assert not is_conflict_free(af, af.subset(["a"]))


class TestDefends:
    def test_u3_defends_u2(self, af1):
        assert defends(af1, sset(af1, "u3"), "u2")

    def test_unattacked_argument_is_defended_by_anything(self, af1):
        assert defends(af1, af1.empty_set(), "o1")

    def test_unanswered_attacker(self, af1):
        assert not defends(af1, af1.empty_set(), "u1")

    def test_monotone_in_the_defending_set(self):
        for _, af, _ in instance_stream(30, base_seed=70):
            small = af.subset(af.names[::3])
            large = small | af.subset(af.names[::2])
            for a in af.names:
                if defends(af, small, a):
                    assert defends(af, large, a)


class TestDefendsAll:
    def test_big_admissible_set(self, af1):
        assert defends_all(af1, sset(af1, "o1,u2,u3,u4,u5,r1,r2,r3,o5"))

    def test_undefended_member(self, af1):
        assert not defends_all(af1, sset(af1, "u1"))

    def test_empty_set(self, af1):
        assert defends_all(af1, af1.empty_set())


class TestAdmissible:
    @pytest.mark.parametrize("names", ["", "o1", "o1,u2,u3",
                                       "o1,u2,u3,u4,u5,r1,r2,r3,o5"])
    def test_accepted(self, af1, names):
        assert is_admissible(af1, sset(af1, names))

    def test_rejected(self, af1):
        assert not is_admissible(af1, sset(af1, "u5,r3,r4"))

    def test_empty_set_admissible_everywhere(self):
        for _, af, _ in instance_stream(15, base_seed=500):
            assert is_admissible(af, af.empty_set())


class TestIndividualDefenders:
    def test_u2_has_two_direct_defenders(self, af1):
        assert individual_defenders(af1, "u2") == sset(af1, "u3,r1")

    def test_unattacked_argument_has_none(self, af1):
        assert not individual_defenders(af1, "o1")

    def test_two_cycle_argument_defends_itself(self):
        af = build_framework(["a", "b"], [("a", "b"), ("b", "a")])
        assert individual_defenders(af, "a") == af.subset(["a"])

    def test_agrees_with_walk_enumeration_up_to_n8(self):
        for _, af, _ in instance_stream(80, base_seed=7,
                                        sizes=(2, 3, 4, 5, 6, 7, 8),
                                        probabilities=(0.15, 0.3, 0.5)):
            for a in af.names:
                got = frozenset(individual_defenders(af, a).names)
                assert got == walk_defenders(af, a)

    def test_transpose_view_is_consistent(self):
        for _, af, _ in instance_stream(20, base_seed=90, sizes=(4, 6, 8)):
            for c in af.names:
                defended = individually_defended_by(af, c)
                for y in af.names:
                    assert (y in defended) == (c in individual_defenders(af, y))


class TestRestrictedAdmissibility:
    def test_bundled_example_verdicts(self, af1, p3):
        assert is_restrictedly_admissible(af1, p3, sset(af1, "u2,u3,u4,u5,r1,r2"))
        assert is_restrictedly_admissible(af1, p3, af1.empty_set())

    def test_restricted_member_defending_nothing_unrestricted(self, af1, p3):
        assert not is_restrictedly_admissible(af1, p3, sset(af1, "u5,r3"))

    def test_set_outside_focus_is_an_error(self, af1, p3):
        with pytest.raises(NotWithinFocus):
            is_restrictedly_admissible(af1, p3, sset(af1, "o1"))

    def test_another_frameworks_set_or_partition_is_an_error(self, af1, p3):
        # the same AF3 built a second time is another framework; {u1} is
        # not admissible, so only the guard can tell
        other, other_p3 = md.builtin_fixtures()["AF3"]
        with pytest.raises(md.CrossFrameworkSet):
            is_restrictedly_admissible(af1, other_p3, sset(af1, "u1"))
        with pytest.raises(md.CrossFrameworkSet):
            is_restrictedly_admissible(other, p3, sset(other, "u1"))

    def test_admissible_without_restricted_members_qualifies(self):
        for _, af, p in instance_stream(25, base_seed=130):
            for s in md.oracle_admissible(af, p.unrestricted):
                assert is_restrictedly_admissible(af, p, s)


class TestPrecCompare:
    def test_strictly_more_unrestricted_content_wins(self, af1, p3):
        v = prec_compare(p3, sset(af1, "u2,u3"), sset(af1, "u2,u3,u4,u5,r2"))
        assert v is PrecOrdering.STRICTLY_BETTER

    def test_same_unrestricted_fewer_restricted_wins(self, af1, p3):
        v = prec_compare(p3, sset(af1, "u2,u3,u4,u5,r1,r2"),
                         sset(af1, "u2,u3,u4,u5,r2"))
        assert v is PrecOrdering.STRICTLY_BETTER

    def test_equal_sets_are_equivalent(self, af1, p3):
        s = sset(af1, "u2,r2")
        assert prec_compare(p3, s, s) is PrecOrdering.EQUIVALENT

    def test_incomparable(self, af1, p3):
        v = prec_compare(p3, sset(af1, "u2"), sset(af1, "u3"))
        assert v is PrecOrdering.INCOMPARABLE

    def test_out_of_focus_is_an_error(self, af1, p3):
        with pytest.raises(NotWithinFocus):
            prec_compare(p3, sset(af1, "o1"), sset(af1, "u2"))

    def test_another_frameworks_set_is_an_error(self, af1, p3):
        other, _ = md.builtin_fixtures()["AF3"]
        for pair in ((sset(other, "u2"), sset(af1, "u2")),
                     (sset(af1, "u2"), sset(other, "u2"))):
            with pytest.raises(md.CrossFrameworkSet):
                prec_compare(p3, *pair)

    @given(st.sets(st.integers(0, 8)), st.sets(st.integers(0, 8)))
    def test_verdict_flips_with_argument_order(self, xs, ys):
        af, p = _focus_playground()
        s1 = af.subset(af.names[i] for i in xs)
        s2 = af.subset(af.names[i] for i in ys)
        forward = prec_compare(p, s1, s2)
        backward = prec_compare(p, s2, s1)
        flips = {PrecOrdering.STRICTLY_BETTER: PrecOrdering.STRICTLY_WORSE,
                 PrecOrdering.STRICTLY_WORSE: PrecOrdering.STRICTLY_BETTER,
                 PrecOrdering.EQUIVALENT: PrecOrdering.EQUIVALENT,
                 PrecOrdering.INCOMPARABLE: PrecOrdering.INCOMPARABLE}
        assert backward is flips[forward]

    @given(st.sets(st.integers(0, 8)), st.sets(st.integers(0, 8)),
           st.sets(st.integers(0, 8)))
    def test_nonstrict_order_is_transitive(self, xs, ys, zs):
        af, p = _focus_playground()
        sets = [af.subset(af.names[i] for i in group) for group in (xs, ys, zs)]

        def leq(a, b):
            return prec_compare(p, a, b) in (PrecOrdering.STRICTLY_BETTER,
                                             PrecOrdering.EQUIVALENT)

        if leq(sets[0], sets[1]) and leq(sets[1], sets[2]):
            assert leq(sets[0], sets[2])

    @given(st.sets(st.integers(0, 8)), st.sets(st.integers(0, 8)))
    def test_equivalence_means_equality_within_focus(self, xs, ys):
        af, p = _focus_playground()
        s1 = af.subset(af.names[i] for i in xs)
        s2 = af.subset(af.names[i] for i in ys)
        if prec_compare(p, s1, s2) is PrecOrdering.EQUIVALENT:
            assert s1 == s2


def _focus_playground():
    af = build_framework([f"n{i}" for i in range(9)], [])
    p = build_partition(af, [f"n{i}" for i in range(9)],
                        [f"n{i}" for i in range(5, 9)])
    return af, p


def test_unattacked_arguments_sit_in_every_preferred_extension():
    for _, af, _ in instance_stream(40, base_seed=210):
        unattacked = [a for a in range(len(af)) if not af.attacker_masks[a]]
        for e in md.preferred_extensions(af):
            for a in unattacked:
                assert a in e
