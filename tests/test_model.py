import pytest
from hypothesis import given, strategies as st

import mindef as md
from mindef import (ArgumentSet, CrossFrameworkSet, UndeclaredArgument,
                    build_framework, build_partition, is_well_founded, split)

from conftest import has_cycle_dfs, instance_stream, sset


def test_af1_shape(af1):
    assert len(af1) == 14
    assert len(af1.attacks) == 9
    assert af1.names[:5] == ("u1", "u2", "u3", "u4", "u5")


def test_empty_framework():
    af = build_framework([], [])
    assert len(af) == 0
    assert af.attacks == ()
    assert af.full_set() == af.empty_set()


def test_three_chain():
    af = build_framework(["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert len(af) == 3
    assert "c" in af.attackers_of("b")
    assert "a" in af.targets_of("b")


def test_duplicate_declarations_are_idempotent():
    once = build_framework(["a", "b"], [("a", "b")])
    twice = build_framework(["a", "b", "a", "b"], [("a", "b"), ("a", "b")])
    assert once.names == twice.names
    assert once.attacks == twice.attacks


def test_attack_with_undeclared_name_is_rejected():
    with pytest.raises(UndeclaredArgument, match="ghost"):
        build_framework(["a"], [("a", "ghost")])
    with pytest.raises(UndeclaredArgument):
        build_framework(["a"], [("ghost", "a")])


def test_index_assignment_follows_first_appearance():
    af = build_framework(["z", "m", "a"], [])
    assert af.names == ("z", "m", "a")
    assert [af.index(n) for n in "zma"] == [0, 1, 2]


def test_transpose_consistency(af1):
    for a in range(len(af1)):
        for b in range(len(af1)):
            edge = (b, a) in af1.attacks
            assert (b in af1.attackers_of(a)) == edge
            assert (a in af1.targets_of(b)) == edge


def test_transpose_consistency_random():
    for _, af, _ in instance_stream(25, base_seed=900, sizes=(3, 5, 8)):
        attackers = {(b, a) for a in range(len(af))
                     for b in af.attackers_of(a).indices()}
        targets = {(a, b) for a in range(len(af))
                   for b in af.targets_of(a).indices()}
        assert attackers == set(af.attacks)
        assert targets == set(af.attacks)


class TestArgumentSet:
    def test_algebra(self, af1):
        s = sset(af1, "u1,u2,o1")
        t = sset(af1, "u2,o5")
        assert (s | t).names == ("u1", "u2", "o1", "o5")
        assert (s & t) == sset(af1, "u2")
        assert (s - t) == sset(af1, "u1,o1")

    def test_subset_relations(self, af1):
        small = sset(af1, "u1")
        big = sset(af1, "u1,u2")
        assert small <= big and small < big
        assert big <= big and not big < big
        assert not big <= small

    def test_iteration_in_index_order(self, af1):
        s = sset(af1, "o5,u1,r2")
        assert s.names == ("u1", "r2", "o5")
        assert list(s.indices()) == sorted(s.indices())

    def test_membership_and_len(self, af1):
        s = sset(af1, "u1,u3")
        assert "u1" in s and "u2" not in s
        assert len(s) == 2 and bool(s)
        assert not af1.empty_set()

    def test_cross_framework_operations_rejected(self, af1):
        other = build_framework(["u1"], [])
        with pytest.raises(CrossFrameworkSet):
            sset(af1, "u1") | other.subset(["u1"])
        with pytest.raises(CrossFrameworkSet):
            sset(af1, "u1") <= other.subset(["u1"])
        assert sset(af1, "u1") != other.subset(["u1"])

    def test_undeclared_member_rejected(self, af1):
        with pytest.raises(UndeclaredArgument):
            af1.subset(["nope"])

    def test_an_index_out_of_range_is_undeclared(self, af1):
        assert af1.index(len(af1) - 1) == len(af1) - 1
        for i in (len(af1), -1):
            with pytest.raises(UndeclaredArgument):
                af1.index(i)

    def test_other_operands_are_not_sets(self, af1):
        s = sset(af1, "u1")
        with pytest.raises(TypeError, match="^expected ArgumentSet, got int$"):
            s | 3
        assert (s == 3) is False and (s != 3) is True

    @given(st.sets(st.integers(0, 13)), st.sets(st.integers(0, 13)))
    def test_algebra_matches_python_sets(self, xs, ys):
        af = md.builtin_fixtures()["AF1"][0]
        s = af.subset(af.names[i] for i in xs)
        t = af.subset(af.names[i] for i in ys)
        assert set((s | t).indices()) == xs | ys
        assert set((s & t).indices()) == xs & ys
        assert set((s - t).indices()) == xs - ys
        assert (s <= t) == (xs <= ys)
        assert (s < t) == (xs < ys)


class TestPartition:
    def test_af1_partition(self, af1, p3):
        assert p3.unrestricted == sset(af1, "u1,u2,u3,u4,u5")
        assert p3.restricted == sset(af1, "r1,r2,r3,r4")
        assert p3.focus == p3.unrestricted | p3.restricted

    def test_empty_partition_is_literal(self, af1):
        p = build_partition(af1, [], [])
        assert not p.focus and not p.restricted and not p.unrestricted

    def test_restricted_implies_focus(self, af1):
        p = build_partition(af1, ["u1"], ["r1"])
        assert p.focus == sset(af1, "u1,r1")
        assert p.unrestricted == sset(af1, "u1")

    def test_undeclared_name_rejected(self, af1):
        with pytest.raises(UndeclaredArgument):
            build_partition(af1, ["nope"], [])


class TestSplit:
    def test_two_tier_split(self, af1, p3):
        su, sr = split(sset(af1, "u2,u3,u4,u5,r2"), p3)
        assert su == sset(af1, "u2,u3,u4,u5")
        assert sr == sset(af1, "r2")

    def test_empty(self, af1, p3):
        assert split(af1.empty_set(), p3) == (af1.empty_set(), af1.empty_set())

    def test_out_of_focus_members_fall_in_neither_part(self, af1, p3):
        su, sr = split(sset(af1, "o1,u2,r1"), p3)
        assert su == sset(af1, "u2")
        assert sr == sset(af1, "r1")

    def test_cross_framework_rejected(self, af1, p3):
        other = build_framework(["x"], [])
        with pytest.raises(CrossFrameworkSet):
            split(other.subset(["x"]), p3)

    def test_split_partitions_the_focus_part(self):
        for _, af, p in instance_stream(10, base_seed=300):
            s = af.subset(af.names[::2])
            su, sr = split(s, p)
            assert (su | sr) == (s & p.focus)
            assert not (su & sr)


class TestWellFounded:
    def test_af1_is_well_founded(self, af1):
        assert is_well_founded(af1)

    def test_self_loop_is_a_cycle(self):
        assert not is_well_founded(build_framework(["a"], [("a", "a")]))

    def test_two_cycle(self):
        af = build_framework(["a", "b"], [("a", "b"), ("b", "a")])
        assert not is_well_founded(af)

    def test_agrees_with_dfs_detector_on_200_random_digraphs(self):
        seen = {True: 0, False: 0}
        for _, af, _ in instance_stream(200, base_seed=40,
                                        sizes=(3, 5, 8, 10, 12),
                                        probabilities=(0.05, 0.1, 0.2)):
            wf = is_well_founded(af)
            assert wf == (not has_cycle_dfs(af))
            seen[wf] += 1
        assert seen[True] and seen[False]
