import math
import random
import time

import pytest

import mindef as md
from mindef import _kernels, oracle
from mindef import (BudgetExceeded, SearchBudget, build_framework,
                    filter_maximal, is_admissible, is_conflict_free,
                    is_restrictedly_admissible, oracle_admissible,
                    oracle_conflict_free, oracle_min_def, oracle_preferred,
                    oracle_preferred_on, oracle_restrictedly_admissible)

from mindef.cli import SEMANTICS, main
from mindef.model import bits

from conftest import (FIXTURE_DIR, instance_stream, jump_after_the_codes,
                      local_space_scan, numpy_subset_scan,
                      restricted_instances, sset, structured_framework)


class TestOracleAdmissible:
    def test_af1_contains_the_documented_sets(self, af1):
        fam = oracle_admissible(af1)
        for names in ("", "o1", "o1,u2,u3", "o1,u2,u3,u4,u5,r1,r2,r3,o5"):
            assert sset(af1, names) in fam
        assert sset(af1, "u5,r3,r4") not in fam

    def test_empty_framework(self):
        af = build_framework([], [])
        assert oracle_admissible(af).members == (af.empty_set(),)

    def test_af3_focus_scan_contains_both_supports(self, af1, p3):
        fam = oracle_admissible(af1, p3.focus)
        assert sset(af1, "u2,u3,u4,u5,r2") in fam
        assert sset(af1, "u2,u3,u4,u5,r1,r2") in fam

    def test_members_satisfy_the_predicate_and_nonmembers_fail(self):
        for _, af, _ in instance_stream(20, base_seed=777, sizes=(4, 5, 6)):
            fam = oracle_admissible(af)
            member_masks = {s.mask for s in fam}
            for mask in range(1 << len(af)):
                s = md.ArgumentSet(af, mask)
                assert is_admissible(af, s) == (mask in member_masks)


class TestOracleConflictFree:
    def test_matches_the_predicate_exhaustively(self):
        for _, af, _ in instance_stream(12, base_seed=888, sizes=(4, 5)):
            member_masks = {s.mask for s in oracle_conflict_free(af)}
            for mask in range(1 << len(af)):
                s = md.ArgumentSet(af, mask)
                assert is_conflict_free(af, s) == (mask in member_masks)


class TestOracleFamilies:
    def test_preferred_af1(self, af1):
        fam = oracle_preferred(af1)
        assert fam.members == (sset(af1, "o1,u2,u3,u4,u5,r1,r2,r3,o5"),)

    def test_min_def_af3(self, af1, p3):
        fam = oracle_min_def(af1, p3)
        assert fam.members == (sset(af1, "u2,u3,u4,u5,r2"),)

    def test_preferred_on_the_chain_tail(self, abc):
        af, _ = abc
        fam = oracle_preferred_on(af, af.subset(["a"]))
        assert fam.members == (af.empty_set(),)

    def test_preferred_equals_maximal_admissible(self):
        for _, af, _ in instance_stream(25, base_seed=1500):
            assert oracle_preferred(af) == filter_maximal(
                oracle_admissible(af), order="subset")

    def test_restrictedly_admissible_members_satisfy_the_predicate(self):
        for _, af, p in instance_stream(15, base_seed=1600):
            fam = oracle_restrictedly_admissible(af, p)
            admissible = oracle_admissible(af, p.focus)
            for s in admissible:
                assert is_restrictedly_admissible(af, p, s) == (s in fam)


class TestOracleCap:
    def test_more_than_twenty_arguments_is_refused(self):
        af = build_framework([f"x{i}" for i in range(21)], [])
        with pytest.raises(BudgetExceeded):
            oracle_admissible(af)

    def test_custom_cap(self):
        af = build_framework([f"x{i}" for i in range(11)], [])
        with pytest.raises(BudgetExceeded):
            oracle_admissible(af, budget=SearchBudget(max_arguments_for_exhaustive=10))
        assert oracle_admissible(af)  # default cap admits 11

    def test_cap_applies_to_the_scan_space_not_the_framework(self):
        af = build_framework([f"x{i}" for i in range(30)], [])
        x = af.subset([f"x{i}" for i in range(12)])
        assert len(oracle_admissible(af, x)) == 1 << 12


class TestOracleDeadline:
    @staticmethod
    def two_cycles(k):
        names = [f"x{i}" for i in range(2 * k)]
        pairs = []
        for i in range(0, 2 * k, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        return build_framework(names, pairs)

    def test_maximality_pass_honours_the_ceiling(self):
        # 3^10 admissible sets and 2^10 preferred ones: the pairwise pass
        # alone takes seconds; allowed overshoot: 1 s for a loaded host and
        # one 256-candidate stretch between two deadline reads
        af = self.two_cycles(10)
        started = time.monotonic()
        with pytest.raises(BudgetExceeded, match="ceiling of 0.5s exhausted"):
            oracle_preferred(af, SearchBudget(wall_clock_seconds=0.5))
        assert time.monotonic() - started < 0.5 + 1.0

    def test_filter_maximal_reads_its_deadline(self):
        af = self.two_cycles(3)
        fam = oracle_admissible(af)
        past = SearchBudget(wall_clock_seconds=-1.0).deadline()
        with pytest.raises(BudgetExceeded):
            filter_maximal(fam, deadline=past)
        with pytest.raises(BudgetExceeded):
            filter_maximal(oracle_min_def(af, md.Partition(
                af, af.full_set(), af.empty_set())), "prec",
                md.Partition(af, af.full_set(), af.empty_set()),
                deadline=past)
        kept = filter_maximal(fam, deadline=SearchBudget(
            wall_clock_seconds=60.0).deadline())
        assert kept == filter_maximal(fam) and len(kept) == 8


class TestOracleCeilingAfterTheScan:
    """The clock jumps past a 1 s ceiling once a step has returned; the
    next read of the ceiling refuses."""

    ORACLES = {
        "conflict-free": lambda af, p, b: oracle_conflict_free(af, None, b),
        "admissible": lambda af, p, b: oracle_admissible(af, None, b),
        "preferred": lambda af, p, b: oracle_preferred(af, b),
        "preferred-on-f": lambda af, p, b: oracle_preferred_on(
            af, p.focus, b),
        "restricted-admissible": oracle_restrictedly_admissible,
        "min-def": oracle_min_def,
    }
    # six two-cycles: 729 admissible sets, 64 preferred ones
    SIX = TestOracleDeadline.two_cycles(6)
    SIX_P = md.Partition(SIX, SIX.full_set(), SIX.empty_set())
    CEILING = r"^wall-clock ceiling of 1\.0s exhausted$"

    @pytest.mark.parametrize("semantics", ORACLES)
    def test_mapping_the_scanned_sets_back_reads_the_ceiling(
            self, semantics, clock_skew, monkeypatch):
        scan = _kernels.subset_scan

        def scan_then_jump(*args):
            found = scan(*args)
            clock_skew[0] += 10.0
            return found

        monkeypatch.setattr(_kernels, "subset_scan", scan_then_jump)
        with pytest.raises(BudgetExceeded, match=self.CEILING):
            self.ORACLES[semantics](self.SIX, self.SIX_P,
                                    SearchBudget(wall_clock_seconds=1.0))

    def test_the_restricted_admissibility_pass_reads_the_ceiling(
            self, clock_skew, monkeypatch):
        # twelve unattacked arguments: 4096 scanned sets, and the clock
        # jumps at the first test, after the read at the first set
        af = build_framework([f"x{i}" for i in range(12)], [])
        p = md.Partition(af, af.full_set(), af.empty_set())
        test = oracle.is_restrictedly_admissible

        def test_then_jump(af, p, s):
            clock_skew[0] = 10.0
            return test(af, p, s)

        monkeypatch.setattr(oracle, "is_restrictedly_admissible",
                            test_then_jump)
        with pytest.raises(BudgetExceeded, match=self.CEILING):
            oracle_restrictedly_admissible(
                af, p, SearchBudget(wall_clock_seconds=1.0))

    @pytest.mark.parametrize("semantics", ORACLES)
    def test_a_returned_family_is_ordered_under_the_ceiling(
            self, semantics, clock_skew, monkeypatch):
        fam = self.ORACLES[semantics](self.SIX, self.SIX_P,
                                      SearchBudget(wall_clock_seconds=1.0))
        assert len(fam) in (64, 729)
        jump_after_the_codes(clock_skew, monkeypatch)
        with pytest.raises(BudgetExceeded, match=self.CEILING):
            fam.members

    def test_filter_maximal_hands_its_deadline_to_the_family(
            self, clock_skew, monkeypatch):
        kept = filter_maximal(oracle_admissible(self.SIX),
                              deadline=SearchBudget(
                                  wall_clock_seconds=1.0).deadline())
        jump_after_the_codes(clock_skew, monkeypatch)
        with pytest.raises(BudgetExceeded, match=self.CEILING):
            kept.members


@pytest.mark.parametrize("semantics", TestOracleCeilingAfterTheScan.ORACLES)
def test_every_entry_point_reads_the_cap_of_a_started_ceiling(semantics):
    # four arguments, all in the focus: r defends a against b
    af = build_framework(["a", "b", "r", "s"],
                         [("b", "a"), ("r", "b"), ("s", "r")])
    p = md.build_partition(af, af.names, ["r"])
    call = TestOracleCeilingAfterTheScan.ORACLES[semantics]
    with pytest.raises(BudgetExceeded, match="^exhaustive scan over 4 "
                                             "arguments exceeds the cap of 3$"):
        call(af, p, _kernels.Ceiling(math.inf, cap=3))
    assert call(af, p, _kernels.Ceiling(math.inf, cap=4)) == call(af, p, None)


def _scan_outcome(scan):
    """What the call ``scan()`` answers: its masks, or the text of its
    refusal."""
    try:
        return scan()
    except BudgetExceeded as refusal:
        return str(refusal)


def _layout_instances():
    """(framework, partition) pairs: the random stream, every structured
    shape under a seeded partition, and the restricted instances."""
    for _, af, p in instance_stream(120, base_seed=2300,
                                    sizes=(0, 1, 4, 7, 10, 13, 16)):
        yield af, p
    for shape in ("two-cycles", "chain", "cycle", "isolated", "path",
                  "cascade"):
        for size in range(1, 8):
            af = build_framework(*structured_framework(shape, size))
            rng = random.Random(size)
            focus = [a for a in af.names if rng.random() < 0.7]
            yield af, md.build_partition(
                af, focus, [a for a in focus if rng.random() < 0.5])
    yield from restricted_instances()


def _spaces(af, p, rng):
    """The three kinds of space: every argument, the focus, and seeded
    random ``--on`` subsets, the empty one first."""
    yield None
    yield p.focus
    for size in (0, rng.randint(1, min(len(af), 12) or 1)):
        picked = rng.sample(af.names, min(size, len(af)))
        yield af.subset(picked)


class TestTheOraclesOwnLayout:
    """``oracle._scan`` against the scan over the solver's ``LocalSpace``
    it replaced (``conftest.local_space_scan``)."""

    def test_the_scan_returns_the_local_space_scans_masks_in_order(self):
        rng = random.Random(23)
        outcomes = []
        for af, p in _layout_instances():
            for x in _spaces(af, p, rng):
                for defence in (False, True):
                    got = _scan_outcome(lambda: oracle._scan(
                        af, x, defence, _kernels.UNBOUNDED))
                    want = _scan_outcome(lambda: local_space_scan(
                        af, x, None, defence, _kernels.UNBOUNDED))
                    assert got == want, (af.names, x, defence)
                    outcomes.append(isinstance(got, list))
        # scans, and refusals of the spaces past the cap
        assert outcomes.count(True) > 1700 and outcomes.count(False) > 150

    def test_the_numpy_reference_scan_reads_the_new_layout(self):
        rng = random.Random(24)
        for af, p in _layout_instances():
            for x in _spaces(af, p, rng):
                space = af.full_mask if x is None else x.mask
                k = space.bit_count()
                if k > 14:
                    continue
                for defence in (False, True):
                    layout = oracle._layout(af, space, defence)
                    assert (_kernels.subset_scan(k, layout)
                            == numpy_subset_scan(k, layout)), (af.names, x)

    def test_a_full_space_layout_is_the_frameworks_masks(self, af1):
        layout = oracle._layout(af1, af1.full_mask, True)
        assert layout.members is None
        assert layout.owes is af1.attacker_masks
        assert layout.answerers is af1.attacker_masks
        assert layout.conflict == [a | t for a, t in zip(
            af1.attacker_masks, af1.target_masks)]
        plain = oracle._layout(af1, af1.full_mask, False)
        assert plain.owes == [0] * len(af1) and plain.answerers == []

    def test_a_space_layout_holds_one_obligation_per_attacker_of_a_member(
            self):
        # the ROADMAP's sparse 4000 recipe: 2n distinct seeded attack pairs
        n = 4000
        rng = random.Random(1)
        pairs = set()
        while len(pairs) < 2 * n:
            pairs.add((rng.randrange(n), rng.randrange(n)))
        af = md.ArgumentationFramework(tuple(f"a{i}" for i in range(n)),
                                       pairs)
        # the 12 arguments nearest a0 over attacks either way, so that
        # members attack one another and their attackers
        space = frontier = 1
        while space.bit_count() < 12:
            reach = 0
            for g in bits(frontier):
                reach |= af.attacker_masks[g] | af.target_masks[g]
            frontier = 0
            for g in bits(reach & ~space):
                if space.bit_count() < 12:
                    space |= 1 << g
                    frontier |= 1 << g
        members = list(bits(space))
        layout = oracle._layout(af, space, True)
        attackers = sorted({b for g in members
                            for b in bits(af.attacker_masks[g])})
        assert layout.members == members
        assert len(layout.answerers) == len(attackers) < 40
        for o, b in enumerate(attackers):
            assert layout.answerers[o] == sum(
                1 << j for j, g in enumerate(members)
                if af.target_masks[g] >> b & 1)
            assert [j for j in range(12) if layout.owes[j] >> o & 1] == [
                j for j, g in enumerate(members)
                if af.attacker_masks[g] >> b & 1]
        assert layout.conflict == [
            sum(1 << j for j, h in enumerate(members)
                if (af.attacker_masks[g] | af.target_masks[g]) >> h & 1)
            for g in members]
        assert any(layout.answerers) and any(layout.conflict)
        assert oracle._scan(af, af.set_from_mask(space), True,
                            _kernels.UNBOUNDED) == local_space_scan(
            af, af.set_from_mask(space), None, True, _kernels.UNBOUNDED)


def _refuse_a_local_space(*args):
    raise AssertionError("the oracle built a LocalSpace")


class TestOracleIndependentOfLocalSpace:
    """Every oracle answers with ``_kernels.LocalSpace`` unusable, and
    agrees with the solver, which builds one."""

    def test_every_oracle_entry_point(self, af1, p3, monkeypatch):
        x = p3.focus
        calls = {
            "conflict-free": (md.conflict_free_sets,
                              oracle_conflict_free, (af1, x)),
            "admissible": (md.admissible_sets, oracle_admissible, (af1,)),
            "admissible on": (md.admissible_sets, oracle_admissible,
                              (af1, x)),
            "preferred": (md.preferred_extensions, oracle_preferred,
                          (af1,)),
            "preferred-on-f": (md.preferred_extensions_on,
                               oracle_preferred_on, (af1, x)),
            "restricted-admissible": (md.restrictedly_admissible_sets,
                                      oracle_restrictedly_admissible,
                                      (af1, p3)),
            "min-def": (md.min_def_extensions, oracle_min_def, (af1, p3)),
        }
        want = {name: solve(*args) for name, (solve, _, args)
                in calls.items()}
        monkeypatch.setattr(_kernels, "LocalSpace", _refuse_a_local_space)
        for name, (_, run_oracle, args) in calls.items():
            assert run_oracle(*args) == want[name], name

    def test_the_oracle_command(self, capsys, monkeypatch):
        af3 = str(FIXTURE_DIR / "af3.afp")
        requests = [["-s", semantics] for semantics in SEMANTICS]
        requests += [["-s", semantics, flag, "r2"] for semantics in SEMANTICS
                     for flag in ("--credulous", "--skeptical")]
        requests.append(["-s", "preferred-on-f", "--on", "u2,u3,r1,r2"])
        want = []
        for flags in requests:
            assert main(["solve", af3, *flags]) == 0
            want.append(capsys.readouterr().out)
        monkeypatch.setattr(_kernels, "LocalSpace", _refuse_a_local_space)
        for flags, out in zip(requests, want):
            assert main(["oracle", af3, *flags]) == 0, flags
            assert capsys.readouterr().out == out, flags
