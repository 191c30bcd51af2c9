import math
import random
import time

import pytest

import mindef as md
from mindef import (BudgetExceeded, EmptyFamily, ExtensionFamily,
                    NotWithinFocus, PreconditionViolated, SearchBudget,
                    build_framework, credulous_accepted,
                    filter_maximal, min_def_extensions,
                    minimize_restricted, preferred_extensions,
                    preferred_extensions_on, skeptical_accepted)
from mindef import _kernels, extensions, oracle
from mindef.cli import FAMILIES, QUERIES, SolveRequest, _decide
from mindef.extensions import ADMISSIBLE_ALL, ADMISSIBLE_MAX, CONFLICT_FREE
from mindef.model import bits
from mindef.semantics import _parity_reachable

from conftest import (assert_same_factor_members,
                      containment_cut_dfs_enumerate, factor_query,
                      fewest_answerers_minimize, fixed_order_dfs_enumerate,
                      filtered_restrictedly_admissible_sets,
                      fixed_point_prepare_space, grouped_accepted,
                      instance_stream,
                      jump_after_the_codes, keyed_sort_ranks,
                      many_supports, name_tuple_order,
                      obligation_list_minimize,
                      pairwise_min_def, pairwise_minimal_masks,
                      predicate_restrictedly_admissible,
                      rescan_prepare_space, restricted_instances,
                      single_tree_solve_space,
                      sparse_instance, sset, structured_framework,
                      structured_stream, subset_walk_minimize,
                      undropped_solve_space, watch_list_dfs_enumerate)


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

    def test_another_frameworks_base_set_is_an_error(self, af1):
        other, _ = md.builtin_fixtures()["AF1"]
        with pytest.raises(md.CrossFrameworkSet):
            md.admissible_sets(af1, within=sset(other, "o1"))


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

    def test_matches_the_pairwise_prec_filter_above_the_oracle_cap(self):
        # n=30-60, restricted-heavy focus: many instances have several
        # candidates with the same unrestricted part
        shared = 0
        for seed in range(120):
            n = 30 + seed % 31
            af, p = md.random_instance(md.GeneratorConfig(
                n, (1.0 + seed % 3 / 2) / n, 0.8, 0.5, seed=seed))
            got = min_def_extensions(af, p)
            assert got.members == pairwise_min_def(af, p).members, seed
            u_parts = [s.mask & p.unrestricted.mask for s in got]
            shared += len(set(u_parts)) < len(u_parts)
        assert shared >= 10


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

    def test_requires_the_partition_of_the_framework(self, af1):
        # the same AF3 built a second time is another framework
        _, other_p3 = md.builtin_fixtures()["AF3"]
        with pytest.raises(md.CrossFrameworkSet):
            minimize_restricted(af1, other_p3,
                                sset(af1, "u2,u3,u4,u5,r1,r2,r3"))

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

    def test_every_support_of_many_independent_choices_is_found(self):
        # eight attackers of u, each countered by either of two restricted
        # arguments: 256 minimal supports, all of one size
        af, p = many_supports(8)
        e = p.focus
        got = {s.mask for s in minimize_restricted(af, p, e)}
        assert got == subset_walk_minimize(af, p, e)
        assert len(got) == 2 ** 8

    def test_an_early_leaf_may_contain_a_later_one(self, monkeypatch):
        # b1 and b2 attack u; r1 answers b1, r2 answers b2, r3 answers
        # both. The search branches on b1: r1, then r2 or r3; then r3
        # alone. So the leaf {u,r1,r3} comes before {u,r3}, which it
        # contains, and the pass after the search must drop it
        af = build_framework(
            ["u", "b1", "b2", "r1", "r2", "r3"],
            [("b1", "u"), ("b2", "u"), ("r1", "b1"), ("r2", "b2"),
             ("r3", "b1"), ("r3", "b2")])
        p = md.build_partition(af, ["u", "r1", "r2", "r3"],
                               ["r1", "r2", "r3"])
        minimal = extensions._subset_minimal_masks
        passes = []

        def recorded(masks, deadline=None):
            passes.append(list(masks))
            return minimal(masks, deadline)

        monkeypatch.setattr(extensions, "_subset_minimal_masks", recorded)
        fam = minimize_restricted(af, p, p.focus)
        assert passes == [[sset(af, names).mask for names in
                           ("u,r1,r2", "u,r1,r3", "u,r3")]]
        assert fam.members == (sset(af, "r1,r2,u"), sset(af, "r3,u"))
        assert {s.mask for s in fam} == subset_walk_minimize(af, p, p.focus)


def suffixes(pos_idx):
    """Per depth ``d``, the mask of ``pos_idx[d:]``: what the fixed-order
    references read as ``suffix_avail``."""
    suffix = [0] * (len(pos_idx) + 1)
    for d in range(len(pos_idx) - 1, -1, -1):
        suffix[d] = suffix[d + 1] | 1 << pos_idx[d]
    return suffix


class TestAgainstObligationLists:
    """The tree kernel and the minimiser against the code they replaced:
    the fixed-order tree and the walk that read per-member obligation
    lists, and the minimiser's own loop and the one that kept lists.

    The comparisons read what answers depend on, not the order of the
    leaves. An all-sets call returns the same sets, each once. A maximal
    call returns admissible sets with the same inclusion-maximal ones. A
    ``minimize_restricted`` call, the kernel's minimal mode, returns the
    same supports.

    Every kernel call also returns exactly the list, in order, of the
    kernel before its minimal mode lost the containment cut; in the
    minimal mode that kernel's leaves lack the forced members, so each is
    read with them. The cut therefore never fired on these instances. A
    witness call returns that kernel's first minimal leaf, or nothing
    when it has none."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Counts of the kernel calls per mode, and of the minimiser calls,
        checked so far."""
        counts = {"all": 0, "maximal": 0, "minimal": 0, "witness": 0,
                  "minimize": 0}
        kernel = _kernels.dfs_enumerate
        minimize = extensions.minimize_restricted

        def dfs(k, pos_idx, branchable, forced_mask, space, mode,
                deadline):
            got = kernel(k, pos_idx, branchable, forced_mask, space, mode,
                         deadline)
            minimal = mode in (_kernels.MINIMAL, _kernels.WITNESS)
            cut = containment_cut_dfs_enumerate(
                k, pos_idx, (branchable,), forced_mask, space,
                _kernels.MINIMAL if minimal else mode, deadline)
            if mode == _kernels.WITNESS:
                assert got == [forced_mask | leaf for leaf in cut[:1]]
                counts["witness"] += 1
                return got
            if mode == _kernels.MINIMAL:
                assert got == [forced_mask | leaf for leaf in cut]
                counts["minimal"] += 1
                return got
            assert got == cut
            suffix = suffixes(pos_idx)
            assert suffix[0] == branchable
            args = (k, pos_idx, suffix, forced_mask, space, mode)
            want = fixed_order_dfs_enumerate(*args)
            assert want == watch_list_dfs_enumerate(*args)
            if mode == _kernels.MAXIMAL:
                for m in got:
                    owed = answered = 0
                    for j in bits(m):
                        assert space.conflict[j] & m == 0
                        owed |= space.owes[j]
                        answered |= space.answers[j]
                    assert owed & ~answered == 0
                assert (sorted(extensions._subset_maximal_masks(got))
                        == sorted(extensions._subset_maximal_masks(want)))
                counts["maximal"] += 1
            else:
                assert len(got) == len(set(got)) and set(got) == set(want)
                counts["all"] += 1
            return got

        def minimized(af, p, e, budget=None):
            got = minimize(af, p, e, budget)
            supports = set(got._factors[0])
            assert supports == fewest_answerers_minimize(af, p, e)
            assert supports == obligation_list_minimize(af, p, e)
            counts["minimize"] += 1
            return got

        monkeypatch.setattr(_kernels, "dfs_enumerate", dfs)
        monkeypatch.setattr(extensions, "minimize_restricted", minimized)
        return counts

    @staticmethod
    def solve(af, p, modes=(CONFLICT_FREE, ADMISSIBLE_ALL, ADMISSIBLE_MAX)):
        for mode in modes:
            for space in (af.full_mask, p.focus.mask):
                extensions._solve_space(af, space, mode, _kernels.UNBOUNDED)
        min_def_extensions(af, p)

    def test_random_instances(self, compared):
        for _, af, p in instance_stream(400, base_seed=15000):
            self.solve(af, p)
            for e in md.admissible_sets(af, p.focus):
                extensions.minimize_restricted(af, p, e)
        assert compared["all"] > 3000 and compared["maximal"] > 400
        assert compared["minimize"] == compared["minimal"] > 2000

    def test_structured_shapes(self, compared):
        small = {"two-cycles": range(1, 4), "chain": range(1, 5),
                 "cycle": range(1, 10), "isolated": range(1, 4)}
        for k, (_, af) in enumerate(structured_stream(60, 15500, small)):
            rng = random.Random(k)
            focus = [a for a in af.names if rng.random() < 0.8]
            restricted = [a for a in focus if rng.random() < 0.5]
            self.solve(af, md.build_partition(af, focus, restricted))
        assert compared["all"] + compared["maximal"] > 300
        assert compared["minimize"] == compared["minimal"] > 60

    def test_many_supports(self, compared):
        # every maximal search is forced whole here, so the tree search
        # runs on the focus's admissible sets: 2^2k + 3^k of them
        for k in range(2, 9):
            af, p = many_supports(k)
            extensions._solve_space(af, p.focus.mask, ADMISSIBLE_ALL,
                                    _kernels.UNBOUNDED)
            min_def_extensions(af, p)
        assert compared == {"all": 7, "maximal": 0, "minimal": 7,
                            "witness": 0, "minimize": 7}

    def test_sparse_frameworks_above_the_oracle_cap(self, compared):
        # the population the min-def benchmark draws from; min-def searches
        # the focus only (the whole framework has a heavy tail here)
        for n in range(100, 301, 2):
            min_def_extensions(*sparse_instance(n))
        assert compared["maximal"] > 40
        assert compared["minimize"] == compared["minimal"] > 150

    def test_witness_queries(self, compared):
        # every credulous query but conflict-free's runs one witness search
        # when its argument is left as a candidate
        for _, af, p in instance_stream(150, base_seed=15700):
            for a in af.names:
                for semantics in ("admissible", "restricted-admissible"):
                    _decide(af, p, SolveRequest(
                        semantics=semantics, mode="credulous", argument=a),
                        _kernels.UNBOUNDED)
        assert compared["witness"] > 600


class TestSubsetMinimalMasks:
    def test_matches_the_pairwise_pass(self):
        # seeded lists over 3-12 bits, with duplicates and the empty mask
        for seed in range(300):
            rng = random.Random(seed)
            width = 3 + seed % 10
            masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 60))]
            masks += rng.sample(masks, len(masks) // 3)
            if seed % 4 == 0:
                masks.append(0)
            rng.shuffle(masks)
            got = extensions._subset_minimal_masks(masks)
            assert len(got) == len(set(got)), seed
            assert set(got) == set(pairwise_minimal_masks(masks)), seed
            maximal = {m for m in masks
                       if not any(o != m and m | o == o for o in masks)}
            assert set(extensions._subset_maximal_masks(masks)) == maximal

    def test_one_layer_of_incomparable_masks_is_kept_whole(self):
        # one of each of ten bit pairs: 2^10 masks of ten bits, none
        # containing another; their supersets and duplicates go
        layer = [sum(1 << (2 * i + (n >> i & 1)) for i in range(10))
                 for n in range(1 << 10)]
        masks = layer + [m | 1 << 20 for m in layer[::7]] + layer[::5]
        random.Random(1).shuffle(masks)
        got = extensions._subset_minimal_masks(masks)
        assert sorted(got) == sorted(layer)
        assert set(got) == set(pairwise_minimal_masks(masks))


class TestPrepareSpace:
    """The work-list preparation against the rescans it replaced and
    against the loop that recomputed the core after every change, in every
    mode, on the whole space and on a part of it."""

    MODES = (CONFLICT_FREE, ADMISSIBLE_ALL, ADMISSIBLE_MAX)

    @classmethod
    def assert_same(cls, af, focus_mask):
        for mode in cls.MODES:
            for space in (af.full_mask, focus_mask):
                got = extensions._prepare_space(af, space, mode)
                assert got == rescan_prepare_space(af, space, mode)
                assert got == fixed_point_prepare_space(af, space, mode)

    @staticmethod
    def shape(shape, size, self_attacking=()):
        names, attacks = structured_framework(shape, size)
        return build_framework(names, attacks
                               + [(x, x) for x in self_attacking])

    @staticmethod
    def part(af, seed):
        rng = random.Random(seed)
        return af.subset(a for a in af.names if rng.random() < 0.7).mask

    def test_random_instances(self):
        for _, af, p in instance_stream(300, base_seed=6000):
            self.assert_same(af, p.focus.mask)

    def test_structured_shapes(self):
        for k, (_, af) in enumerate(structured_stream(60, 6500)):
            self.assert_same(af, self.part(af, k))

    def test_chains_and_paths(self):
        # the references rescan a path once per member of its core, so
        # paths stay short here; the work test below takes a long one
        for shape, sizes in (("chain", range(1, 401)),
                             ("path", range(1, 81))):
            for k in sizes:
                af = self.shape(shape, k)
                self.assert_same(af, self.part(af, k))

    def test_drop_cascades(self):
        # c_i owes b_i, which only c_(i-1) answers, and the c_i are
        # declared in reverse: c_0's drop takes every c_i with it
        for k in (1, 2, 3, 5, 8, 40, 150):
            af = self.shape("cascade", k)
            self.assert_same(af, self.part(af, k))
            c = af.subset(f"xc{i}" for i in range(k)).mask
            assert extensions._prepare_space(
                af, af.full_mask, ADMISSIBLE_MAX) == (af.full_mask ^ c,
                                                      af.full_mask ^ c)

    def test_self_attackers_inside_a_chain(self):
        for k in range(2, 60):
            af = self.shape("chain", k, [f"xb{i}" for i in range(0, k, 3)]
                            + [f"xa{k - 1}"])
            self.assert_same(af, self.part(af, k))
            cand, _ = extensions._prepare_space(af, af.full_mask,
                                                CONFLICT_FREE)
            assert not cand & af.subset(["xb0", f"xa{k - 1}"]).mask

    def test_spaces_without_any_answerer_of_an_attacker(self):
        # leave out of the space every answerer of one attacker of a space
        # member: none of that attacker's targets survives the drop
        shapes = [af for _, af, _ in instance_stream(80, base_seed=6900)]
        shapes += [self.shape("chain", 9), self.shape("path", 9),
                   self.shape("cascade", 9)]
        checked = 0
        for k, af in enumerate(shapes):
            rng = random.Random(k)
            att = af.attacker_masks
            space = self.part(af, k)
            attackers = [b for i in bits(space) for b in bits(att[i])]
            if not attackers:
                continue
            b = rng.choice(attackers)
            space &= ~att[b]
            self.assert_same(af, space)
            for mode in (ADMISSIBLE_ALL, ADMISSIBLE_MAX):
                cand, _ = extensions._prepare_space(af, space, mode)
                assert not cand & af.target_masks[b]
            checked += 1
        assert checked > 60

    def test_sparse_frameworks_above_the_oracle_cap(self):
        # the population the min-def benchmark draws from
        dropped = 0
        for n in range(100, 301, 2):
            af, p = sparse_instance(n)
            self.assert_same(af, p.focus.mask)
            cand, _ = extensions._prepare_space(af, af.full_mask,
                                                ADMISSIBLE_MAX)
            dropped += cand != af.full_mask
        assert dropped > 50

    def test_work_is_linear_in_the_relation(self, monkeypatch):
        # not a timing test: count the indices the preparation walks. Each
        # argument's targets are walked at most once per work list, so a
        # return to whole-space rescans, quadratic on these shapes, fails
        steps = 0

        def counting(mask):
            nonlocal steps
            for i in bits(mask):
                steps += 1
                yield i

        monkeypatch.setattr(extensions, "bits", counting)
        for af in (self.shape("path", 2000), self.shape("cascade", 1000),
                   self.shape("chain", 1000)):
            size = len(af) + sum(m.bit_count() for m in af.target_masks)
            for mode in self.MODES:
                steps = 0
                extensions._prepare_space(af, af.full_mask, mode)
                assert 0 < steps <= 4 * size


class TestComponentSearch:
    def test_independent_groups_are_searched_apart(self):
        # two two-cycles, an isolated argument, and z, whose attacker y lies
        # outside the space: z shares no conflict with x but needs it
        af = build_framework("abcdexyz", [
            ("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"),
            ("y", "z"), ("x", "y")])
        space = _kernels.LocalSpace(
            af, af.subset("abcdexz").mask, defence=True)
        groups = sorted(space.to_global(g) for g in space.components(-1))
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
                got = extensions._product(extensions._solve_space(
                    af, space, mode, _kernels.UNBOUNDED), _kernels.UNBOUNDED)
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
                got = extensions._product(extensions._solve_space(
                    af, af.full_mask, mode, _kernels.UNBOUNDED),
                    _kernels.UNBOUNDED)
                assert len(got) == len(set(got)), label
                assert set(got) == single_tree_solve_space(
                    af, af.full_mask, mode), label

    def test_restrictedly_admissible_sets_match_the_predicate(self):
        members = 0
        for af, p in restricted_instances():
            got = md.restrictedly_admissible_sets(af, p)
            assert got.members == predicate_restrictedly_admissible(
                af, p).members
            members += len(got)
        assert members > 1000

    def test_restrictedly_admissible_sets_match_the_filtered_reference(self):
        # the obligations against the post filter they replace, which
        # answers on all of these, and against the oracle within its cap
        scanned = 0
        for af, p in restricted_instances():
            got = md.restrictedly_admissible_sets(af, p)
            assert got.members == filtered_restrictedly_admissible_sets(
                af, p).members
            if len(p.focus) <= 20:
                assert got == md.oracle_restrictedly_admissible(af, p)
                scanned += 1
        assert scanned == 40

    def test_restrictedly_admissible_sets_build_one_family(self, monkeypatch):
        built = []

        class Counted(ExtensionFamily):
            __slots__ = ()

            def __init__(self, members):
                built.append(1)
                super().__init__(members)

            @classmethod
            def _product_of(cls, *args):
                built.append(1)
                return super()._product_of(*args)

        monkeypatch.setattr(extensions, "ExtensionFamily", Counted)
        for _, af, p in instance_stream(20, base_seed=9500):
            built.clear()
            fam = md.restrictedly_admissible_sets(af, p)
            assert len(built) == 1
            assert fam == md.oracle_restrictedly_admissible(af, p)


class TestRestrictedDrop:
    """Restricted candidates whose defender walk reaches no candidate are
    dropped before the search, with the drop rerun after them."""

    def test_a_restricted_two_cycle_is_dropped(self):
        # r1 and r2 each defend only themselves; u stands alone
        af = build_framework(["r1", "r2", "u"], [("r1", "r2"), ("r2", "r1")])
        p = md.build_partition(af, ["r1", "r2", "u"], ["r1", "r2"])
        cand, forced, extra = extensions._candidates(
            af, p.focus.mask, ADMISSIBLE_ALL, _kernels.UNBOUNDED, p)
        assert (cand, forced, extra) == (sset(af, "u").mask, 0, [])
        factors = extensions._solve_space(af, p.focus.mask, ADMISSIBLE_ALL,
                                          _kernels.UNBOUNDED, p)
        assert [sorted(masks) for masks in factors] == [[0, 4]]

    def test_families_equal_the_undropped_search(self):
        # member for member, group by group, on random and structured
        # instances; one rerun of the drop leaves no hopeless candidate
        deadline = _kernels.UNBOUNDED
        dropped = 0
        for af, p in restricted_instances():
            focus = p.focus.mask
            got = extensions._solve_space(af, focus, ADMISSIBLE_ALL,
                                          deadline, p)
            assert_same_factor_members(got, undropped_solve_space(
                af, focus, ADMISSIBLE_ALL, deadline, p))
            cand, _, extra = extensions._candidates(
                af, focus, ADMISSIBLE_ALL, deadline, p)
            assert [x for x, _ in extra] == list(
                bits(cand & p.restricted.mask))
            assert all(_parity_reachable(af.target_masks, x)
                       & p.unrestricted.mask & cand for x, _ in extra)
            before, _ = extensions._prepare_space(af, focus, ADMISSIBLE_ALL)
            dropped += cand != before
        assert dropped == 50


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

    def test_bad_orders_and_partitions_are_rejected(self, af1):
        fam = ExtensionFamily([sset(af1, "u1")])
        with pytest.raises(ValueError, match="^unknown order 'superset'$"):
            filter_maximal(fam, order="superset")
        with pytest.raises(ValueError, match="^prec order needs a partition$"):
            filter_maximal(fam, order="prec")
        # the same AF3 built a second time is another framework
        _, other_p3 = md.builtin_fixtures()["AF3"]
        with pytest.raises(md.CrossFrameworkSet):
            filter_maximal(fam, order="prec", partition=other_p3)


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

    def test_families_past_2_to_the_63_members_answer(self):
        # their len() overflows; emptiness is read from the factors
        af = build_framework([f"x{i}" for i in range(64)], [])
        fam = md.conflict_free_sets(af)
        with pytest.raises(OverflowError):
            len(fam)
        assert credulous_accepted(af, fam, "x3")
        assert not skeptical_accepted(af, fam, "x3")

    def test_another_frameworks_family_is_an_error(self, af1):
        other, _ = md.builtin_fixtures()["AF1"]
        fam = preferred_extensions(other)
        for accept in (credulous_accepted, skeptical_accepted):
            with pytest.raises(md.CrossFrameworkSet):
                accept(af1, fam, "o1")


class TestFamily:
    def test_members_of_two_frameworks_are_rejected(self, af1):
        other, _ = md.builtin_fixtures()["AF1"]
        with pytest.raises(md.CrossFrameworkSet):
            ExtensionFamily([sset(af1, "o1"), sset(other, "o1")])

    def test_membership_reads_the_framework_and_every_factor(self, af1):
        fam = ExtensionFamily._product_of(
            af1, [[sset(af1, "u1").mask, sset(af1, "u2").mask],
                  [sset(af1, "o1").mask]])
        other, _ = md.builtin_fixtures()["AF1"]
        assert sset(af1, "o1,u1") in fam and sset(af1, "o1,u2") in fam
        assert sset(other, "o1,u1") not in fam
        assert sset(af1, "o1,u1").mask not in fam
        # a part missing from the second factor, or outside every factor
        assert sset(af1, "u1") not in fam
        assert sset(af1, "o1,u1,u2") not in fam
        assert sset(af1, "o1,u1,u3") not in fam

    def test_members_are_deduplicated_and_ordered(self, af1):
        fam = ExtensionFamily([sset(af1, "u2,u1"), sset(af1, "o1"),
                               sset(af1, "u1,u2")])
        assert fam.members == (sset(af1, "o1"), sset(af1, "u1,u2"))

    def test_canonical_order_is_by_sorted_name_tuples(self, af1):
        fam = ExtensionFamily([sset(af1, "u2"), sset(af1, "u1,u5"),
                               af1.empty_set()])
        assert [tuple(sorted(s.names)) for s in fam] == [
            (), ("u1", "u5"), ("u2",)]

    def test_canonical_order_matches_the_name_tuple_reference(self):
        # names whose order differs from declaration order, and widths on
        # both sides of the 8- and 64-bit boundaries
        tricky = ["a", "a1", "a10", "a2", "Z", "Z1", "_x", "_", "9", "10",
                  "09", "b", "B", "aa", "a_", "x1"]
        rng = random.Random(5)
        for trial in range(300):
            n = rng.choice([0, 1, 7, 8, 9, 15, 16, 17, 30, 63, 64, 65, 70])
            names = rng.sample(tricky + [f"q{i}" for i in range(80)], n)
            af = build_framework(names, [])
            sets = [md.ArgumentSet(af, rng.getrandbits(n) & rng.getrandbits(n))
                    for _ in range(rng.randint(0, 40))]
            if trial % 3 == 0:
                sets.append(af.empty_set())
            fam = ExtensionFamily(sets)
            want = name_tuple_order(sets)
            assert list(fam.members) == want, trial
            assert list(fam.member_names()) == [sorted(s.names) for s in want]

    @pytest.mark.parametrize("multiply_out", ["default", 0])
    def test_ordering_matches_the_keyed_sort_of_the_product(
            self, multiply_out, monkeypatch):
        # 3000 seeded factorings of 8, 16 or 24 ranks into 1-5 factors, with
        # and without the empty mask, one-mask factors among them; the
        # second run groups every product by lowest bit, small ones too
        if multiply_out != "default":
            monkeypatch.setattr(extensions, "_MULTIPLY_OUT", multiply_out)
        rng = random.Random(16)
        af = build_framework(rng.sample([f"n{i:02}" for i in range(24)], 24),
                             [])
        for trial in range(3000):
            width = (8, 16, 24)[trial % 3]
            spans = [0] * (1 + trial // 3 % 5)
            for i in rng.sample(range(24), width):
                spans[rng.randrange(len(spans))] |= 1 << i
            factors = []
            for span in spans:
                masks = {span}
                for _ in range(rng.choice([0, 1, 2, 4, 8][:7 - len(spans)])):
                    masks.add(span & rng.getrandbits(24))
                if rng.random() < 0.5:
                    masks.add(0)
                factors.append(list(masks))
            fam = ExtensionFamily._product_of(af, factors)
            assert fam._ordered() == keyed_sort_ranks(fam), trial

    def test_empty_families_hash_alike(self, af1):
        # equal families, whatever their framework or form, share a hash
        empty = [ExtensionFamily([]),
                 ExtensionFamily._product_of(af1, [[]]),
                 ExtensionFamily._product_of(af1, [[1, 2], []])]
        assert all(x == empty[0] for x in empty)
        assert len({hash(x) for x in empty}) == 1 and len(set(empty)) == 1

    def test_solver_families_follow_the_name_tuple_reference(self):
        for _, af, p in instance_stream(40, base_seed=8100):
            for fam in (md.admissible_sets(af), md.conflict_free_sets(af),
                        md.restrictedly_admissible_sets(af, p),
                        min_def_extensions(af, p)):
                assert list(fam.members) == name_tuple_order(fam.members)


# twelve unattacked arguments, all in the focus, none restricted
ISOLATED = build_framework([f"x{i}" for i in range(12)], [])
ISOLATED_P = md.Partition(ISOLATED, ISOLATED.full_set(),
                          ISOLATED.empty_set())
TWO_CYCLE = build_framework(["a", "b"], [("a", "b"), ("b", "a")])


def _dfs_over(af, deadline):
    space = _kernels.LocalSpace(af, af.full_mask, False)
    pos_idx = list(range(len(af)))
    return _kernels.dfs_enumerate(len(af), pos_idx, af.full_mask, 0, space,
                                  _kernels.ALL, deadline)


# every stage that reads the request's ceiling, called with one that has
# already passed; each must refuse on its first read
CLOCK_STAGES = {
    "subset_scan": lambda past: _kernels.subset_scan(
        8, _kernels.LocalSpace(ISOLATED, 255, True), past),
    "dfs_enumerate": lambda past: _dfs_over(ISOLATED, past),
    "product": lambda past: extensions._product([[1, 2], [4, 8]], past),
    "member codes": lambda past: extensions._member_codes(
        [[1, 2], [4, 8]], 8, past),
    "lazy build": lambda past: ExtensionFamily._product_of(
        ISOLATED, [[1, 2], [4, 8]], past).members,
    "space preparation": lambda past: extensions._prepare_space(
        TWO_CYCLE, TWO_CYCLE.full_mask, ADMISSIBLE_MAX, past),
    "per-group maximality pass": lambda past: extensions._solve_space(
        TWO_CYCLE, TWO_CYCLE.full_mask, ADMISSIBLE_MAX, past),
    "acceptance query": lambda past: extensions.accepted(
        TWO_CYCLE, TWO_CYCLE.full_mask, ADMISSIBLE_MAX, "a", True, past),
    "oracle conversion": lambda past: oracle._scan(
        ISOLATED, ISOLATED.subset(["x0", "x1"]), False, past),
    "minimize_restricted": lambda past: minimize_restricted(
        ISOLATED, ISOLATED_P, ISOLATED.subset(["x0"]), past),
    "_subset_minimal_masks": lambda past: extensions._subset_minimal_masks(
        [1, 3], past),
    "filter_maximal subset": lambda past: filter_maximal(
        md.admissible_sets(ISOLATED), deadline=past),
    "filter_maximal prec": lambda past: filter_maximal(
        md.admissible_sets(ISOLATED), "prec", ISOLATED_P, deadline=past),
}


@pytest.mark.parametrize("stage", CLOCK_STAGES)
def test_every_clock_stage_refuses_naming_the_ceiling(stage, monkeypatch):
    # blocks of 16 patterns, so the 256-pattern scan reads the clock
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    past = SearchBudget(wall_clock_seconds=-1.0).deadline()
    with pytest.raises(BudgetExceeded,
                       match=r"^wall-clock ceiling of -1\.0s exhausted$"):
        CLOCK_STAGES[stage](past)
    # and each answers under a ceiling that has not passed
    CLOCK_STAGES[stage](SearchBudget(wall_clock_seconds=60.0).deadline())


class TestOutputCap:
    """``_kernels.MAX_SETS``, patched small: every place that collects or
    builds sets refuses past it instead of running out of memory."""

    CAP = r"^answer exceeds the cap of 100 sets$"

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(_kernels, "MAX_SETS", 100)

    def test_the_tree_kernel_refuses_a_group_past_the_cap(self):
        # z attacks x0..x9, so all eleven form one group of 2^10 + 1
        # conflict-free sets
        names = ["z"] + [f"x{i}" for i in range(10)]
        af = build_framework(names, [("z", x) for x in names[1:]])
        with pytest.raises(BudgetExceeded, match=self.CAP):
            md.conflict_free_sets(af)
        assert len(md.preferred_extensions(af)) == 1

    def test_the_product_refuses_before_building(self):
        # twelve groups of two sets each: every group is under the cap, the
        # family of 4096 is not; it is counted and queried, never built
        fam = md.conflict_free_sets(ISOLATED)
        assert len(fam) == 4096 and ISOLATED.subset(["x3"]) in fam
        assert credulous_accepted(ISOLATED, fam, "x0")
        for read in (lambda: fam.members, lambda: list(fam.member_names()),
                     lambda: hash(fam)):
            with pytest.raises(BudgetExceeded, match=self.CAP):
                read()
        with pytest.raises(BudgetExceeded, match=self.CAP):
            extensions._product([[0, 1]] * 7, _kernels.UNBOUNDED)
        assert len(extensions._product([[0, 1]] * 6,
                                       _kernels.UNBOUNDED)) == 64

    def test_the_ordering_refuses_before_building(self, monkeypatch):
        # 4096 members: the cap is read before the ranks, the codes or the
        # sort, and nothing is kept
        fam = md.conflict_free_sets(ISOLATED)

        def refuse(*args):
            raise AssertionError("built past the cap")

        with monkeypatch.context() as patched:
            patched.setattr(extensions, "bits", refuse)
            patched.setattr(extensions, "_member_codes", refuse)
            with pytest.raises(BudgetExceeded, match=self.CAP):
                fam._ordered()
        assert fam._ranks is None
        monkeypatch.setattr(_kernels, "MAX_SETS", 4096)
        assert len(fam._ordered()) == 4096

    def test_the_scan_refuses_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
        with pytest.raises(BudgetExceeded, match=self.CAP):
            md.oracle_conflict_free(ISOLATED)
        assert len(md.oracle_conflict_free(
            ISOLATED, ISOLATED.subset(["x0", "x1", "x2", "x3"]))) == 16


def test_families_past_2_to_the_63_members_refuse_under_the_real_cap():
    # 64 isolated arguments: 2^64 conflict-free sets; 64 two-cycles: 3^64
    # admissible sets and 2^64 preferred extensions. Each is counted from
    # its factors and refused, never passed through ``len``
    isolated = build_framework([f"x{i}" for i in range(64)], [])
    cycles = build_framework(
        [f"{s}{i}" for i in range(64) for s in "ab"],
        [pair for i in range(64)
         for pair in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))])
    cap = f"^answer exceeds the cap of {_kernels.MAX_SETS} sets$"
    for fam, same in ((md.conflict_free_sets(isolated),
                       md.admissible_sets(isolated)),
                      (md.admissible_sets(cycles), md.admissible_sets(cycles)),
                      (md.preferred_extensions(cycles),
                       md.preferred_extensions(cycles))):
        for read in (lambda: fam == same, lambda: hash(fam),
                     lambda: fam.members):
            with pytest.raises(BudgetExceeded, match=cap):
                read()
        # CPython's own limit on ``__len__``
        with pytest.raises(OverflowError):
            len(fam)
    # families of unequal counts differ without being built
    assert md.conflict_free_sets(isolated) != md.admissible_sets(cycles)


class TestBudget:
    def test_wall_clock_ceiling_aborts(self):
        names = [f"x{i}" for i in range(28)]
        pairs = []
        for i in range(0, 28, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        # the search answers in time with fourteen factors of three; building
        # the 3^14 members is what the ceiling stops
        fam = md.admissible_sets(af, budget=SearchBudget(wall_clock_seconds=0.02))
        assert len(fam) == 3 ** 14
        with pytest.raises(BudgetExceeded, match="ceiling of 0.02s exhausted"):
            fam.members

    def test_enumeration_without_ceiling_completes(self):
        names = [f"x{i}" for i in range(16)]
        pairs = []
        for i in range(0, 16, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        fam = preferred_extensions(af)
        assert len(fam) == 2 ** 8

    def test_min_def_shares_one_deadline_across_its_steps(self, clock_skew,
                                                          monkeypatch):
        # three two-cycles: three factors of two preferred masks on the
        # focus, each with a maximal unrestricted part, so six minimisations
        names = [f"x{i}" for i in range(6)]
        pairs = []
        for i in range(0, 6, 2):
            pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
        af = build_framework(names, pairs)
        p = md.Partition(af, af.full_set(), af.empty_set())
        skew = clock_skew
        minimize = md.extensions.minimize_restricted
        calls = []

        def slow_minimize(af, p, e, deadline):
            calls.append(deadline)
            skew[0] += 0.2  # each step takes 0.2 s of the fake clock
            return minimize(af, p, e, deadline)

        monkeypatch.setattr(md.extensions, "minimize_restricted",
                            slow_minimize)
        started = []
        deadline = SearchBudget.deadline

        def counted(budget):
            started.append(deadline(budget))
            return started[-1]

        monkeypatch.setattr(SearchBudget, "deadline", counted)
        budget = SearchBudget(wall_clock_seconds=0.5)
        with pytest.raises(BudgetExceeded, match="ceiling of 0.5s exhausted"):
            min_def_extensions(af, p, budget)
        # the ceiling is started once and every step gets it; the third
        # step refuses, 0.6 s into the fake clock
        assert len(started) == 1 and isinstance(started[0], _kernels.Ceiling)
        assert len(calls) == 3 and all(d is started[0] for d in calls)

    def test_ordering_reads_the_ceiling_after_the_product(
            self, clock_skew, monkeypatch):
        # twelve factors of two: the members' codes are built, the clock
        # jumps, and the read after the sort refuses
        fam = md.conflict_free_sets(
            ISOLATED, budget=SearchBudget(wall_clock_seconds=1.0))
        jump_after_the_codes(clock_skew, monkeypatch)
        with pytest.raises(BudgetExceeded, match="ceiling of 1.0s exhausted"):
            fam.members
        monkeypatch.undo()
        assert len(fam.members) == 4096

    def test_min_def_filter_reads_the_deadline(self, clock_skew,
                                               monkeypatch):
        # three two-cycles: the clock jumps past the ceiling once the last
        # of the six minimisations has returned, so min-def answers, and
        # reading its members is what refuses
        af = two_cycles(3)
        p = md.Partition(af, af.full_set(), af.empty_set())
        skew = clock_skew
        minimize = md.extensions.minimize_restricted
        calls = []

        def minimize_then_jump(af, p, e, budget):
            calls.append(e)
            supports = minimize(af, p, e, budget)
            if len(calls) == 6:
                skew[0] += 1.0
            return supports

        monkeypatch.setattr(md.extensions, "minimize_restricted",
                            minimize_then_jump)
        fam = min_def_extensions(af, p, SearchBudget(wall_clock_seconds=0.5))
        assert len(calls) == 6 and len(fam) == 8
        with pytest.raises(BudgetExceeded, match="ceiling of 0.5s exhausted"):
            fam.members
        skew[0] = 0.0
        calls.clear()
        assert len(min_def_extensions(af, p, SearchBudget(
            wall_clock_seconds=60.0)).members) == 8

    def test_the_last_pass_over_the_supports_reads_the_deadline(
            self, clock_skew, monkeypatch):
        # the clock jumps once the search has found all 2^6 supports, so
        # only the pass that keeps the minimal ones can refuse
        af, p = many_supports(6)
        skew = clock_skew
        minimal = extensions._subset_minimal_masks
        passes = []

        def jump_then_filter(masks, deadline=None):
            passes.append(len(masks))
            skew[0] += 1.0
            return minimal(masks, deadline)

        monkeypatch.setattr(extensions, "_subset_minimal_masks",
                            jump_then_filter)
        with pytest.raises(BudgetExceeded, match="ceiling of 0.5s exhausted"):
            minimize_restricted(af, p, p.focus,
                                SearchBudget(wall_clock_seconds=0.5))
        assert passes == [2 ** 6]

    def test_no_ceiling_never_refuses(self, fixtures, clock_skew):
        # the clock jumps 10^9 s before the requests, and again before
        # their families are read; without a ceiling nothing refuses
        assert SearchBudget().deadline() is _kernels.UNBOUNDED
        af, p = fixtures["AF3"]
        want = [(solve(af, p, p.focus, None), check(af, p, p.focus, None))
                for solve, check in FAMILIES.values()]
        clock_skew[0] += 1e9
        budget = SearchBudget()
        got = [(solve(af, p, p.focus, budget), check(af, p, p.focus, budget))
               for solve, check in FAMILIES.values()]
        e = got[3][0].members[0]  # a preferred extension on the focus
        supports = minimize_restricted(af, p, e, budget)
        clock_skew[0] += 1e9
        assert got == want
        assert supports == minimize_restricted(af, p, e)
        assert filter_maximal(got[1][0]) == got[2][0]

    def test_a_nan_ceiling_is_rejected(self):
        # time.monotonic() > nan is never true: it would never expire
        with pytest.raises(ValueError,
                           match="^wall_clock_seconds must not be NaN$"):
            SearchBudget(wall_clock_seconds=math.nan)

    def test_a_nan_oracle_cap_is_rejected(self):
        # k > nan is never true: the oracle would skip both of its caps
        with pytest.raises(
                ValueError,
                match="^max_arguments_for_exhaustive must not be NaN$"):
            SearchBudget(max_arguments_for_exhaustive=math.nan)

    def test_many_supports_answer_within_a_second(self):
        # 2^13 minimal supports; a containment test of every node against
        # the leaves found so far took ~4 s here on a 2-core VM
        af, p = many_supports(13)
        budget = SearchBudget(wall_clock_seconds=1.0)
        assert len(min_def_extensions(af, p, budget)) == 2 ** 13
        assert len(minimize_restricted(af, p, p.focus, budget)) == 2 ** 13

    def test_each_defender_walk_reads_the_ceiling_first(self, monkeypatch):
        # a restricted candidate's defender walk spans the whole framework,
        # so no two walks may run without a read of the ceiling between
        events = []
        walk = extensions._parity_reachable

        def walking(targets, x):
            events.append("walk")
            return walk(targets, x)

        class Counting(_kernels.Ceiling):
            def check(self):
                events.append("read")
                super().check()

        monkeypatch.setattr(extensions, "_parity_reachable", walking)
        af, p = many_supports(6)
        fam = md.restrictedly_admissible_sets(af, p, Counting(60.0))
        assert len(fam) == 3 ** 6 + 1
        assert events.count("walk") == 12
        assert events.count("read") >= 12
        for i, event in enumerate(events):
            if event == "walk":
                assert events[i - 1] == "read", i

    def test_roadmap_min_def_probe_answers_within_a_second(self):
        # |e_r| = 23 here; the subset walk needed far more than 20 s
        af, p = md.random_instance(md.GeneratorConfig(400, 0.005, 0.7, 0.3,
                                                      seed=1))
        fam = min_def_extensions(af, p, SearchBudget(wall_clock_seconds=1.0))
        assert len(fam) >= 1
        for s in fam:
            assert md.is_restrictedly_admissible(af, p, s)


# seeds of the ROADMAP sweep on which the fixed-order tree answers in
# 20 ms or less (0.3-18 ms on a 2-core VM); it took over 1 s on 11 of the
# 40 and was refused at 5 s on 7
SWEEP_REFERENCE_SEEDS = (7, 8, 9, 10, 12, 13, 14, 18, 20, 21, 23, 24, 25,
                         26, 27, 29, 31, 32, 35, 36, 37)


def test_the_roadmap_sweep_answers_within_a_second(monkeypatch):
    # preferred extensions of n=100, p=2.5/n, seeds 0-39, each under a 1 s
    # ceiling; checked against the fixed-order tree where it is fast, and
    # against the definition elsewhere
    sweep = [md.random_instance(md.GeneratorConfig(100, 2.5 / 100, 0.7, 0.3,
                                                   seed=s))[0]
             for s in range(40)]
    got = {}
    for s, af in enumerate(sweep):
        fam = preferred_extensions(af, SearchBudget(wall_clock_seconds=1.0))
        got[s] = {e.mask for e in fam}
        if s not in SWEEP_REFERENCE_SEEDS:
            assert all(md.is_admissible(af, e) for e in fam), s
            assert not any(a != b and a | b == b
                           for a in got[s] for b in got[s]), s

    def fixed_order(k, pos_idx, branchable, forced_mask, space, mode,
                    deadline):
        return fixed_order_dfs_enumerate(k, pos_idx, suffixes(pos_idx),
                                         forced_mask, space, mode, deadline)

    monkeypatch.setattr(_kernels, "dfs_enumerate", fixed_order)
    for s in SWEEP_REFERENCE_SEEDS:
        assert {e.mask for e in preferred_extensions(sweep[s])} == got[s], s


def test_two_step_pipeline_matches_the_exhaustive_answer():
    for _, af, p in instance_stream(30, base_seed=4100):
        assert min_def_extensions(af, p) == md.oracle_min_def(af, p)


def test_solver_families_are_deterministic(af1, p3):
    first = min_def_extensions(af1, p3)
    second = min_def_extensions(af1, p3)
    assert first.members == second.members
    assert [s.names for s in first] == [s.names for s in second]


def two_cycles(k):
    names = [f"x{i}" for i in range(2 * k)]
    pairs = []
    for i in range(0, 2 * k, 2):
        pairs += [(names[i], names[i + 1]), (names[i + 1], names[i])]
    return build_framework(names, pairs)


class TestFactoredFamilies:
    """Solver families in product form against flat one-factor families
    built from the single-tree reference search."""

    def assert_same_as_flat(self, af, fam, masks, label):
        flat = ExtensionFamily(md.ArgumentSet(af, m) for m in masks)
        assert len(fam) == len(flat) == len(masks), label
        assert fam.members == flat.members, label
        assert list(fam.members) == name_tuple_order(flat.members), label
        assert list(fam.member_names()) == list(flat.member_names()), label
        assert fam == flat and hash(fam) == hash(flat), label
        member_masks = set(masks)
        for m in masks[:40]:
            assert md.ArgumentSet(af, m) in fam, label
            for i in range(len(af)):
                near = m ^ (1 << i)
                assert (md.ArgumentSet(af, near) in fam) == (
                    near in member_masks), label
        for a in af.names:
            bit = 1 << af.index(a)
            assert credulous_accepted(af, fam, a) == any(
                m & bit for m in masks), label
            assert skeptical_accepted(af, fam, a) == all(
                m & bit for m in masks), label

    def cases(self, af, p):
        window20 = af.subset(af.names[:20])
        window14 = af.subset(af.names[:14])
        return (
            ("conflict-free", md.conflict_free_sets(af, window14),
             CONFLICT_FREE, window14.mask),
            ("admissible", md.admissible_sets(af, window20),
             ADMISSIBLE_ALL, window20.mask),
            ("preferred", preferred_extensions(af),
             ADMISSIBLE_MAX, af.full_mask),
            ("preferred-on-f", preferred_extensions_on(af, p.focus),
             ADMISSIBLE_MAX, p.focus.mask))

    def test_random_instances_above_the_oracle_cap(self):
        factored = 0
        for k in range(16):
            n = 30 + (k * 53) % 171
            af, p = md.random_instance(md.GeneratorConfig(
                n, 1.5 / n, 0.7, 0.3, seed=9900 + k))
            for label, fam, mode, space in self.cases(af, p):
                masks = sorted(single_tree_solve_space(af, space, mode))
                self.assert_same_as_flat(af, fam, masks, (k, label))
                factored += len(fam._factors) > 1
        assert factored > 16

    def test_structured_shapes(self):
        small = {"two-cycles": range(1, 5), "chain": range(1, 7),
                 "cycle": range(1, 12), "isolated": range(1, 5)}
        for k, (label, af) in enumerate(structured_stream(40, 9950, small)):
            rng = random.Random(k)
            focus = [a for a in af.names if rng.random() < 0.8]
            p = md.build_partition(af, focus, [])
            for sem, fam, mode, space in self.cases(af, p):
                masks = sorted(single_tree_solve_space(af, space, mode))
                self.assert_same_as_flat(af, fam, masks, (label, sem))

    def test_len_in_and_queries_never_build_the_product(self, monkeypatch):
        af = two_cycles(14)
        families = [md.admissible_sets(af), md.conflict_free_sets(af),
                    preferred_extensions(af),
                    preferred_extensions_on(af, af.full_set())]
        unrestricted = md.Partition(af, af.full_set(), af.empty_set())

        def refuse(*args):
            raise AssertionError("the product was built")

        monkeypatch.setattr(extensions, "_product", refuse)
        monkeypatch.setattr(extensions, "_member_codes", refuse)
        monkeypatch.setattr(ExtensionFamily, "_ordered", refuse)
        families.append(min_def_extensions(af, unrestricted))
        member = af.subset([f"x{i}" for i in range(0, 28, 2)])
        for fam, size in zip(families,
                             (3 ** 14, 3 ** 14, 2 ** 14, 2 ** 14, 2 ** 14)):
            assert len(fam) == size
            assert member in fam
            assert af.subset(["x0", "x1"]) not in fam
            assert (af.empty_set() in fam) == (size == 3 ** 14)
            assert credulous_accepted(af, fam, "x3")
            assert not skeptical_accepted(af, fam, "x3")

    def test_queries_on_fourteen_two_cycles_answer_quickly(self):
        af = two_cycles(14)
        started = time.perf_counter()
        assert credulous_accepted(af, md.admissible_sets(af), "x3")
        assert not skeptical_accepted(af, preferred_extensions(af), "x3")
        # allowed overshoot: a loaded host; the product would take seconds
        assert time.perf_counter() - started < 0.5

    def test_min_def_orders_only_its_result(self, monkeypatch):
        ordered = []
        original = ExtensionFamily._ordered

        def counted(self):
            ordered.append(self)
            return original(self)

        monkeypatch.setattr(ExtensionFamily, "_ordered", counted)
        for _, af, p in instance_stream(30, base_seed=9980):
            ordered.clear()
            fam = min_def_extensions(af, p)
            assert ordered == []
            fam.members
            assert ordered == [fam]

    def test_restricted_defence_across_groups_reads_whole_sets(self):
        # x (restricted) defends z by the walk x>b>y>c>z through arguments
        # outside the focus, while z's attacker c is answered by w; so x and
        # {z, w} sit in different groups, and {x} qualifies only next to z
        af = build_framework(
            ["x", "b", "y", "c", "z", "w"],
            [("x", "b"), ("b", "y"), ("y", "c"), ("c", "z"), ("w", "c")])
        p = md.build_partition(af, ["x", "z", "w"], ["x"])
        fam = md.restrictedly_admissible_sets(af, p)
        assert fam == predicate_restrictedly_admissible(af, p)
        assert sset(af, "x,z,w") in fam and sset(af, "x,w") not in fam
        assert len(fam._factors) == 1

    @pytest.mark.parametrize("k", [1, 5])
    def test_restricted_defence_links_only_the_groups_it_needs(self, k):
        # the framework above beside k two-cycles: x's obligation links its
        # group to z's, and each two-cycle keeps its own factor; the post
        # filter multiplied all of them out into one
        cycles = [f"t{i}" for i in range(2 * k)]
        af = build_framework(
            ["x", "b", "y", "c", "z", "w"] + cycles,
            [("x", "b"), ("b", "y"), ("y", "c"), ("c", "z"), ("w", "c")]
            + [pair for a, b in zip(cycles[::2], cycles[1::2])
               for pair in ((a, b), (b, a))])
        p = md.build_partition(af, ["x", "z", "w"] + cycles, ["x"])
        fam = md.restrictedly_admissible_sets(af, p)
        assert len(fam._factors) == k + 1 and len(fam) == 4 * 3 ** k
        filtered = filtered_restrictedly_admissible_sets(af, p)
        assert len(filtered._factors) == 1
        assert fam == filtered == md.oracle_restrictedly_admissible(af, p)

    def test_restricted_admissible_families_keep_their_factors(self):
        af = two_cycles(9)
        p = md.build_partition(af, af.names, ["x0", "x3", "x5"])
        fam = md.restrictedly_admissible_sets(af, p)
        assert len(fam._factors) == 9
        assert fam.members == predicate_restrictedly_admissible(af, p).members

    def test_min_def_drops_supports_repeated_within_a_factor(self):
        # u's attacker b is answered by r1, so {r1, u} is forced and shares
        # no group with the two-cycle r2 <-> r3; both of that group's
        # preferred masks minimise to the same empty support
        af = build_framework(["u", "b", "r1", "r2", "r3"],
                             [("b", "u"), ("r1", "b"), ("r2", "r3"),
                              ("r3", "r2")])
        p = md.build_partition(af, ["u", "r1", "r2", "r3"],
                               ["r1", "r2", "r3"])
        fam = min_def_extensions(af, p)
        assert fam == md.oracle_min_def(af, p) == pairwise_min_def(af, p)
        assert fam.members == (sset(af, "r1,u"),)
        assert fam._factors == [[0], [sset(af, "r1,u").mask]]

    def test_min_def_keeps_its_factors(self, monkeypatch):
        # twelve two-cycles, every fourth argument restricted: six groups
        # keep only their unrestricted mask and six keep both, so 6 + 12
        # minimisations, where the flat product would need 2^6
        af = two_cycles(12)
        p = md.build_partition(af, af.names, af.names[::4])
        minimize = extensions.minimize_restricted
        calls = []

        def counted(af, p, e, budget):
            calls.append(e)
            return minimize(af, p, e, budget)

        monkeypatch.setattr(extensions, "minimize_restricted", counted)
        fam = min_def_extensions(af, p)
        assert len(calls) == 18
        assert len(fam._factors) == 12 and len(fam) == 2 ** 6
        assert fam == pairwise_min_def(af, p)


class TestQueries:
    """The solver's acceptance queries against the factor-reading
    reference, which builds the whole family, and call by call against
    the query path that grew the argument's group."""

    @pytest.fixture(autouse=True)
    def against_the_grouped_search(self, monkeypatch):
        accepted = extensions.accepted
        calls = []

        def both(*args):
            verdict = accepted(*args)
            assert verdict == grouped_accepted(*args), args[2:5]
            calls.append(args)
            return verdict

        monkeypatch.setattr(extensions, "accepted", both)
        yield
        assert calls

    @staticmethod
    def assert_as_reference(af, p, names):
        """Each query on ``names`` equals the reference, wherever it
        answers; returns the number of semantics where it does."""
        answered = 0
        for semantics in QUERIES:
            try:
                want = factor_query(af, p, semantics)
            except BudgetExceeded:
                continue
            answered += 1
            for mode in ("credulous", "skeptical"):
                for a in names:
                    request = SolveRequest(semantics=semantics, mode=mode,
                                           argument=a)
                    assert _decide(af, p, request, _kernels.UNBOUNDED) == (
                        want(mode, a)), (semantics, mode, a)
        return answered

    def test_random_instances(self):
        for _, af, p in instance_stream(200, base_seed=22000,
                                        sizes=range(8, 19)):
            self.assert_as_reference(af, p, af.names)

    def test_structured_shapes(self):
        small = {"two-cycles": range(1, 5), "chain": range(1, 6),
                 "cycle": range(1, 10), "isolated": range(1, 5)}
        for k, (_, af) in enumerate(structured_stream(60, 22500, small)):
            rng = random.Random(k)
            focus = [a for a in af.names if rng.random() < 0.8]
            p = md.build_partition(af, focus,
                                   [a for a in focus if rng.random() < 0.5])
            self.assert_as_reference(af, p, af.names)

    def test_sparse_instances(self, monkeypatch):
        # conflict-free refuses on the set cap here; a small cap makes
        # the reference refuse in milliseconds rather than seconds
        monkeypatch.setattr(_kernels, "MAX_SETS", 1 << 14)
        answered = 0
        for n in range(40, 201, 20):
            af, p = sparse_instance(n)
            answered += self.assert_as_reference(af, p, af.names)
        assert answered == 29

    def test_preferred_on_a_base_set_answers_within_it(self):
        # c defends a against b; from {a} alone nothing defends a
        af = build_framework("abc", [("b", "a"), ("c", "b")])
        p = md.build_partition(af, ["a"], [])
        got = {}
        for on in (("a",), ("a", "c"), None):
            for a in "abc":
                for mode in ("credulous", "skeptical"):
                    request = SolveRequest(semantics="preferred-on-f",
                                           mode=mode, argument=a, on=on)
                    got[on, a, mode] = verdict = _decide(
                        af, p, request, _kernels.UNBOUNDED)
                    assert verdict == factor_query(
                        af, p, "preferred-on-f", on)(mode, a)
        assert [a for a in "abc" if got[("a",), a, "credulous"]] == []
        assert [a for a in "abc" if got[("a", "c"), a, "skeptical"]] == [
            "a", "c"]
        # without --on the base set is the focus, {a}
        assert not got[None, "a", "credulous"]


def test_a_credulous_query_grows_no_group(monkeypatch):
    # the witness runs over the whole prepared space; every verdict is
    # read first from the factor-reading reference
    cases = [(af, p) for _, af, p in instance_stream(
        40, base_seed=24000, sizes=range(8, 15))]
    cases.append(md.builtin_fixtures()["AF3"])
    want = [(af, p, {semantics: factor_query(af, p, semantics)
                     for semantics in QUERIES}) for af, p in cases]

    def grow(*args):
        raise AssertionError("a credulous query grew a group")

    monkeypatch.setattr(_kernels.LocalSpace, "components", grow)
    for af, p, references in want:
        for semantics, reference in references.items():
            for a in af.names:
                request = SolveRequest(semantics=semantics,
                                       mode="credulous", argument=a)
                assert _decide(af, p, request, _kernels.UNBOUNDED) == (
                    reference("credulous", a)), (semantics, a)


def test_no_layout_is_built_when_no_group_is_searched(monkeypatch):
    # c defends a against b, so both are forced; b, the self-attacker d,
    # and e, attacked by d alone, are dropped
    af = build_framework("abcde", [("b", "a"), ("c", "b"), ("d", "d"),
                                   ("d", "e")])
    p = md.Partition(af, af.full_set(), af.empty_set())

    def build(*args):
        raise AssertionError("a layout was built")

    monkeypatch.setattr(_kernels, "LocalSpace", build)
    assert [s.names for s in preferred_extensions(af)] == [("a", "c")]
    verdicts = {a: _decide(af, p, SolveRequest(
        semantics="preferred", mode="skeptical", argument=a),
        _kernels.UNBOUNDED) for a in "abcde"}
    assert verdicts == {"a": True, "b": False, "c": True, "d": False,
                        "e": False}
