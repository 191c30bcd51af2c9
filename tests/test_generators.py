import math
import tracemalloc

import pytest

import mindef as md
from conftest import per_draw_random_instance
from mindef import (GeneratorConfig, SplitMix64, builtin_fixtures, generators,
                    is_well_founded, random_instance, serialize_afp)

class TestSplitMix64:
    def test_reference_vector_for_seed_zero(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_floats_sit_in_the_unit_interval(self):
        g = SplitMix64(99)
        values = [g.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_shuffle_is_a_permutation(self):
        g = SplitMix64(5)
        items = list(range(40))
        g.shuffle(items)
        assert sorted(items) == list(range(40))
        assert items != list(range(40))

    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 9000])
    def test_passing_draws_are_the_per_draw_floats_below_p(self, count):
        # thresholds at the stream's own floats and one ulp either side,
        # so the threshold identity is tested where it is tightest
        g = SplitMix64(77)
        floats = [g.next_float() for _ in range(count)]
        for p in {0.0, 1.0, *floats[:5], *floats[-3:]}:
            for q in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)):
                sampler = SplitMix64(77)
                assert sampler.passing(count, q) == [
                    t for t, f in enumerate(floats) if f < q]
                assert sampler.state == g.state


class TestFixtures:
    def test_af1_shape(self):
        af, p = builtin_fixtures()["AF1"]
        assert len(af) == 14 and len(af.attacks) == 9
        assert p is None

    def test_af2_is_one_tier(self):
        af, p = builtin_fixtures()["AF2"]
        assert len(p.focus) == 9 and not p.restricted

    def test_af3_partition_sizes(self):
        af, p = builtin_fixtures()["AF3"]
        assert len(p.unrestricted) == 5
        assert len(p.restricted) == 4
        assert len(af) - len(p.focus) == 5

    def test_abc_preferred_extension(self):
        af, p = builtin_fixtures()["ABC"]
        assert md.preferred_extensions(af).members == (af.subset(["a", "c"]),)
        assert p.focus == af.subset(["a"])

    def test_af1_af2_af3_share_one_framework(self):
        fx = builtin_fixtures()
        assert fx["AF1"][0] is fx["AF2"][0] is fx["AF3"][0]


class TestRandomInstance:
    def test_zero_arguments(self):
        af, p = random_instance(GeneratorConfig(argument_count=0))
        assert len(af) == 0 and not p.focus

    def test_identical_configs_give_identical_instances(self):
        cfg = GeneratorConfig(argument_count=9, attack_probability=0.3,
                              focus_fraction=0.6, restricted_fraction=0.4,
                              seed=31)
        a1, p1 = random_instance(cfg)
        a2, p2 = random_instance(cfg)
        assert serialize_afp(a1, p1) == serialize_afp(a2, p2)

    def test_different_seeds_differ(self):
        base = dict(argument_count=9, attack_probability=0.3)
        one = random_instance(GeneratorConfig(seed=1, **base))
        two = random_instance(GeneratorConfig(seed=2, **base))
        assert serialize_afp(*one) != serialize_afp(*two)

    def test_acyclic_instances_are_well_founded_with_one_extension(self):
        for seed in range(40):
            cfg = GeneratorConfig(argument_count=5 + seed % 6,
                                  attack_probability=0.3, seed=seed,
                                  acyclic_only=True)
            af, _ = random_instance(cfg)
            assert is_well_founded(af)
            assert len(md.preferred_extensions(af)) == 1

    def test_partition_sizes_follow_the_fractions(self):
        cfg = GeneratorConfig(argument_count=10, focus_fraction=0.6,
                              restricted_fraction=0.5, seed=3)
        _, p = random_instance(cfg)
        assert len(p.focus) == 6 and len(p.restricted) == 3

    def test_fraction_bounds_are_validated(self):
        with pytest.raises(ValueError):
            GeneratorConfig(argument_count=3, attack_probability=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(argument_count=3, focus_fraction=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(argument_count=-1)

    @pytest.mark.parametrize("acyclic", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 91, 92, 300])
    def test_same_bytes_as_drawing_one_float_per_pair(self, n, acyclic):
        # n^2 draws (cyclic) or n(n-1)/2 (acyclic) sit on both sides of
        # one block: 63^2 < 4096 = 64^2 < 65^2, and 91*90/2 < 4096 < 92*91/2
        for p in (0.0, 2.0 ** -53, 2 / 300, 0.25, 1 - 2.0 ** -53, 1.0):
            for seed in (0, 2 ** 64 - 1, 2 ** 64 + 5, -1):
                cfg = GeneratorConfig(n, p, 0.7, 0.3, seed=seed,
                                      acyclic_only=acyclic)
                assert (serialize_afp(*random_instance(cfg))
                        == serialize_afp(*per_draw_random_instance(cfg)))

    def test_the_lane_constants_are_kept_for_one_block_only(self):
        for n in range(1, 81):
            for acyclic in (False, True):
                random_instance(GeneratorConfig(n, 0.3, seed=n,
                                                acyclic_only=acyclic))
        assert generators._lanes.cache_info().currsize == 1
        assert all(c.bit_length() <= 128 * generators._BLOCK
                   for c in generators._lanes())

    def test_acyclic_mode_lists_no_candidate_pairs(self):
        # n=600 has 179700 candidate pairs: a list of them peaks at ~15 MB,
        # the passing draws mapped row by row at ~0.6 MB
        random_instance(GeneratorConfig(5, 0.3))
        tracemalloc.start()
        try:
            random_instance(GeneratorConfig(600, 2 / 600, seed=3,
                                            acyclic_only=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_solver_and_oracle_agree_on_the_documented_config(self):
        cfg = GeneratorConfig(argument_count=10, attack_probability=0.2,
                              seed=42)
        af, p = random_instance(cfg)
        assert md.preferred_extensions(af) == md.oracle_preferred(af)
