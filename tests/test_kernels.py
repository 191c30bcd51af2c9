import os
import random
import subprocess
import sys

import pytest

import mindef as md
from conftest import (REPO_ROOT, instance_stream, many_supports,
                      numpy_subset_scan)
from mindef import _kernels
from mindef.model import bits
from mindef.semantics import _parity_reachable


def test_wide_frameworks_solve_and_match_the_oracle_on_a_window():
    cfg = md.GeneratorConfig(argument_count=80, attack_probability=0.02, seed=4)
    af, _ = md.random_instance(cfg)
    fam = md.preferred_extensions(af)
    assert len(fam) >= 1
    for e in fam:
        assert md.is_admissible(af, e)
    # a small scan window inside the wide framework still has an oracle
    x = af.subset(af.names[:12])
    assert md.preferred_extensions_on(af, x) == md.oracle_preferred_on(af, x)


def test_local_space_layout_and_round_trip():
    # a <-> b, b -> c, d -> c; the space leaves out d
    af = md.build_framework("abcd", [("a", "b"), ("b", "a"), ("b", "c"),
                                     ("d", "c")])
    space = _kernels.LocalSpace(af, af.subset("abc").mask, defence=True)
    assert space.members == [0, 1, 2]
    assert space.conflict == [0b010, 0b101, 0b010]
    # one obligation bit per attacker, as they first appear: b (a's), a
    # (b's), d; c owes b (answered by a) and d (answered by nobody inside)
    assert space.owes == [0b001, 0b010, 0b101]
    assert space.answers == [0b001, 0b010, 0b000]
    assert space.answerers == [0b001, 0b010, 0b000]
    assert space.to_local(af.subset("bcd").mask) == 0b110
    for local in range(8):
        assert space.to_local(space.to_global(local)) == local
    plain = _kernels.LocalSpace(af, af.subset("abc").mask, defence=False)
    assert plain.owes == plain.answers == [0, 0, 0]
    assert plain.answerers == []
    # one more obligation, numbered after the attackers: c owes it, and a,
    # b and d (outside the space) answer it
    more = _kernels.LocalSpace(af, af.subset("abc").mask, True,
                               [(2, af.subset("abd").mask)])
    assert more.owes == [0b0001, 0b0010, 0b1101]
    assert more.answerers == [0b001, 0b010, 0b000, 0b011]
    assert more.answers == [0b1001, 0b1010, 0b0000]


def test_components_grow_only_the_groups_of_their_seeds():
    # a <-> b, b -> c, d -> e, f alone; d's group holds e, whose obligation
    # d answers nobody inside
    af = md.build_framework("abcdef", [("a", "b"), ("b", "a"), ("b", "c"),
                                       ("d", "e")])
    space = _kernels.LocalSpace(af, af.full_mask, defence=True)
    assert space.components(-1) == [0b000111, 0b011000, 0b100000]
    assert space.components(0b000100) == [0b000111]
    assert space.components(0b110000) == [0b011000, 0b100000]
    # a forced member a is left out of the seeds, but its group holds it
    assert space.components(0b011 & ~0b001) == [0b000111]
    assert space.components(0b001 & ~0b001) == []


def test_the_witness_mode_is_the_minimal_mode_stopped_at_its_first_leaf():
    # u is attacked by b1..b3, each bi by the unattacked ri_a and ri_b: the
    # admissible sets holding u take one of each pair
    af, _ = many_supports(3)
    space = _kernels.LocalSpace(af, af.full_mask, defence=True)
    u = 1 << space.local_of[af.index("u")]
    branchable = space.to_local(af.full_mask) ^ u
    args = (len(af), list(bits(branchable)), branchable, u, space)
    leaves = _kernels.dfs_enumerate(*args, _kernels.MINIMAL,
                                    _kernels.UNBOUNDED)
    assert len(leaves) == 8
    witness = _kernels.dfs_enumerate(*args, _kernels.WITNESS,
                                     _kernels.UNBOUNDED)
    assert witness == leaves[:1]
    # b1 is attacked by two unattacked members: no admissible set holds it
    b1 = 1 << space.local_of[af.index("b1")]
    assert _kernels.dfs_enumerate(
        len(af), [], branchable ^ b1 | u, b1, space, _kernels.WITNESS,
        _kernels.UNBOUNDED) == []


def test_scan_over_restricted_obligations_keeps_restrictedly_admissible_sets():
    # each restricted member of the focus owes one more obligation, answered
    # by the unrestricted members it individually defends; the exhaustive
    # kernel then keeps exactly the focus subsets the predicate accepts
    kept = 0
    for _, af, p in instance_stream(40, base_seed=9900,
                                    sizes=(6, 9, 12, 15, 18)):
        k = len(p.focus)
        assert k <= 14
        extra = [(x, _parity_reachable(af.target_masks, x)
                  & p.unrestricted.mask) for x in p.restricted.indices()]
        space = _kernels.LocalSpace(af, p.focus.mask, True, extra)
        want = [m for m in map(space.to_global, range(1 << k))
                if md.is_restrictedly_admissible(af, p,
                                                 md.ArgumentSet(af, m))]
        got = _kernels.subset_scan(k, space)
        assert list(map(space.to_global, got)) == want
        kept += len(want)
    assert kept > 100  # more than the empty set each


def _random_spaces(max_k):
    """Per k up to ``max_k``, a seeded random space with and without
    defence; sparse attacks at small k give dense answers."""
    for k in range(max_k + 1):
        rng = random.Random(k)
        p = rng.choice((0.05, 0.15, 0.3) if k <= 14 else (0.15, 0.3))
        cfg = md.GeneratorConfig(argument_count=k, attack_probability=p,
                                 seed=rng.randrange(1 << 30))
        af, _ = md.random_instance(cfg)
        for defence in (False, True):
            yield k, _kernels.LocalSpace(af, af.full_mask, defence)


@pytest.fixture(scope="module")
def scans_with_reference():
    return [(k, space, numpy_subset_scan(k, space))
            for k, space in _random_spaces(22)]


@pytest.mark.parametrize("chunk, max_k", [(None, 22), (1 << 4, 12)])
def test_scan_matches_the_numpy_reference(chunk, max_k, scans_with_reference,
                                          monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
    w = _kernels._SCAN_CHUNK.bit_length() - 1
    assert w + 1 <= max_k  # one block, and two, are both covered
    for k, space, expected in scans_with_reference:
        if k <= max_k:
            assert _kernels.subset_scan(k, space) == expected, k


def test_scan_refuses_past_the_cap_after_a_block(monkeypatch):
    af = md.build_framework([f"x{i}" for i in range(5)], [])
    space = _kernels.LocalSpace(af, af.full_mask, True)
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    monkeypatch.setattr(_kernels, "MAX_SETS", 16)
    # one block of 16 survivors reaches the cap without passing it
    assert _kernels.subset_scan(4, space) == list(range(16))
    # the second block passes it
    with pytest.raises(md.BudgetExceeded,
                       match=r"^answer exceeds the cap of 16 sets$"):
        _kernels.subset_scan(5, space)


def test_importing_mindef_loads_no_numpy():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = "import sys, mindef; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_scan_checks_the_deadline_between_blocks(monkeypatch):
    af = md.build_framework([f"x{i}" for i in range(8)], [])
    space = _kernels.LocalSpace(af, af.full_mask, True)
    args = (8, space)
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    past = _kernels.Ceiling(-1.0)
    with pytest.raises(md.BudgetExceeded, match="ceiling of -1.0s exhausted"):
        _kernels.subset_scan(*args, past)
    # one block is always scanned whole
    assert len(_kernels.subset_scan(4, *args[1:], past)) == 16
    assert len(_kernels.subset_scan(*args, _kernels.Ceiling(60.0))) == 256


def test_oracle_refuses_once_its_deadline_has_passed(monkeypatch):
    af = md.build_framework([f"x{i}" for i in range(8)], [])
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    with pytest.raises(md.BudgetExceeded, match="ceiling of -1.0s exhausted"):
        md.oracle_admissible(af, budget=md.SearchBudget(
            wall_clock_seconds=-1.0))
    assert len(md.oracle_admissible(af, budget=md.SearchBudget(
        wall_clock_seconds=60.0))) == 256
