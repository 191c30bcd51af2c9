import pytest

import mindef as md
from mindef import _kernels


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
    # c's attackers are b (answered by a) and d (answered by nobody inside)
    assert space.obligations == [[0b001], [0b010], [0b001, 0b000]]
    assert space.to_local(af.subset("bcd").mask) == 0b110
    for local in range(8):
        assert space.to_local(space.to_global(local)) == local
    plain = _kernels.LocalSpace(af, af.subset("abc").mask, defence=False)
    assert plain.obligations == [[], [], []]


def test_chunked_scan_matches_the_one_chunk_scan(monkeypatch):
    spaces = []
    for k in range(13):
        cfg = md.GeneratorConfig(argument_count=k, attack_probability=0.2,
                                 seed=70 + k)
        af, _ = md.random_instance(cfg)
        for defence in (False, True):
            space = _kernels.LocalSpace(af, af.full_mask, defence)
            args = (k, space)
            spaces.append((args, _kernels.subset_scan(*args)))
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    for args, whole in spaces:
        assert whole == sorted(whole)
        assert _kernels.subset_scan(*args) == whole


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
