"""The CLI's block rendering against the list-per-member renderer it
replaced (``conftest.list_render``), byte for byte, in both formats; and a
family's ``members``, ``==`` and ``hash``, which read the same blocks,
against the arg-bit decoder and the mask-set comparison they replaced."""

import io
import random

import pytest

import mindef as md
from mindef import _kernels, extensions
from mindef.afp import parse_afp, serialize_afp
from mindef.cli import (FAMILIES, SEMANTICS, SolveRequest, SolveResult,
                        _render, execute)
from mindef.extensions import ExtensionFamily

from conftest import (arg_bit_members, assert_compares_as_reference,
                      byte_table_member_names, instance_stream, list_render,
                      structured_stream)

FORMATS = ("plain", "structured")
TRICKY = ["a", "a1", "a10", "Z", "_x", "9"]
COUNTS = (0, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129)
STATS = {"arguments": 0, "attacks": 0}


@pytest.fixture(params=[1, 3, extensions._RENDER_BLOCK],
                ids=["block1", "block3", "default"])
def block(request, monkeypatch):
    """Blocks of 1 and 3 members, so that families cross block bounds."""
    monkeypatch.setattr(extensions, "_RENDER_BLOCK", request.param)
    return request.param


def rendered(render, family, fmt, semantics="admissible"):
    out = io.StringIO()
    render(SolveResult(semantics, family, None, 0.0, STATS),
           SolveRequest(output=fmt), out)
    return out.getvalue()


def assert_renders_as_reference(family, label=""):
    for fmt in FORMATS:
        want = rendered(list_render, family, fmt)
        assert rendered(_render, family, fmt) == want, (label, fmt)
    assert list(family.member_names()) == list(
        byte_table_member_names(family)), label
    assert family.members == arg_bit_members(family), label


def framework(rng, n):
    names = rng.sample(TRICKY + [f"q{i}" for i in range(200)], n)
    return md.build_framework(names, [])


def variants(family):
    """``family`` rebuilt from its members as one factor, and its masks
    over a copy of its framework (an unequal family of the same size)."""
    af = family.framework
    copy = (md.ArgumentationFramework(af.names, af.attacks)
            if af is not None else None)
    return [ExtensionFamily(list(family)),
            ExtensionFamily._product_of(copy, family._factors)]


def test_empty_families_and_the_family_of_the_empty_set(block):
    af = md.build_framework(TRICKY, [])
    families = []
    for family in (ExtensionFamily([]),
                   ExtensionFamily._product_of(af, [[]]),
                   ExtensionFamily._product_of(af, [[1, 2], []]),
                   ExtensionFamily([af.empty_set()]),
                   ExtensionFamily([md.build_framework([], []).empty_set()])):
        assert_renders_as_reference(family, repr(family))
        families += [family] + variants(family)
    assert_compares_as_reference(families)
    assert rendered(_render, ExtensionFamily([]), "plain") == ""
    assert rendered(_render, ExtensionFamily([af.empty_set()]),
                    "plain") == "{}\n"


@pytest.mark.parametrize("n", COUNTS)
def test_lone_members_and_random_families_at_every_width(n, block):
    rng = random.Random(n)
    af = framework(rng, n)
    full = ExtensionFamily([af.full_set()])
    assert_renders_as_reference(full, "lone full set")
    families = [full] + variants(full)
    for trial in range(12):
        masks = [rng.getrandbits(n) & rng.getrandbits(n)
                 for _ in range(rng.choice([1, 2, 5, 40]))]
        if trial % 3 == 0:
            masks.append(0)
        family = ExtensionFamily(md.ArgumentSet(af, m) for m in masks)
        assert_renders_as_reference(family, (n, trial))
        families += [family] + variants(family)
    assert_compares_as_reference(families)


def test_products_whose_factors_interleave_in_name_order(block):
    rng = random.Random(3)
    for trial in range(60):
        n = rng.choice([4, 9, 17, 40, 70])
        af = framework(rng, n)
        # each argument goes to one of up to four factors, so the factors'
        # names interleave in name order
        groups = [0] * rng.randint(1, 4)
        for i in range(n):
            groups[rng.randrange(len(groups))] |= 1 << i
        factors = []
        for span in groups:
            masks = {rng.getrandbits(n) & span
                     for _ in range(rng.randint(1, 4))}
            factors.append(list(masks))
        family = ExtensionFamily._product_of(af, factors)
        assert_renders_as_reference(family, trial)
        # the same members with the first two factors multiplied out
        merged = [extensions._product(factors[:2], _kernels.UNBOUNDED)]
        assert_compares_as_reference(
            [family, ExtensionFamily._product_of(af, merged + factors[2:])]
            + variants(family))


def random_partition(af, rng):
    focus = [a for a in af.names if rng.random() < 0.75]
    restricted = [a for a in focus if rng.random() < 0.4]
    return md.build_partition(af, focus, restricted)


def solver_cases():
    for _, af, p in instance_stream(14, base_seed=9300):
        yield "random", serialize_afp(af, p), ("solver", "oracle")
    rng = random.Random(9400)
    sizes = {"two-cycles": range(1, 5), "chain": range(1, 7),
             "cycle": range(1, 12), "isolated": range(1, 6)}
    for label, af in structured_stream(10, base_seed=9400, sizes=sizes):
        yield label, serialize_afp(af, random_partition(af, rng)), ("solver",)


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_solver_families_render_as_the_reference(semantics, block):
    for label, text, engines in solver_cases():
        for engine in engines:
            request = SolveRequest(text=text, semantics=semantics,
                                   engine=engine)
            result = execute(request)
            for fmt in FORMATS:
                request.output = fmt
                want, got = io.StringIO(), io.StringIO()
                list_render(result, request, want)
                _render(result, request, got)
                assert got.getvalue() == want.getvalue(), (label, engine, fmt)


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_solver_families_read_and_compare_as_the_reference(semantics, block):
    solve, brute_force = FAMILIES[semantics]
    for label, text, engines in solver_cases():
        af, p = parse_afp(text)
        families = [solve(af, p, p.focus, None)]
        if "oracle" in engines:
            families.append(brute_force(af, p, p.focus, None))
        for family in families[:]:
            assert family.members == arg_bit_members(family), label
            families += variants(family)
        assert_compares_as_reference(families)


def test_the_same_masks_over_two_frameworks_are_unequal():
    af = md.build_framework(TRICKY, [("a", "Z")])
    copy = md.build_framework(TRICKY, [("a", "Z")])
    for factors in ([[0b11, 0b100]], [[0], [1, 2]], [[0b1010]]):
        here = ExtensionFamily._product_of(af, factors)
        there = ExtensionFamily._product_of(copy, factors)
        assert here != there and len({here, there}) == 2
        assert_compares_as_reference([here, there])


class NoTables:
    def __init__(self, *args):
        raise AssertionError("a one-member family built a fragment table")


def test_one_member_families_render_without_a_table(monkeypatch):
    rng = random.Random(11)
    lone = [ExtensionFamily([md.build_framework([], []).empty_set()])]
    for n in COUNTS:
        af = framework(rng, n)
        lone += [ExtensionFamily([af.empty_set()]),
                 ExtensionFamily([md.ArgumentSet(af, rng.getrandbits(n))])]
        if n > 3:
            # a product of one-mask factors is one member too
            lone.append(ExtensionFamily._product_of(
                af, [[1 << n - 1], [1], [6]]))
    fixtures = md.builtin_fixtures()
    af3, p3 = fixtures["AF3"]
    lone.append(md.min_def_extensions(af3, p3))
    monkeypatch.setattr(extensions, "_Fragments", NoTables)
    for family in lone:
        assert len(family) == 1
        assert_renders_as_reference(family, repr(family))
