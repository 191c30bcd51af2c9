"""Laws every semantics obeys, checked above the oracle cap without a
reference implementation.

* Renaming: declaring the arguments in another order under other names
  renames every family the same way. The solver's numbering, and with it
  its branching order, changes; its answers must not.
* Disjoint union: the family of two frameworks side by side is the set of
  unions of one member from each part's family. A third part of isolated,
  unrestricted focus members has its family by definition: every subset
  for the semantics without maximality, the whole part for the others.
* Acceptance: an argument is credulously accepted exactly when it is in
  the union of the family's members, and skeptically accepted exactly
  when it is in their intersection. The queries are answered without the
  family, so this law is the safety net of the query path.
* An isolated argument: one more argument ``z`` that attacks nothing and
  that nothing attacks is in every preferred extension, in every
  preferred extension on the focus exactly when it is in the focus, and
  in every min-def extension exactly when it is an unrestricted focus
  member (a restricted ``z`` defends no one, so no restrictedly
  admissible set holds it). ``--skeptical z`` says the same on the solver
  and, where the space is small enough, on the oracle.

Every family must answer: no semantics refuses on the set cap here, since
each keeps the product form of its independent groups. Families past
``SMALL`` members are compared without building them: the counts must
agree, and seeded draws of members (one mask per factor) must lie in the
other side, both ways.
"""

import random
from itertools import chain
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import mindef as md
from mindef import _kernels, extensions
from mindef.afp import serialize_afp
from mindef.cli import FAMILIES, QUERIES, SolveRequest, _decide, execute
from mindef.model import bits

from conftest import (assert_same_factor_members, factor_query,
                      filtered_restrictedly_admissible_sets,
                      structured_stream, undropped_solve_space)

# families up to this size are compared member by member
SMALL = 1 << 12
# members drawn from each side of a larger family
DRAWS = 40
# the semantics whose family on isolated arguments is every subset
EVERY_SUBSET = ("conflict-free", "admissible", "restricted-admissible")
# the oracle answers the isolated-argument law on spaces up to this size
ORACLE_SPACE = 14


def sparse(n, seed):
    """A seeded sparse framework of ``n`` arguments: consecutive blocks of
    4-9 arguments, each with random attacks inside it (self-attacks
    included), so that every family is a product of small factors; focus
    and restricted part as in the ROADMAP's sparse recipe."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(n)]
    attacks = []
    start = 0
    while start < n:
        block = names[start:start + rng.randint(4, 9)]
        attacks += [(a, b) for a in block for b in block
                    if rng.random() < 0.25]
        start += len(block)
    focus = [a for a in names if rng.random() < 0.7]
    restricted = [a for a in focus if rng.random() < 0.3]
    af = md.build_framework(names, attacks)
    return af, md.build_partition(af, focus, restricted)


def with_partition(af, seed):
    rng = random.Random(seed)
    focus = [a for a in af.names if rng.random() < 0.8]
    return af, md.build_partition(
        af, focus, [a for a in focus if rng.random() < 0.4])


def families(af, p):
    """Every semantics' family on the solver engine, preferred-on-f on the
    focus."""
    return {name: solver(af, p, p.focus, None)
            for name, (solver, _) in FAMILIES.items()}


def mapped(mask, index_map):
    return sum(1 << index_map[i] for i in bits(mask))


def count(family):
    # ``len`` past 2^63 overflows
    return prod(map(len, family._factors))


def members(family):
    """The masks of ``family``'s members, duplicates kept."""
    return extensions._product(family._factors, _kernels.UNBOUNDED)


def draw(family, rng):
    """A member of ``family`` drawn one mask per factor, as a mask."""
    return sum(rng.choice(masks) for masks in family._factors)


def assert_product(got, parts, rng):
    """``got`` holds exactly the unions of one member of each part's
    family, each part's masks carried into ``got``'s framework by its index
    map. ``parts`` is a list of ``(family, index map)``."""
    assert count(got) == prod(count(f) for f, _ in parts)
    af = got.framework
    if count(got) <= SMALL:
        want = [0]
        for family, index_map in parts:
            want = [w | mapped(m, index_map) for w in want
                    for m in members(family)]
        assert sorted(members(got)) == sorted(want)
        return
    backs = [{j: i for i, j in enumerate(index_map)} for _, index_map in parts]
    for _ in range(DRAWS):
        union = sum(mapped(draw(family, rng), index_map)
                    for family, index_map in parts)
        assert md.ArgumentSet(af, union) in got
        m = draw(got, rng)
        for (family, _), back in zip(parts, backs):
            part = sum(1 << back[j] for j in bits(m) if j in back)
            assert md.ArgumentSet(family.framework, part) in family


def renamed(af, p, seed):
    """``af`` and ``p`` under new names, declared in a seeded shuffled
    order, and per old index the new one."""
    rng = random.Random(seed)
    n = len(af)
    order = rng.sample(range(n), n)
    labels = rng.sample(range(10 * n + 10), n)
    new_of = [0] * n
    for j, i in enumerate(order):
        new_of[i] = j
    names = [f"r{label}" for label in labels]
    new_af = md.build_framework(
        names, [(names[new_of[a]], names[new_of[b]]) for a, b in af.attacks])

    def rename(s):
        return [names[new_of[i]] for i in s.indices()]

    return new_of, new_af, md.build_partition(new_af, rename(p.focus),
                                              rename(p.restricted))


def union(parts, seed):
    """The frameworks and partitions of ``parts`` side by side, declared
    interleaved in a seeded order, and per part the index map into it."""
    rng = random.Random(seed)
    names = [a for af, _ in parts for a in af.names]
    rng.shuffle(names)
    af = md.build_framework(names, [(x.names[a], x.names[b])
                                    for x, _ in parts
                                    for a, b in x.attacks])
    p = md.build_partition(
        af, [a for _, q in parts for a in q.focus.names],
        [a for _, q in parts for a in q.restricted.names])
    return af, p, [[af.index_of[a] for a in x.names] for x, _ in parts]


def isolated(k, prefix):
    """``k`` isolated arguments, all unrestricted focus members, and each
    semantics' family on them by definition."""
    af = md.build_framework([f"{prefix}{i}" for i in range(k)], [])
    p = md.Partition(af, af.full_set(), af.empty_set())
    make = md.ExtensionFamily._product_of
    return af, p, {
        name: make(af, [[0, 1 << i] for i in range(k)]
                   if name in EVERY_SUBSET else [[af.full_mask]])
        for name in FAMILIES}


def instances():
    """Sparse frameworks of 60-200 arguments and structured shapes."""
    for n in range(60, 201, 20):
        yield sparse(n, n)
    for k, (_, af) in enumerate(structured_stream(12, 19000)):
        yield with_partition(af, k)


@pytest.mark.parametrize("k", range(3))
def test_renaming_renames_every_family(k):
    rng = random.Random(k)
    for i, (af, p) in enumerate(instances()):
        new_of, new_af, new_p = renamed(af, p, 100 * k + i)
        want = families(af, p)
        got = families(new_af, new_p)
        for name in FAMILIES:
            assert_product(got[name], [(want[name], new_of)], rng)


def unions():
    """Per seed, a sparse framework, a renamed second part (sparse or a
    structured shape) and a few isolated arguments side by side. Yields the
    union's framework and partition, per part its index map into the union,
    and per part its families."""
    shapes = [with_partition(af, k)
              for k, (_, af) in enumerate(structured_stream(8, 19500))]
    for k in range(8):
        first = sparse(40 + 5 * k, 300 + k)
        second = (shapes[k] if k % 2 else
                  sparse(30 + 5 * k, 400 + k))
        renamed_second = renamed(*second, 500 + k)[1:]
        lone_af, lone_p, lone = isolated(1 + k % 3, "z")
        af, p, maps = union([first, renamed_second, (lone_af, lone_p)], k)
        yield af, p, maps, [families(*first), families(*renamed_second),
                            lone]


def test_a_disjoint_union_is_the_product_of_its_parts():
    rng = random.Random(0)
    for af, p, maps, parts in unions():
        got = families(af, p)
        for name in FAMILIES:
            assert_product(got[name], [(fams[name], index_map)
                                       for fams, index_map in zip(parts,
                                                                  maps)],
                           rng)


def test_restricted_admissible_matches_the_filtered_reference():
    # the obligations against the post filter they replace, on every law
    # instance where the filter answers under the set cap
    rng = random.Random(1)
    answered = 0
    law_instances = chain(instances(), ((af, p) for af, p, _, _ in unions()))
    for af, p in law_instances:
        try:
            want = filtered_restrictedly_admissible_sets(af, p)
        except md.BudgetExceeded:
            continue
        assert_product(md.restrictedly_admissible_sets(af, p),
                       [(want, range(len(af)))], rng)
        answered += 1
    assert answered == 27


def test_restricted_admissible_keeps_the_product_past_the_cap():
    # the post filter multiplied every factor out here and refused
    af, p = sparse(120, 120)
    with pytest.raises(md.BudgetExceeded, match="answer exceeds the cap"):
        filtered_restrictedly_admissible_sets(af, p)
    assert count(md.restrictedly_admissible_sets(af, p)) == 1036800


def union_and_intersection(family):
    """The union and the intersection of ``family``'s members, as masks:
    literally when it is small, else from its factors (a member is one
    mask of each factor, and every factor has one)."""
    if count(family) <= SMALL:
        masks = members(family)
        union = intersection = 0
        if masks:
            intersection = masks[0]
        for m in masks:
            union |= m
            intersection &= m
        return union, intersection
    union = intersection = 0
    for masks in family._factors:
        common = masks[0]
        for m in masks:
            union |= m
            common &= m
        intersection |= common
    return union, intersection


@st.composite
def law_queries(draw):
    """A sparse or structured framework above the oracle cap, with a
    partition, and a few of its arguments."""
    if draw(st.booleans()):
        af, p = sparse(draw(st.integers(20, 120)), draw(st.integers(0, 999)))
    else:
        _, af = next(iter(structured_stream(1, draw(st.integers(0, 999)))))
        af, p = with_partition(af, draw(st.integers(0, 999)))
    names = draw(st.lists(st.sampled_from(af.names), min_size=1,
                          max_size=4, unique=True))
    return af, p, names


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(law_queries())
def test_queries_read_the_union_and_the_intersection(query):
    # every semantics, both modes, the solver engine, through the CLI's
    # request path; no family may refuse
    af, p, names = query
    text = serialize_afp(af, p)
    for name, family in families(af, p).items():
        union, intersection = union_and_intersection(family)
        for a in names:
            bit = 1 << af.index(a)
            for mode, want in (("credulous", union & bit),
                               ("skeptical", intersection & bit)):
                result = execute(SolveRequest(
                    text=text, semantics=name, mode=mode, argument=a))
                assert result.verdict == bool(want), (name, mode, a)


def test_queries_match_the_factor_reference_on_the_law_instances():
    # the non-min-def queries against the family they no longer build, on
    # every law instance and a seeded sample of its arguments
    rng = random.Random(2)
    law_instances = chain(instances(), ((af, p) for af, p, _, _ in unions()))
    checked = 0
    for af, p in law_instances:
        names = rng.sample(af.names, min(6, len(af)))
        for semantics in QUERIES:
            want = factor_query(af, p, semantics)
            for mode in ("credulous", "skeptical"):
                for a in names:
                    request = SolveRequest(semantics=semantics, mode=mode,
                                           argument=a)
                    assert _decide(af, p, request, _kernels.UNBOUNDED) == (
                        want(mode, a)), (semantics, mode, a)
                    checked += 1
    assert checked > 28 * 5 * 2 * 5


def test_the_restricted_drop_keeps_every_law_family():
    # restricted candidates whose defender walk reaches no candidate are
    # dropped; each group's members equal the undropped search's
    deadline = _kernels.UNBOUNDED
    law_instances = chain(instances(), ((af, p) for af, p, _, _ in unions()))
    for af, p in law_instances:
        got = extensions._solve_space(af, p.focus.mask,
                                      extensions.ADMISSIBLE_ALL, deadline, p)
        assert_same_factor_members(got, undropped_solve_space(
            af, p.focus.mask, extensions.ADMISSIBLE_ALL, deadline, p))


def with_isolated(af, p, place):
    """``af`` plus an argument ``z`` that attacks nothing and that nothing
    attacks, in the focus as an ``"unrestricted"`` or ``"restricted"``
    member, or ``"outside"`` it."""
    zaf = md.build_framework([*af.names, "z"],
                             [(af.names[a], af.names[b])
                              for a, b in af.attacks])
    focus = list(p.focus.names) + (["z"] if place != "outside" else [])
    restricted = (list(p.restricted.names)
                  + (["z"] if place == "restricted" else []))
    return zaf, md.build_partition(zaf, focus, restricted)


@st.composite
def isolated_law_instances(draw):
    """A sparse framework of 4-120 arguments or a structured shape, with a
    partition; the smaller ones are within the oracle's reach."""
    if draw(st.booleans()):
        return sparse(draw(st.integers(4, 120)), draw(st.integers(0, 999)))
    _, af = next(iter(structured_stream(1, draw(st.integers(0, 999)))))
    return with_partition(af, draw(st.integers(0, 999)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(isolated_law_instances())
def test_an_isolated_argument_is_in_every_extension_its_place_allows(
        instance):
    for place in ("unrestricted", "restricted", "outside"):
        af, p = with_isolated(*instance, place)
        z = 1 << af.index("z")
        want = {"preferred": True,
                "preferred-on-f": place != "outside",
                "min-def": place == "unrestricted"}
        for name, expected in want.items():
            family = FAMILIES[name][0](af, p, p.focus, None)
            assert bool(union_and_intersection(family)[1] & z) == expected
            # the oracle scans every argument for preferred, else the focus
            space = af.full_set() if name == "preferred" else p.focus
            engines = ("solver", "oracle")
            if len(space) > ORACLE_SPACE:
                engines = ("solver",)
            for engine in engines:
                request = SolveRequest(semantics=name, mode="skeptical",
                                       argument="z", engine=engine)
                assert _decide(af, p, request, _kernels.UNBOUNDED) == (
                    expected), (name, place, engine)
