"""Laws every semantics obeys, checked above the oracle cap without a
reference implementation.

* Renaming: declaring the arguments in another order under other names
  renames every family the same way. The solver's numbering, and with it
  its branching order, changes; its answers must not.
* Disjoint union: the family of two frameworks side by side is the set of
  unions of one member from each part's family. A third part of isolated,
  unrestricted focus members has its family by definition: every subset
  for the semantics without maximality, the whole part for the others.

Families past ``SMALL`` members are compared without building them: the
counts must agree, and seeded draws of members (one mask per factor) must
lie in the other side, both ways.
"""

import random
from math import prod

import pytest

import mindef as md
from mindef import _kernels, extensions
from mindef.cli import FAMILIES
from mindef.model import bits

from conftest import structured_stream

# families up to this size are compared member by member
SMALL = 1 << 12
# members drawn from each side of a larger family
DRAWS = 40
# the semantics whose family on isolated arguments is every subset
EVERY_SUBSET = ("conflict-free", "admissible", "restricted-admissible")


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
    focus; ``None`` for a family refused on the set cap."""
    out = {}
    for name, (solver, _) in FAMILIES.items():
        try:
            out[name] = solver(af, p, p.focus, None)
        except md.BudgetExceeded as exc:
            assert str(exc).startswith("answer exceeds the cap")
            out[name] = None
    return out


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
            # the cap counts sets, so a refusal is renamed too
            if want[name] is None or got[name] is None:
                assert want[name] is got[name] is None
                continue
            assert_product(got[name], [(want[name], new_of)], rng)


def test_a_disjoint_union_is_the_product_of_its_parts():
    rng = random.Random(0)
    refused = []
    shapes = [with_partition(af, k)
              for k, (_, af) in enumerate(structured_stream(8, 19500))]
    for k in range(8):
        first = sparse(40 + 5 * k, 300 + k)
        second = (shapes[k] if k % 2 else
                  sparse(30 + 5 * k, 400 + k))
        renamed_second = renamed(*second, 500 + k)[1:]
        lone_af, lone_p, lone = isolated(1 + k % 3, "z")
        af, p, maps = union([first, renamed_second, (lone_af, lone_p)], k)
        got = families(af, p)
        parts = [families(*first), families(*renamed_second), lone]
        for name in FAMILIES:
            if got[name] is None:
                # restricted-admissible multiplies all factors out when
                # one restricted member defends across two of them
                refused.append(name)
                continue
            assert_product(got[name], [(fams[name], index_map)
                                       for fams, index_map in zip(parts,
                                                                  maps)],
                           rng)
    assert len(refused) <= 2 and set(refused) <= {"restricted-admissible"}
