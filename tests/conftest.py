import itertools
import pathlib
import random

import pytest

import mindef as md
from mindef import _kernels, extensions
from mindef.model import bits

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures():
    return md.builtin_fixtures()


@pytest.fixture
def af1(fixtures):
    return fixtures["AF1"][0]


@pytest.fixture
def p2(fixtures):
    return fixtures["AF2"][1]


@pytest.fixture
def p3(fixtures):
    return fixtures["AF3"][1]


@pytest.fixture
def abc(fixtures):
    return fixtures["ABC"]


def sset(af, names=""):
    """Shorthand: sset(af, "a,b,c") -> ArgumentSet."""
    return af.subset(n for n in names.split(",") if n)


def instance_stream(count, base_seed=0, sizes=(4, 5, 6, 7, 8, 9, 10),
                    probabilities=(0.1, 0.25, 0.5), focus_fraction=0.75,
                    restricted_fraction=0.5, acyclic=False):
    """Deterministic stream of seeded random (config, framework, partition)."""
    for k in range(count):
        cfg = md.GeneratorConfig(
            argument_count=sizes[k % len(sizes)],
            attack_probability=probabilities[k % len(probabilities)],
            focus_fraction=focus_fraction,
            restricted_fraction=restricted_fraction,
            seed=base_seed + k,
            acyclic_only=acyclic)
        af, p = md.random_instance(cfg)
        yield cfg, af, p


def structured_framework(shape, size, prefix="x"):
    """One framework of a named shape, as (names, attacks).

    ``two-cycles``: ``size`` disjoint mutual attacks ``a_i <-> b_i``;
    ``chain``: the same two-cycles chained by ``b_i -> a_(i+1)``;
    ``cycle``: ``size`` arguments attacking round a ring (even sizes have
    two preferred extensions, odd sizes only ``{}``); ``isolated``: ``size``
    arguments and no attacks.
    """
    if shape in ("two-cycles", "chain"):
        names, attacks = [], []
        for i in range(size):
            a, b = f"{prefix}a{i}", f"{prefix}b{i}"
            names += [a, b]
            attacks += [(a, b), (b, a)]
            if shape == "chain" and i:
                attacks.append((f"{prefix}b{i - 1}", a))
        return names, attacks
    names = [f"{prefix}{i}" for i in range(size)]
    if shape == "cycle":
        return names, [(names[i], names[(i + 1) % size])
                       for i in range(size)]
    if shape == "isolated":
        return names, []
    raise ValueError(f"unknown shape {shape!r}")


def structured_stream(count, base_seed=0, sizes=None):
    """Deterministic stream of disjoint unions of structured shapes.

    Each item is ``(label, framework)``: one to three parts, each a shape
    from :func:`structured_framework` with a seeded size from ``sizes``
    (shape -> range), declared in a seeded interleaved order so that the
    parts' arguments mix in the search order.
    """
    sizes = sizes or {"two-cycles": range(1, 5), "chain": range(1, 9),
                      "cycle": range(1, 23), "isolated": range(1, 6)}
    shapes = sorted(sizes)
    for k in range(count):
        rng = random.Random(base_seed + k)
        names, attacks, label = [], [], []
        for part in range(rng.randint(1, 3)):
            shape = rng.choice(shapes)
            size = rng.choice(sizes[shape])
            part_names, part_attacks = structured_framework(
                shape, size, prefix=f"p{part}")
            names += part_names
            attacks += part_attacks
            label.append(f"{shape}:{size}")
        rng.shuffle(names)
        yield "+".join(label), md.build_framework(names, attacks)


def recursive_dfs_enumerate(k, pos_idx, suffix_avail, forced_mask, space,
                            maximal_only):
    """Reference for ``_kernels.dfs_enumerate``: the recursive walk it
    replaced, which rescans every included member's obligations at each
    node and tests leaf maximality over all ``k`` members."""
    conflict, obligations = space.conflict, space.obligations
    npos = len(pos_idx)
    out = []

    def walk(depth, inc):
        avail = suffix_avail[depth]
        for i in bits(inc):
            for m in obligations[i]:
                if m & inc == 0 and m & avail == 0:
                    return
        if depth == npos:
            if maximal_only:
                for i in range(k):
                    bit = 1 << i
                    if inc & bit or conflict[i] & inc:
                        continue
                    if all(m & (inc | bit) for m in obligations[i]):
                        return
            out.append(inc)
            return
        i = pos_idx[depth]
        bit = 1 << i
        if conflict[i] & inc == 0:
            walk(depth + 1, inc | bit)
            if maximal_only:
                if all(m & inc for m in obligations[i]):
                    return
                if (conflict[i] & suffix_avail[depth + 1] == 0
                        and all(m & (inc | bit) for m in obligations[i])):
                    return
        walk(depth + 1, inc)

    walk(0, forced_mask)
    return out


def single_tree_solve_space(af, space_mask, mode):
    """Reference for ``extensions._solve_space``: one recursive search over
    the whole prepared space, then for ``ADMISSIBLE_MAX`` one
    subset-maximality pass over the whole family. Returns a set of masks."""
    cand, forced = extensions._prepare_space(af, space_mask, mode)
    space = _kernels.LocalSpace(af, cand, mode != extensions.CONFLICT_FREE)
    k = len(space.members)
    forced_local = space.to_local(forced)
    pos_idx = [j for j in range(k) if not forced_local >> j & 1]
    suffix = [0] * (len(pos_idx) + 1)
    for d in range(len(pos_idx) - 1, -1, -1):
        suffix[d] = suffix[d + 1] | (1 << pos_idx[d])
    maximal_only = mode == extensions.ADMISSIBLE_MAX
    local_masks = recursive_dfs_enumerate(
        k, pos_idx, suffix, forced_local, space, maximal_only)
    masks = [space.to_global(lm) for lm in local_masks]
    if maximal_only:
        masks = extensions._subset_maximal_masks(masks)
    return set(masks)


def subset_walk_minimize(af, p, e):
    """Reference for ``minimize_restricted``: walk every subset R of the
    restricted part of ``e`` by increasing size and keep the admissible
    ``e_u | R`` that contain no support found before. Returns their masks."""
    eu = e.mask & p.unrestricted.mask
    er = list(md.ArgumentSet(af, e.mask & p.restricted.mask).indices())
    minimal = []
    for size in range(len(er) + 1):
        for combo in itertools.combinations(er, size):
            r = sum(1 << b for b in combo)
            if any(m | r == r for m in minimal):
                continue
            if md.is_admissible(af, md.ArgumentSet(af, eu | r)):
                minimal.append(r)
    return {eu | m for m in minimal}


def walk_defenders(af, a):
    """Independent check for defender walks: expand every backward attack
    walk layer by layer and collect the vertices on even layers >= 2."""
    n = len(af.names)
    layer = {af.index(a)}
    found = set()
    for step in range(1, 2 * n + 1):
        nxt = set()
        for v in layer:
            nxt.update(md.ArgumentSet(af, af.attacker_masks[v]).indices())
        layer = nxt
        if step % 2 == 0:
            found |= layer
    return frozenset(af.names[i] for i in sorted(found))


def has_cycle_dfs(af):
    """Independent recursive three-color cycle detector."""
    color = [0] * len(af.names)

    def visit(v):
        color[v] = 1
        for w in md.ArgumentSet(af, af.target_masks[v]).indices():
            if color[w] == 1:
                return True
            if color[w] == 0 and visit(w):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(len(af.names)))
