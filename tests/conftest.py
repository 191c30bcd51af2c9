import itertools
import pathlib

import pytest

import mindef as md

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
