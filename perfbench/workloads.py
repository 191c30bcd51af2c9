"""The benchmark's four workloads: seeded requests and their reply checks.

Every workload turns a seed into a list of :class:`Request` objects, each an
AFP text plus CLI flags (the program sees nothing else) and a check of the
reply. A builder calls ``tick()`` before each instance it generates, which
lets the harness measure set-up time in short stretches. Probe requests,
the instances the ROADMAP quotes baselines for, come first in every list;
the rest follow in a seed-shuffled order.

Instance structure. min-def cost spans three orders of magnitude between
random instances of the same size, so a run of ~100 freshly drawn instances
would give medians that move by more than 50% from seed to seed.
``mindef-minimize`` therefore uses a fixed population of seeded instances;
the benchmark seed renames their arguments (index order, and so all solver
work, is unchanged) and orders the requests. The ROADMAP's preferred n=60
probe is treated the same way. ``wide-families`` fixes the number of
two-cycles and of each partition type per request and lets the seed place
and name them. ``small-requests`` draws fresh instances from the seed on a
fixed schedule of sizes and request kinds.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from mindef import afp, cli, generators, model, semantics
from mindef.errors import MindefError
from mindef.extensions import SearchBudget

INTERACTIVE = SearchBudget(wall_clock_seconds=1.0)
# far above the slowest request of these workloads when they were written
CEILING = SearchBudget(wall_clock_seconds=60.0)


@dataclass
class Request:
    solve: cli.SolveRequest
    check: Callable          # (reply text) -> None if correct, else a reason
    probe: str = ""          # ROADMAP probe label, empty for other requests


# -- shared helpers -----------------------------------------------------------

def _renamed(af, p, rng, prefix="a"):
    """The same framework with a seed-chosen permutation of its names.

    Names keep their declaration (index) order, so the solver does the same
    work; only the name-sorted output order changes. Returns the new
    framework and partition and the map back to the original names.
    """
    perm = list(range(len(af.names)))
    rng.shuffle(perm)
    names = [f"{prefix}{perm[i]}" for i in range(len(af.names))]
    back = dict(zip(names, af.names))
    new_af = model.build_framework(
        names, [(names[a], names[b]) for a, b in af.attacks])
    if p is None:
        return new_af, None, back
    new_p = model.build_partition(
        new_af, [names[i] for i in p.focus.indices()],
        [names[i] for i in p.restricted.indices()])
    return new_af, new_p, back


def plain_sets(reply):
    """Parse a plain family reply into a list of name tuples, or None."""
    sets = []
    for line in reply.splitlines():
        if not (line.startswith("{") and line.endswith("}")):
            return None
        body = line[1:-1]
        sets.append(tuple(body.split(",")) if body else ())
    return sets


def digest(sets):
    """Order-free fingerprint of a family given as name collections."""
    lines = sorted(tuple(sorted(s)) for s in sets)
    text = "\n".join("{%s}" % ",".join(s) for s in lines)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _family_check(af, p, back, key, digests, member_ok, dominated):
    """Check a plain family reply against predicates and a committed digest."""

    def check(reply):
        sets = plain_sets(reply)
        if not sets:
            return "reply is not a non-empty family"
        try:
            members = [af.subset(s) for s in sets]
            if len({m.mask for m in members}) != len(members):
                return "duplicate members"
            for m in members:
                if not member_ok(m):
                    return f"member {m!r} fails the semantics predicate"
        except MindefError as exc:  # unknown names, members outside the focus
            return f"malformed member: {exc}"
        for m in members:
            for other in members:
                if other.mask != m.mask and dominated(m, other):
                    return f"member {m!r} is dominated by {other!r}"
        want = digests.get(key)
        if want is not None:
            got = digest([back[name] for name in s] for s in sets)
            if got != want:
                return f"digest {got} differs from the committed {want}"
        return None

    return check


def _ordered(probes, rest, rng):
    rng.shuffle(rest)
    return probes + rest


# -- mindef-minimize ---------------------------------------------------------

def mindef_population(tiny=False):
    """(key, config) pairs: the ROADMAP cases, then n = 100..300.

    At n=400, p=0.007 leaves 10 restricted arguments in the candidate; the
    ROADMAP's 23-argument case is p=2/n=0.005, so both are probes.
    """
    probes = [] if tiny else [
        (f"n={n} p={p} seed=1",
         generators.GeneratorConfig(n, p, 0.7, 0.3, seed=1))
        for n, p in ((300, 0.007), (400, 0.007), (400, 0.005))]
    sizes = range(100, 106, 2) if tiny else range(100, 301, 2)
    rest = [(f"n={n} p=2/n seed={7000 + n}",
             generators.GeneratorConfig(n, 2.0 / n, 0.7, 0.3, seed=7000 + n))
            for n in sizes]
    return probes, rest


def _no_tick():
    pass


def mindef_minimize(seed, digests, tiny=False, tick=_no_tick):
    rng = random.Random(seed)
    probes, rest = mindef_population(tiny)

    def request(key, cfg, probe):
        tick()
        af, p = generators.random_instance(cfg)
        af, p, back = _renamed(af, p, rng)
        text = afp.serialize_afp(af, p)
        check = _family_check(
            af, p, back, key, digests.get("mindef-minimize", {}),
            lambda m: semantics.is_restrictedly_admissible(af, p, m),
            lambda m, other: semantics.prec_compare(p, m, other)
            is semantics.PrecOrdering.STRICTLY_BETTER)
        solve = cli.SolveRequest(text=text, semantics="min-def",
                                 budget=INTERACTIVE)
        return Request(solve, check, f"min-def {key}" if probe else "")

    return _ordered([request(k, c, True) for k, c in probes],
                    [request(k, c, False) for k, c in rest], rng)


# -- the ROADMAP's preferred probe ------------------------------------------

def preferred_population():
    """(key, config) pairs: the ROADMAP's dense n=60 tree-search case."""
    return [("n=60 p=0.1 seed=1",
             generators.GeneratorConfig(60, 0.1, seed=1))], []


def _preferred_probe(rng, digests):
    ((key, cfg),), _ = preferred_population()
    af, _ = generators.random_instance(cfg)
    af, _, back = _renamed(af, None, rng)
    check = _family_check(
        af, None, back, key, digests.get("preferred", {}),
        lambda m: semantics.is_admissible(af, m),
        lambda m, other: m.mask | other.mask == other.mask)
    solve = cli.SolveRequest(text=afp.serialize_afp(af), semantics="preferred",
                             budget=CEILING)
    return Request(solve, check, f"preferred {key}")


# -- wide-families -----------------------------------------------------------

# partition type of each two-cycle: U unrestricted focus, R restricted,
# O outside the focus; a k-cycle instance uses the first k entries
CYCLE_TYPES = ("UU", "UR", "UO", "UU", "RR", "RO", "UU", "OO", "UR", "UU",
               "UO", "RR")


def cycle_count(semantics_name, kind):
    """Family size contributed by one two-cycle of the given partition type.

    conflict-free and admissible: {}, {a}, {b}; preferred: {a}, {b}. A
    two-cycle member defends only itself, so a restricted member never
    defends an unrestricted one: restricted-admissible keeps {} and the
    unrestricted singletons, and min-def keeps the unrestricted singletons
    (or {} when there are none). Families of independent cycles are
    products of these counts.
    """
    unrestricted = kind.count("U")
    if semantics_name in ("conflict-free", "admissible"):
        return 3
    if semantics_name == "preferred":
        return 2
    if semantics_name == "restricted-admissible":
        return 1 + unrestricted
    return 2 if unrestricted == 2 else 1


def two_cycles(k, partitioned, rng):
    """k disjoint two-cycles with seed-placed partition types and names."""
    kinds = list(CYCLE_TYPES[:k]) if partitioned else ["UU"] * k
    rng.shuffle(kinds)
    names = [f"c{i}" for i in range(2 * k)]
    rng.shuffle(names)
    pairs = []
    focus, restricted = [], []
    for j, kind in enumerate(kinds):
        a, b = names[2 * j], names[2 * j + 1]
        pairs += [(a, b), (b, a)]
        for name, label in zip((a, b), kind):
            if label != "O":
                focus.append(name)
            if label == "R":
                restricted.append(name)
    af = model.build_framework(names, pairs)
    p = model.build_partition(af, focus, restricted) if partitioned else None
    return af, p, kinds


def _count_check(expected, structured):
    def check(reply):
        if structured:
            try:
                sets = json.loads(reply)["extensions"]
            except (ValueError, KeyError, TypeError):
                return "reply is not a structured family"
        else:
            sets = plain_sets(reply)
            if sets is None:
                return "reply is not a plain family"
        if len({tuple(s) for s in sets}) != len(sets):
            return "duplicate members"
        if len(sets) != expected:
            return f"{len(sets)} members, closed form says {expected}"
        return None

    return check


def wide_families(seed, digests, tiny=False, tick=_no_tick):
    rng = random.Random(seed)
    ks = range(2, 4) if tiny else range(6, 13)
    big = 3 if tiny else 9      # 3^k-member families only up to this k
    # min-def shrinks up to 2^k candidates; at k=11 a request takes seconds
    big_min_def = 3 if tiny else 10
    grid = []
    for k in ks:
        for sem in ("preferred", "admissible", "conflict-free",
                    "restricted-admissible", "min-def"):
            if (sem == "preferred" or k <= big
                    or sem == "min-def" and k <= big_min_def):
                for partitioned in (False, True):
                    for structured in (False, True):
                        grid.append((k, sem, partitioned, structured))

    def request(k, sem, partitioned, structured, probe=""):
        tick()
        af, p, kinds = two_cycles(k, partitioned, rng)
        expected = 1
        for kind in kinds:
            expected *= cycle_count(sem, kind)
        solve = cli.SolveRequest(
            text=afp.serialize_afp(af, p), semantics=sem,
            output="structured" if structured else "plain", budget=CEILING)
        return Request(solve, _count_check(expected, structured), probe)

    probes = [] if tiny else [
        request(12, "preferred", False, False, "preferred 12 two-cycles"),
        _preferred_probe(rng, digests)]
    return _ordered(probes, [request(*g) for g in grid], rng)


# -- small-requests ----------------------------------------------------------

SMALL_SIZES = (8, 9, 10, 11, 12, 13, 14) * 3 + (15, 16, 17, 18)
SMALL_KINDS = tuple((mode, sem) for mode in ("enumerate", "credulous",
                                             "skeptical", "check")
                    for sem in cli.SEMANTICS)


def _small_pair(af, p, mode, sem, rng, probe=""):
    """The same request for the solver and then the oracle engine."""
    text = afp.serialize_afp(af, p)
    argument = check_set = None
    if mode in ("credulous", "skeptical"):
        argument = af.names[rng.randrange(len(af.names))]
    elif mode == "check":
        focus = list(p.focus)
        check_set = tuple(rng.sample(focus, min(len(focus), rng.randrange(3))))
    replies = {}

    def request(engine):
        solve = cli.SolveRequest(text=text, semantics=sem, mode=mode,
                                 argument=argument, check_set=check_set,
                                 engine=engine, budget=CEILING)

        def check(reply):
            if engine == "solver":
                replies["solver"] = reply
                return None if reply else "empty reply"
            if replies.pop("solver", None) != reply:
                return "oracle and solver replies differ"
            return None

        return Request(solve, check, probe if engine == "oracle" else "")

    return [request("solver"), request("oracle")]


def small_requests(seed, digests, tiny=False, tick=_no_tick):
    rng = random.Random(seed)
    count = len(SMALL_KINDS) if tiny else 4000
    pairs = []
    for j in range(count):
        tick()
        n = SMALL_SIZES[j % len(SMALL_SIZES)]
        if tiny:
            n = min(n, 10)
        density = (0.1, 0.2, 0.3)[j // len(SMALL_KINDS) % 3]
        cfg = generators.GeneratorConfig(n, density, 0.7, 0.3,
                                         seed=rng.getrandbits(32))
        af, p = generators.random_instance(cfg)
        pairs.append(_small_pair(af, p, *SMALL_KINDS[j % len(SMALL_KINDS)],
                                 rng))
    probes = []
    if not tiny:
        af, p = generators.random_instance(
            generators.GeneratorConfig(18, 0.15, seed=3))
        probes = _small_pair(af, p, "enumerate", "admissible", rng,
                             "oracle admissible n=18 p=0.15 seed=3")
    rng.shuffle(pairs)
    return probes + [r for pair in pairs for r in pair]


WORKLOADS = {
    "mindef-minimize": mindef_minimize,
    "wide-families": wide_families,
    "small-requests": small_requests,
}

# populations whose replies are checked against committed digests
POPULATIONS = {
    "mindef-minimize": (mindef_population, "min-def"),
    "preferred": (preferred_population, "preferred"),
}
