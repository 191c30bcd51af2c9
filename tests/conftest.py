import bisect
import functools
import itertools
import json
import operator
import pathlib
import random
import re
import time
import types

import numpy as np
import pytest
from hypothesis import strategies as st

import mindef as md
from mindef import _kernels, afp, cli, extensions, semantics
from mindef.errors import AfpSyntaxError, UndeclaredArgument
from mindef.model import ArgumentationFramework, bits, build_partition

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"
FIXTURE_TEXTS = [path.read_text()
                 for path in sorted(FIXTURE_DIR.glob("*.afp"))]


# what an edit inserts: statement characters, and the line separators and
# whitespace that ``str.splitlines`` and ``str.strip`` treat specially
# (``\x0b``, ``\x0c``, ``\x1c`` and ``\x85`` end a line; ``\xa0`` is
# whitespace inside one; ``é`` is a letter outside the name alphabet)
INSERTS = (tuple("(),.#_argtfocusrestricted0123456789")
           + ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ", "\t",
              "\xa0", "é"))


@st.composite
def mutated_fixtures(draw):
    """A fixture's text after a few character and whole-line edits."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 6))):
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(text)))
        line = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(
            ("insert", "delete", "drop line", "repeat line", "swap lines")))
        if edit == "insert":
            text = text[:at] + "".join(draw(st.lists(
                st.sampled_from(INSERTS), max_size=6))) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif lines:
            other = draw(st.integers(0, len(lines) - 1))
            if edit == "drop line":
                del lines[line]
            elif edit == "repeat line":
                lines.insert(other, lines[line])
            else:
                lines[line], lines[other] = lines[other], lines[line]
            text = "".join(lines)
    return text


@pytest.fixture(scope="session")
def fixtures():
    return md.builtin_fixtures()


@pytest.fixture
def clock_skew(monkeypatch):
    """A one-element list of seconds added to every clock read of the
    ceilings; a test moves it forward to make the clock jump."""
    skew = [0.0]
    real = time.monotonic
    monkeypatch.setattr(_kernels, "time", types.SimpleNamespace(
        monotonic=lambda: real() + skew[0]))
    return skew


def jump_after_the_codes(clock_skew, monkeypatch):
    """Make the clock jump 10 s each time ``extensions._member_codes``
    returns, so that the ordering's read after its sort refuses."""
    member_codes = extensions._member_codes

    def codes_then_jump(factors, width, deadline):
        out = member_codes(factors, width, deadline)
        clock_skew[0] += 10.0
        return out

    monkeypatch.setattr(extensions, "_member_codes", codes_then_jump)


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
    arguments and no attacks; ``path``: ``size`` arguments, each attacking
    the next, so the forced core grows by one member every other step;
    ``cascade``: ``b_i -> c_i`` and ``c_(i-1) -> b_i``, the ``c_i``
    declared first in reverse order, so that dropping ``c_0`` (whose
    attacker ``b_0`` nobody answers) drops the ``c_i`` one by one against
    the index order.
    """
    if shape == "cascade":
        names = ([f"{prefix}c{i}" for i in reversed(range(size))]
                 + [f"{prefix}b{i}" for i in range(size)])
        return names, ([(f"{prefix}b{i}", f"{prefix}c{i}")
                        for i in range(size)]
                       + [(f"{prefix}c{i - 1}", f"{prefix}b{i}")
                          for i in range(1, size)])
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
    if shape == "path":
        return names, list(zip(names, names[1:]))
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


def restricted_instances():
    """Random frameworks above the oracle cap, and structured shapes under
    seed-drawn partitions."""
    for seed in range(40):
        n = 30 + seed % 31
        yield md.random_instance(md.GeneratorConfig(
            n, 3.0 / n, 0.8, 0.5, seed=seed))
    small = {"two-cycles": range(1, 4), "chain": range(1, 5),
             "cycle": range(1, 10), "isolated": range(1, 4)}
    for k, (_, af) in enumerate(structured_stream(40, 9700, small)):
        rng = random.Random(k)
        focus = [a for a in af.names if rng.random() < 0.8]
        restricted = [a for a in focus if rng.random() < 0.5]
        yield af, md.build_partition(af, focus, restricted)


def obligation_lists(space):
    """Per member of a ``_kernels.LocalSpace``, the list of the answerer
    masks of the obligations it owes: the layout the kernel references
    below were written against."""
    return [[space.answerers[o] for o in bits(m)] for m in space.owes]


def watch_list_dfs_enumerate(k, pos_idx, suffix_avail, forced_mask, space,
                             maximal_only, deadline=_kernels.UNBOUNDED):
    """Reference for :func:`fixed_order_dfs_enumerate`: the iterative walk
    it replaced, which read per-member obligation lists and kept, per
    branchable bit, a watch list of the obligations whose last branchable
    answerer it is. Same arguments, same result list in the same order."""
    npos = len(pos_idx)
    branchable = suffix_avail[0]
    # per branchable bit, the mask of owners and the (owner bit, obligation)
    # pairs whose last branchable answerer it is: only excluding that one can
    # strand an obligation, and only if its owner is included
    conflict = space.conflict
    own = obligation_lists(space)
    depth_of = {i: d for d, i in enumerate(pos_idx)}
    watch = {i: [] for i in pos_idx}
    owners = dict.fromkeys(pos_idx, 0)
    for o in bits(forced_mask | branchable):
        for m in own[o]:
            if m & forced_mask or m & branchable == 0:
                continue  # always met, or never: no exclusion changes it
            last = max(bits(m & branchable), key=depth_of.__getitem__)
            watch[last].append((1 << o, m))
            owners[last] |= 1 << o
    reach = forced_mask | branchable
    for o in bits(forced_mask):
        for m in own[o]:
            if m & reach == 0:
                return []

    def joinable(inc):
        # some excluded candidate could still join: the enlarged set is
        # admissible, so ``inc`` is not maximal
        for j in bits(branchable & ~inc):
            if conflict[j] & inc == 0:
                grown = inc | 1 << j
                if all(m & grown for m in own[j]):
                    return True
        return False

    out = []
    cap = _kernels.MAX_SETS
    ticks = 0
    stack = [(0, forced_mask)]
    pop = stack.pop
    push = stack.append
    while stack:
        ticks += 1
        if ticks & 1023 == 0:
            deadline.check()
        depth, inc = pop()
        if depth == npos:
            if not (maximal_only and joinable(inc)):
                out.append(inc)
                if len(out) > cap:
                    raise _kernels.too_many_sets()
            continue
        i = pos_idx[depth]
        depth += 1
        avail = suffix_avail[depth]
        include = exclude = True
        if conflict[i] & inc:
            include = False
        else:
            obs = own[i]
            grown = inc | 1 << i
            # including i adds only i's own obligations
            reach = grown | avail
            for m in obs:
                if m & reach == 0:
                    include = False
                    break
            if maximal_only:
                # already defended and non-conflicting: any admissible
                # superset without i extends by i, so no exclude-leaf is
                # maximal; same if nothing ahead can ever conflict with i
                # and i stays defendable by itself
                for m in obs:
                    if m & inc == 0:
                        break
                else:
                    exclude = False
                if exclude and conflict[i] & avail == 0:
                    for m in obs:
                        if m & grown == 0:
                            break
                    else:
                        exclude = False
        if exclude and inc & owners[i]:
            # excluding i fails if an included owner loses its last answerer
            for owner, m in watch[i]:
                if inc & owner and m & inc == 0:
                    exclude = False
                    break
        if exclude:
            push((depth, inc))
        if include:
            push((depth, grown))
    return out


def fixed_order_dfs_enumerate(k, pos_idx, suffix_avail, forced_mask, space,
                              maximal_only, deadline=_kernels.UNBOUNDED):
    """Reference for ``_kernels.dfs_enumerate``: the fixed-order
    include/exclude tree it replaced, which branches on the members of
    ``pos_idx`` in order and reads every ``suffix_avail[d]``, the union of
    the bits still branchable at depth ``d``. ``forced_mask`` members are
    included unconditionally. With ``maximal_only``, branches that
    provably yield no inclusion-maximal set are cut. Refuses past the
    ceiling or past ``MAX_SETS`` sets.

    A node is ``(depth, inc, owed, answered)``: the included members and
    the obligations they owe and answer. ``suffix_answered[d]`` is what the
    members branchable at depth ``d`` answer, and every node keeps
    ``owed`` inside ``answered | suffix_answered[depth]``, so a branch is
    cut as soon as it owes an obligation nobody left can answer.
    """
    conflict = space.conflict
    owes = space.owes
    answers = space.answers
    npos = len(pos_idx)
    branchable = suffix_avail[0]
    suffix_answered = [0] * (npos + 1)
    for d in range(npos - 1, -1, -1):
        suffix_answered[d] = suffix_answered[d + 1] | answers[pos_idx[d]]
    owed = answered = 0
    for j in bits(forced_mask):
        owed |= owes[j]
        answered |= answers[j]
    if owed & ~(answered | suffix_answered[0]):
        return []

    def joinable(inc, answered):
        # some excluded candidate could still join: the enlarged set is
        # admissible, so ``inc`` is not maximal
        for j in bits(branchable & ~inc):
            if (conflict[j] & inc == 0
                    and owes[j] & ~(answered | answers[j]) == 0):
                return True
        return False

    out = []
    cap = _kernels.MAX_SETS
    ticks = 0
    stack = [(0, forced_mask, owed, answered)]
    pop = stack.pop
    push = stack.append
    while stack:
        ticks += 1
        if ticks & 1023 == 0:
            deadline.check()
        depth, inc, owed, answered = pop()
        if depth == npos:
            if not (maximal_only and joinable(inc, answered)):
                out.append(inc)
                if len(out) > cap:
                    raise _kernels.too_many_sets()
            continue
        i = pos_idx[depth]
        depth += 1
        ahead = suffix_answered[depth]
        # excluding i strands what only i was left to answer
        exclude = owed & ~(answered | ahead) == 0
        include = False
        if conflict[i] & inc == 0:
            need = owes[i]
            grown = answered | answers[i]
            # including i adds only i's own obligations
            include = need & ~(grown | ahead) == 0
            if maximal_only and (
                    need & ~answered == 0
                    or conflict[i] & suffix_avail[depth] == 0
                    and need & ~grown == 0):
                # already defended and non-conflicting: any admissible
                # superset without i extends by i, so no exclude-leaf is
                # maximal; same if nothing ahead can ever conflict with i
                # and i stays defendable by itself
                exclude = False
        if exclude:
            push((depth, inc, owed, answered))
        if include:
            push((depth, inc | 1 << i, owed | need, grown))
    return out


def containment_cut_dfs_enumerate(k, pos_idx, suffix_avail, forced_mask,
                                  space, maximal_only, deadline):
    """Reference for ``_kernels.dfs_enumerate``: the loop before it lost its
    minimal mode's containment cut. It reads the branchable mask as
    ``suffix_avail[0]``. Its minimal mode records each leaf's branchable
    part, without ``forced_mask``, and skips every node whose branchable
    part contains a recorded leaf; the other modes are the kernel's."""
    conflict = space.conflict
    owes = space.owes
    answers = space.answers
    answerers = space.answerers
    branchable = suffix_avail[0]
    maximal = maximal_only == _kernels.MAXIMAL
    minimal = maximal_only == _kernels.MINIMAL
    closed = forced_mask
    owed = answered = 0
    for j in bits(forced_mask):
        closed |= conflict[j]
        owed |= owes[j]
        answered |= answers[j]

    def joinable(inc, answered):
        # some excluded candidate could still join: the enlarged set is
        # admissible, so ``inc`` is not maximal
        for j in bits(branchable & ~inc):
            if (conflict[j] & inc == 0
                    and owes[j] & ~(answered | answers[j]) == 0):
                return True
        return False

    out = []
    cap = _kernels.MAX_SETS
    ticks = 0
    stack = [(forced_mask, closed, owed, answered)]
    pop = stack.pop
    push = stack.append
    while stack:
        if ticks & 255 == 0:
            deadline.check()
        ticks += 1
        inc, closed, owed, answered = pop()
        if minimal:
            part = inc & branchable
            if any(leaf | part == part for leaf in out):
                continue  # contains a recorded leaf, so is not minimal
        free = branchable & ~closed
        unmet = owed & ~answered
        if unmet:
            # the most constrained obligation: child i takes its i-th free
            # answerer and closes the ones before it
            pick = min([answerers[o] & free for o in bits(unmet)],
                       key=int.bit_count)
            children = []
            for c in bits(pick):
                bit = 1 << c
                closed |= bit
                children.append((inc | bit, closed | conflict[c],
                                 owed | owes[c], answered | answers[c]))
            stack.extend(reversed(children))
            continue
        if minimal or not free:
            if not (maximal and joinable(inc, answered)):
                out.append(part if minimal else inc)
                if len(out) > cap:
                    raise _kernels.too_many_sets()
            continue
        bit = free & -free
        i = bit.bit_length() - 1
        need = owes[i]
        grown = answered | answers[i]
        # already defended, or nothing free can ever conflict with i and i
        # stays defendable by itself: any admissible superset without i
        # extends by i (Dung's fundamental lemma), so no exclude-leaf is
        # maximal
        if not (maximal and (need & ~answered == 0
                             or conflict[i] & free == 0
                             and need & ~grown == 0)):
            push((inc, closed | bit, owed, answered))
        push((inc | bit, closed | bit | conflict[i], owed | need, grown))
    return out


def recursive_dfs_enumerate(k, pos_idx, suffix_avail, forced_mask, space,
                            maximal_only):
    """Reference for :func:`fixed_order_dfs_enumerate`: the recursive walk
    it replaced, which rescans every included member's obligations at each
    node and tests leaf maximality over all ``k`` members."""
    conflict, obligations = space.conflict, obligation_lists(space)
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


def numpy_subset_scan(k, space):
    """Reference for ``_kernels.subset_scan``: the numpy scan it replaced,
    which tests every pattern of int64 ``arange`` blocks of ``2^20`` as a
    vector of booleans. No ceiling and no cap."""
    chunk = 1 << 20
    conflict = np.asarray(space.conflict, dtype=np.int64)
    obligations = obligation_lists(space)
    total = 1 << k
    out = []
    for start in range(0, total, chunk):
        subs = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ok = np.ones(subs.shape[0], dtype=np.bool_)
        for i in range(k):
            member = (subs >> i) & 1 == 1
            ok &= ~(member & ((subs & conflict[i]) != 0))
            for m in obligations[i]:
                ok &= ~(member & ((subs & m) == 0))
        out.extend(subs[ok].tolist())
    return out


def local_space_scan(af, restrict_to, budget, defence, deadline):
    """Reference for ``oracle._scan``: the scan over a
    ``_kernels.LocalSpace``, the solver's layout, with every kept pattern
    mapped back through ``to_global``, full space or not."""
    space = extensions._space_of(af, restrict_to)
    k = space.bit_count()
    cap = min((budget or extensions.DEFAULT_BUDGET)
              .max_arguments_for_exhaustive, _kernels.SCAN_MAX_ARGUMENTS)
    if k > cap:
        raise md.BudgetExceeded(
            f"exhaustive scan over {k} arguments exceeds the cap of {cap}")
    local = _kernels.LocalSpace(af, space, defence)
    local_masks = _kernels.subset_scan(k, local, deadline)
    return [local.to_global(lm) for lm in local_masks]


def rescan_prepare_space(af, space_mask, mode):
    """Reference for ``extensions._prepare_space``: the rescans the work
    lists replaced. The drop walks every candidate again after each change,
    and the core grows in rounds that re-test every candidate left.
    Returns (candidate mask, forced mask)."""
    att = af.attacker_masks
    cand = space_mask
    for i in bits(space_mask):
        if att[i] >> i & 1:
            cand &= ~(1 << i)  # self-attackers are never conflict-free
    if mode == extensions.CONFLICT_FREE:
        return cand, 0
    # drop members with an attacker nobody in the space can answer
    dropping = True
    while dropping:
        dropping = False
        for i in bits(cand):
            for b in bits(att[i]):
                if att[b] & cand == 0:
                    cand &= ~(1 << i)
                    dropping = True
                    break
    if mode != extensions.ADMISSIBLE_MAX:
        return cand, 0
    # least fixed point of collective defence inside the space
    forced = 0
    while True:
        grown = forced
        for i in bits(cand & ~forced):
            if all(att[b] & forced for b in bits(att[i])):
                grown |= 1 << i
        if grown == forced:
            return cand, forced
        forced = grown


def fixed_point_prepare_space(af, space_mask, mode):
    """Reference for ``extensions._prepare_space``: the loop it replaced,
    which recomputes the forced core after every change until nothing is
    dropped. Returns (candidate mask, forced mask)."""
    att = af.attacker_masks
    tgt = af.target_masks
    cand = space_mask
    for i in bits(space_mask):
        if att[i] >> i & 1:
            cand &= ~(1 << i)  # self-attackers are never conflict-free
    if mode == extensions.CONFLICT_FREE:
        return cand, 0
    forced = 0
    while True:
        changed = False
        # drop members with an attacker nobody in the space can answer
        dropping = True
        while dropping:
            dropping = False
            for i in bits(cand):
                for b in bits(att[i]):
                    if att[b] & cand == 0:
                        cand &= ~(1 << i)
                        dropping = changed = True
                        break
        if mode != extensions.ADMISSIBLE_MAX:
            return cand, 0
        # least fixed point of collective defence inside the space
        forced = 0
        while True:
            grown = forced
            for i in bits(cand & ~forced):
                if all(att[b] & forced for b in bits(att[i])):
                    grown |= 1 << i
            if grown == forced:
                break
            forced = grown
        conflicted = 0
        for i in bits(cand & ~forced):
            if (att[i] | tgt[i]) & forced:
                conflicted |= 1 << i
        if conflicted:
            cand &= ~conflicted
            changed = True
        if not changed:
            return cand, forced


def single_tree_solve_space(af, space_mask, mode):
    """Reference for ``extensions._solve_space``: one recursive search over
    the whole space as the reference preparation leaves it, then for
    ``ADMISSIBLE_MAX`` one subset-maximality pass over the whole family.
    Returns a set of masks."""
    cand, forced = fixed_point_prepare_space(af, space_mask, mode)
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


def obligation_list_minimize(af, p, e, deadline=_kernels.UNBOUNDED):
    """Reference for ``minimize_restricted``'s search: the loop that
    :func:`fewest_answerers_minimize` replaced, which kept a list of the
    unmet obligations' answerer masks per node and branched on the first.
    Takes an admissible ``e``; returns the set of the supports' masks."""
    att = af.attacker_masks
    emask = e.mask
    eu = emask & p.unrestricted.mask

    def unmet(members, inc):
        # e is conflict-free, so only defence matters: each attacker b of a
        # member is an obligation, met by any member in att[b] & e
        return [att[b] & emask for x in bits(members) for b in bits(att[x])
                if not att[b] & inc]

    leaves = []
    ticks = 0
    # depth-first over (included, excluded, unmet obligations); a child
    # includes one answerer of the first unmet obligation, and siblings to
    # its right exclude it
    stack = [(eu, 0, unmet(eu, eu))]
    while stack:
        if ticks & 255 == 0:
            deadline.check()
        ticks += 1
        inc, excluded, pending = stack.pop()
        r = inc & ~eu
        if any(leaf | r == r for leaf in leaves):
            continue  # contains a recorded support, so is not minimal
        if not pending:
            leaves.append(r)
            continue
        children = []
        for c in bits(pending[0] & ~excluded):
            bit = 1 << c
            grown = inc | bit
            left = [m for m in pending if not m & bit] + unmet(bit, grown)
            children.append((grown, excluded, left))
            excluded |= bit
        stack.extend(reversed(children))
    # a leaf found early may still contain one found later
    minimal = extensions._subset_minimal_masks(leaves, deadline)
    return {eu | r for r in minimal}


def fewest_answerers_minimize(af, p, e, deadline=_kernels.UNBOUNDED):
    """Reference for ``minimize_restricted``'s search: its own loop, which
    the kernel's minimal mode replaced. It branches on the free answerers
    of the unmet attacker with the fewest, as the kernel does. Takes an
    admissible ``e``; returns the set of the supports' masks."""
    att = af.attacker_masks
    tgt = af.target_masks
    emask = e.mask
    eu = emask & p.unrestricted.mask
    attackers = targets = 0
    for x in bits(eu):
        attackers |= att[x]
        targets |= tgt[x]
    leaves = []
    ticks = 0
    # depth-first over (included, restricted members still free to join,
    # the included members' attackers and targets); a child includes one
    # free answerer of the unmet attacker with the fewest, and its siblings
    # to the right exclude it
    stack = [(eu, emask & ~eu, attackers, targets)]
    while stack:
        if ticks & 255 == 0:
            deadline.check()
        ticks += 1
        inc, free, attackers, targets = stack.pop()
        r = inc & ~eu
        if any(leaf | r == r for leaf in leaves):
            continue  # contains a recorded support, so is not minimal
        unmet = attackers & ~targets
        if not unmet:
            leaves.append(r)
            continue
        answerers = min((att[b] & free for b in bits(unmet)),
                        key=int.bit_count)
        children = []
        for c in bits(answerers):
            free ^= 1 << c
            children.append((inc | 1 << c, free, attackers | att[c],
                             targets | tgt[c]))
        stack.extend(reversed(children))
    # a leaf found early may still contain one found later
    minimal = extensions._subset_minimal_masks(leaves, deadline)
    return {eu | r for r in minimal}


def pairwise_minimal_masks(masks):
    """Reference for ``extensions._subset_minimal_masks``: the pairwise
    pass that ``minimize_restricted`` ran over its leaves, which tests each
    mask against every other."""
    return [m for m in masks
            if not any(o != m and o | m == m for o in masks)]


@functools.cache
def sparse_instance(n):
    """The seeded sparse random (framework, partition) of ``n`` arguments
    that the min-def benchmark's population draws from; cached, since
    drawing one takes n^2 pseudo-random draws."""
    return md.random_instance(md.GeneratorConfig(n, 2 / n, 0.7, 0.3,
                                                 seed=7000 + n))


def per_draw_random_instance(cfg):
    """Reference for ``generators.random_instance``: the recipe drawn one
    float at a time, one ``next_float`` per candidate pair in row-major
    order, as the README states it."""
    n = cfg.argument_count
    rng = md.SplitMix64(cfg.seed)
    names = [f"a{i}" for i in range(n)]
    pairs = []
    if cfg.acyclic_only:
        order = list(range(n))
        rng.shuffle(order)
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position
        for i in range(n):
            for j in range(n):
                if i != j and rank[i] < rank[j]:
                    if rng.next_float() < cfg.attack_probability:
                        pairs.append((i, j))
    else:
        for i in range(n):
            for j in range(n):
                if rng.next_float() < cfg.attack_probability:
                    pairs.append((i, j))
    af = ArgumentationFramework(tuple(names), pairs)
    sample = list(range(n))
    rng.shuffle(sample)
    focus_size = int(cfg.focus_fraction * n + 0.5)
    restricted_size = int(cfg.restricted_fraction * focus_size + 0.5)
    focus = [names[i] for i in sample[:focus_size]]
    return af, build_partition(af, focus, focus[:restricted_size])


def many_supports(k):
    """A min-def instance with ``2^k`` minimal supports: the unrestricted
    ``u`` is attacked by ``b1..bk``, and each ``bi`` by two restricted
    focus arguments ``ri_a`` and ``ri_b``; the ``bi`` lie outside the focus.
    Returns (framework, partition)."""
    names, restricted, attacks = ["u"], [], []
    for i in range(1, k + 1):
        names.append(f"b{i}")
        attacks.append((f"b{i}", "u"))
        for side in "ab":
            restricted.append(f"r{i}_{side}")
            attacks.append((f"r{i}_{side}", f"b{i}"))
    af = md.build_framework(names + restricted, attacks)
    return af, md.build_partition(af, ["u"] + restricted, restricted)


def name_tuple_order(sets):
    """Reference for ``ExtensionFamily``'s order: the distinct sets sorted
    by the tuple of their sorted names."""
    distinct = {s.mask: s for s in sets}
    return sorted(distinct.values(), key=lambda s: tuple(sorted(s.names)))


def keyed_sort_ranks(family):
    """Reference for ``ExtensionFamily._ordered``: the version that took
    the product of the factors' rank masks, growing the list one member
    at a time, and sorted it in place by each member's canonical index."""
    union = functools.reduce(
        operator.or_, itertools.chain.from_iterable(family._factors), 0)
    names = family.framework.names if family.framework else ()
    by_rank = sorted(bits(union), key=names.__getitem__)
    width = -(-len(by_rank) // 8) * 8
    rank_bit = {i: 1 << (width - 1 - j) for j, i in enumerate(by_rank)}
    ranks = [0]
    for masks in sorted(family._factors, key=len):
        grown = []
        for a in ranks:
            grown.extend([a | sum(map(rank_bit.__getitem__, bits(m)))
                          for m in masks])
        ranks = grown
    top = 1 << width
    ranks.sort(key=lambda r: r and r.bit_count() + top - (r & -r) - r)
    return ranks


class ByteTable(dict):
    """Maps ``k << 8 | byte`` to the tuple of the values of the byte's set
    bits, highest bit first. Bit ``7 - p`` of byte ``k`` has the value
    ``values[8 * k + p]``.

    Each entry is filled on first use, so a small family pays only for the
    bytes its members hold, and a large one looks each byte up once.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        super().__init__()
        self.values = values

    def __missing__(self, key):
        base = key >> 8 << 3
        entry = self[key] = tuple(
            itertools.compress(self.values[base:base + 8],
                               _HIGH_FIRST[key & 255]))
        return entry


# the bits of each byte value, highest first
_HIGH_FIRST = [tuple(b >> (7 - p) & 1 for p in range(8)) for b in range(256)]


def byte_table_member_names(family):
    """Reference for ``ExtensionFamily.member_names``: the version that
    built one list per member, byte by byte through a :class:`ByteTable`.

    Reads each member's rank mask from the top byte down, through a
    table from byte position and value to the names of the set bits.
    """
    ranks = family._ordered()
    if not ranks:
        return
    nbytes = -(-len(family._by_rank) // 8)
    # bit 7 - p of byte q from the top of a rank mask holds rank 8q + p
    by_rank = [family.framework.names[i] for i in family._by_rank]
    by_rank += [None] * (8 * nbytes - len(by_rank))
    table = ByteTable(by_rank)
    for r in ranks:
        found = []
        for q, byte in enumerate(r.to_bytes(nbytes, "big")):
            if byte:
                found += table[q << 8 | byte]
        yield found


def arg_bit_members(family):
    """Reference for ``ExtensionFamily.members``: the version that decoded
    each ordered rank mask bit by bit through a table from rank bit to
    argument bit."""
    ranks = family._ordered()
    width = -(-len(family._by_rank) // 8) * 8
    # bit width - 1 - j of a rank mask is argument by_rank[j]
    arg_bit = [0] * width
    for j, i in enumerate(family._by_rank):
        arg_bit[width - 1 - j] = 1 << i
    af = family.framework
    return tuple([md.ArgumentSet(af, sum(map(arg_bit.__getitem__, bits(r))))
                  for r in ranks])


def mask_set(family):
    """The members' masks as a frozenset, read off the unordered product."""
    return frozenset(extensions._product(family._factors, family._deadline()))


def mask_set_equal(a, b):
    """Reference for ``ExtensionFamily.__eq__``: the version that compared
    the frameworks and the sets of member masks, with every empty family
    equal to every other."""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    return a.framework is b.framework and mask_set(a) == mask_set(b)


def mask_set_hash(family):
    """Reference for ``ExtensionFamily.__hash__``, the hash that went with
    :func:`mask_set_equal`."""
    if len(family) == 0:
        return 0  # equal to every other empty family
    return hash((id(family.framework), mask_set(family)))


def assert_compares_as_reference(families):
    """``==`` and ``hash`` on every pair of ``families`` agree with
    :func:`mask_set_equal` and :func:`mask_set_hash`: the same pairs are
    equal, and the same pairs share a hash."""
    for a in families:
        for b in families:
            want = mask_set_equal(a, b)
            assert (a == b) is want, (a, b)
            assert (hash(a) == hash(b)) is (
                mask_set_hash(a) == mask_set_hash(b)), (a, b)


def list_render(result, request, out):
    """Reference for ``cli._render``: the version that wrote one line per
    member and ran ``json.dumps`` over the list of all members' name lists,
    both from :func:`byte_table_member_names`."""
    if request.output == "structured":
        doc = {"semantics": result.semantics}
        if result.family is not None:
            doc["extensions"] = list(byte_table_member_names(result.family))
        else:
            doc["verdict"] = result.verdict
        doc["stats"] = result.stats
        out.write(json.dumps(doc) + "\n")
        return
    if result.family is not None:
        for names in byte_table_member_names(result.family):
            out.write("{%s}\n" % ",".join(names))
    else:
        out.write("YES\n" if result.verdict else "NO\n")


def pairwise_min_def(af, p):
    """Reference for ``min_def_extensions``: its two steps, ended by the
    pairwise ``filter_maximal(..., order="prec")`` over every candidate."""
    u = p.unrestricted.mask
    prefs = md.preferred_extensions_on(af, p.focus)
    max_u = set(extensions._subset_maximal_masks([s.mask & u for s in prefs]))
    candidates = []
    for s in prefs:
        if s.mask & u in max_u:
            candidates.extend(md.minimize_restricted(af, p, s))
    return md.filter_maximal(md.ExtensionFamily(candidates), order="prec",
                             partition=p)


def predicate_restrictedly_admissible(af, p):
    """Reference for ``restrictedly_admissible_sets``: the admissible
    subsets of the focus that pass ``is_restrictedly_admissible``."""
    return md.ExtensionFamily(
        s for s in md.admissible_sets(af, p.focus)
        if md.is_restrictedly_admissible(af, p, s))


def filtered_restrictedly_admissible_sets(af, p):
    """Reference for ``restrictedly_admissible_sets``: the replaced post
    filter. It searches the admissible subsets of the focus, then keeps the
    masks whose restricted members each reach an unrestricted member of the
    mask by a defender walk. A factor's masks are filtered on their own
    unless a restricted member defends a member of another factor; then
    every factor is multiplied out into one, which may refuse on the set
    cap."""
    deadline = _kernels.UNBOUNDED
    factors = extensions._solve_space(af, p.focus.mask,
                                      extensions.ADMISSIBLE_ALL, deadline)
    u, r = p.unrestricted.mask, p.restricted.mask
    spans = [functools.reduce(operator.or_, masks, 0) for masks in factors]
    used = functools.reduce(operator.or_, spans, 0)
    defended = {x: semantics._parity_reachable(af.target_masks, x)
                for x in bits(used & r)}
    if any(defended[x] & used & ~span
           for span in spans for x in bits(span & r)):
        factors = [extensions._product(factors, deadline)]
    factors = [[m for m in masks
                if all(defended[x] & m & u for x in bits(m & r))]
               for masks in factors]
    return md.ExtensionFamily._product_of(af, factors, deadline)


def undropped_solve_space(af, space_mask, mode, deadline, p=None):
    """Reference for ``extensions._solve_space``: the code before restricted
    candidates whose defender walk reaches no candidate were dropped. They
    stay in the search, and every branch that includes one dies."""
    cand, forced = extensions._prepare_space(af, space_mask, mode, deadline)
    extra = []
    for x in bits(cand & p.restricted.mask) if p is not None else ():
        deadline.check()
        extra.append((x, semantics._parity_reachable(af.target_masks, x)
                      & p.unrestricted.mask))
    space = _kernels.LocalSpace(af, cand, mode != extensions.CONFLICT_FREE,
                                extra)
    forced_local = space.to_local(forced)
    maximal_only = mode == extensions.ADMISSIBLE_MAX
    factors = []
    alone = forced_local
    for group in space.components(~forced_local):
        free = group & ~forced_local
        local_masks = _kernels.dfs_enumerate(
            group.bit_count(), list(bits(free)), free,
            group & forced_local, space, maximal_only, deadline)
        if maximal_only:
            local_masks = extensions._subset_maximal_masks(local_masks,
                                                           deadline)
        factors.append([space.to_global(lm) for lm in local_masks])
        alone &= ~group
    if alone:
        factors.append([space.to_global(alone)])
    return factors


def assert_same_factor_members(got, want):
    """``got`` and ``want`` are factor lists of one family whose groups
    ``got`` may split further: each factor of ``got`` uses only arguments
    of one factor of ``want`` (an empty one goes with any), and the
    products of ``got``'s factors within each ``want`` factor equal it,
    member for member."""
    spans = [functools.reduce(operator.or_, masks, 0) for masks in want]
    within = [[0] for _ in want]
    for masks in got:
        span = functools.reduce(operator.or_, masks, 0)
        homes = [k for k, s in enumerate(spans) if span & ~s == 0]
        assert homes, "a factor spans two groups of the reference"
        k = homes[0] if span else 0
        within[k] = [a | b for a in within[k] for b in masks]
    for masks, product in zip(want, within):
        assert sorted(product) == sorted(masks)
        assert len(set(product)) == len(product)


def factor_query(af, p, semantics_name, on=None):
    """Reference for the solver's acceptance queries: the CLI path before
    the query path. It resolves ``--on`` and builds the semantics' whole
    family on the solver engine, which may refuse; the returned function
    reads a ``(mode, argument)`` query's verdict from its factors."""
    request = cli.SolveRequest(semantics=semantics_name, on=on)
    x = cli._base_set(af, p, request)
    family = cli.FAMILIES[semantics_name][0](af, p, x, None)

    def verdict(mode, a):
        accept = (md.credulous_accepted if mode == "credulous"
                  else md.skeptical_accepted)
        return accept(af, family, a)

    return verdict


def grouped_accepted(af, space_mask, mode, a, skeptical,
                     deadline=_kernels.UNBOUNDED, p=None):
    """Reference for ``extensions.accepted``: the query path before
    skeptical queries went through ``_solve_space``. Both modes grow the
    argument's group with ``LocalSpace.components``; a credulous query runs
    the witness in it, and a skeptical one the maximal search and the
    maximality pass of its own, after a YES for a forced member."""
    i = af.index(a)
    bit = 1 << i
    if skeptical and mode != extensions.ADMISSIBLE_MAX or not space_mask & bit:
        return False
    if mode == extensions.CONFLICT_FREE:
        return not af.attacker_masks[i] & bit
    cand, forced, extra = extensions._candidates(
        af, space_mask, mode if skeptical else extensions.ADMISSIBLE_ALL,
        deadline, p)
    if forced & bit:
        return True
    if not cand & bit:
        return False
    space = _kernels.LocalSpace(af, cand, True, extra)
    forced = space.to_local(forced)
    j = space.local_of[i]
    group, = space.components(1 << j)
    if not skeptical:
        free = group ^ 1 << j
        return bool(_kernels.dfs_enumerate(
            group.bit_count(), list(bits(free)), free, 1 << j, space,
            _kernels.WITNESS, deadline))
    free = group & ~forced
    masks = _kernels.dfs_enumerate(
        group.bit_count(), list(bits(free)), free, group & forced, space,
        _kernels.MAXIMAL, deadline)
    return all(m >> j & 1
               for m in extensions._subset_maximal_masks(masks, deadline))


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


_STATEMENT = re.compile(
    r"^(?P<kind>arg|att|focus|restricted)\s*\(\s*(?P<first>[A-Za-z0-9_]+)"
    r"\s*(?:,\s*(?P<second>[A-Za-z0-9_]+)\s*)?\)\s*\.$")


def pair_set_build_framework(names, attack_pairs):
    """Reference for ``build_framework``: the version that kept a set of
    the index pairs and handed their sorted tuple to the framework."""
    seen = {}
    for name in names:
        if name not in seen:
            seen[name] = len(seen)
    pairs = []
    pair_seen = set()
    for a, b in attack_pairs:
        if a not in seen:
            raise UndeclaredArgument(a)
        if b not in seen:
            raise UndeclaredArgument(b)
        pair = (seen[a], seen[b])
        if pair not in pair_seen:
            pair_seen.add(pair)
            pairs.append(pair)
    return ArgumentationFramework(tuple(seen), tuple(sorted(pairs)))


def two_pass_parse_afp(text):
    """Reference for ``afp.parse_afp``: the version that checked every
    name against a set of declared names, then had
    :func:`pair_set_build_framework` look the attack names up again."""
    names = []
    declared = set()
    attacks = []   # (line, a, b)
    focus = []     # (line, name)
    restricted = []
    saw_partition = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STATEMENT.match(line)
        if m is None:
            raise AfpSyntaxError(f"unrecognized statement {line!r}", lineno)
        kind, first, second = m.group("kind", "first", "second")
        if kind == "att":
            if second is None:
                raise AfpSyntaxError("att needs two arguments", lineno)
            attacks.append((lineno, first, second))
            continue
        if second is not None:
            raise AfpSyntaxError(f"{kind} takes a single argument", lineno)
        if kind == "arg":
            if first not in declared:
                declared.add(first)
                names.append(first)
        elif kind == "focus":
            saw_partition = True
            focus.append((lineno, first))
        else:
            saw_partition = True
            restricted.append((lineno, first))
    for lineno, a, b in attacks:
        for name in (a, b):
            if name not in declared:
                raise UndeclaredArgument(name, line=lineno)
    for lineno, name in focus + restricted:
        if name not in declared:
            raise UndeclaredArgument(name, line=lineno)
    af = pair_set_build_framework(names, [(a, b) for _, a, b in attacks])
    if saw_partition:
        p = build_partition(af, [name for _, name in focus],
                            [name for _, name in restricted])
    else:
        p = build_partition(af, names, [])
    return af, p


def line_by_line_parse_afp(text):
    """Reference for ``afp.parse_afp``: the version that matched each line
    against the statement pattern in a Python loop, then resolved the
    attack names in one dict of the declared names."""
    index_of = {}  # declared names, in declaration order
    attacks = []   # (line, a, b)
    focus = []     # (line, name)
    restricted = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STATEMENT.match(line)
        if m is None:
            raise AfpSyntaxError(f"unrecognized statement {line!r}", lineno)
        kind, first, second = m.group("kind", "first", "second")
        if kind == "att":
            if second is None:
                raise AfpSyntaxError("att needs two arguments", lineno)
            attacks.append((lineno, first, second))
            continue
        if second is not None:
            raise AfpSyntaxError(f"{kind} takes a single argument", lineno)
        if kind == "arg":
            index_of.setdefault(first, len(index_of))
        elif kind == "focus":
            focus.append((lineno, first))
        else:
            restricted.append((lineno, first))
    pairs = []  # each attack name is looked up once
    for lineno, a, b in attacks:
        i, j = index_of.get(a), index_of.get(b)
        if i is None or j is None:
            raise UndeclaredArgument(a if i is None else b, line=lineno)
        pairs.append((i, j))
    for lineno, name in focus + restricted:
        if name not in index_of:
            raise UndeclaredArgument(name, line=lineno)
    af = ArgumentationFramework(tuple(index_of), pairs)
    if focus or restricted:
        return af, build_partition(af, [name for _, name in focus],
                                   [name for _, name in restricted])
    return af, md.Partition(af, af.full_set(), af.empty_set())


# the whole-text pattern of ``splitlines_parse_afp``, over a text whose
# line ends are all "\n"
_JOINED_S = r"[^\S\n]*+"
_JOINED_NAME = r"[A-Za-z0-9_]++"
_JOINED_BARE = (
    rf"att\({_JOINED_NAME},{_JOINED_NAME}\)\.|arg\({_JOINED_NAME}\)\."
    rf"|focus\({_JOINED_NAME}\)\.|restricted\({_JOINED_NAME}\)\.")
_JOINED_SPACED = (
    rf"{_JOINED_S}(?:att{_JOINED_S}\({_JOINED_S}{_JOINED_NAME}{_JOINED_S},"
    rf"{_JOINED_S}{_JOINED_NAME}{_JOINED_S}\){_JOINED_S}\.{_JOINED_S}"
    rf"|(?:arg|focus|restricted){_JOINED_S}\({_JOINED_S}{_JOINED_NAME}"
    rf"{_JOINED_S}\){_JOINED_S}\.{_JOINED_S}|)"
    r"(?:#[^\n]*+|)")
_JOINED_LINE = rf"(?:{_JOINED_BARE}|{_JOINED_SPACED})"
_JOINED_TEXT = re.compile(rf"(?:{_JOINED_LINE}\n)*+{_JOINED_LINE}")


def splitlines_parse_afp(text):
    """Reference for ``afp.parse_afp``: the version that joined the text's
    ``splitlines()`` with "\\n" for its whole-text check, and cut comments
    and whitespace with ``split`` and ``join``. Verbatim, but for the
    framework, built by the public constructor."""
    checked = "\n".join(text.splitlines())
    if _JOINED_TEXT.fullmatch(checked) is None:
        raise afp._first_error(text)
    args, ends, focus, restricted = _joined_statements(checked)
    del checked  # not needed while the framework is built
    names = tuple(dict.fromkeys(args))
    index_of = dict(zip(names, range(len(names))))
    try:
        ends = list(map(index_of.__getitem__, ends))
        focus_mask = afp._mask(focus, index_of)
        restricted_mask = afp._mask(restricted, index_of)
    except KeyError:
        raise afp._first_error(text) from None
    af = ArgumentationFramework(names, zip(ends[::2], ends[1::2]))
    if focus or restricted:
        # restricted names are implicitly part of the focus
        return af, md.Partition(
            af, md.ArgumentSet(af, focus_mask | restricted_mask),
            md.ArgumentSet(af, restricted_mask))
    return af, md.Partition(af, af.full_set(), af.empty_set())


def _joined_statements(checked):
    """``splitlines_parse_afp``'s names: declared arguments in file order
    (with repeats), attack endpoints (attacker, target, attacker, ...),
    focus names and restricted names."""
    if "#" in checked:
        # the part of each piece before its first newline is comment
        head, *tails = checked.split("#")
        checked = head + "".join([tail.partition("\n")[2] for tail in tails])
    compact = "".join(checked.split())
    statements = compact.split(").")
    statements.pop()  # the empty rest after the last statement
    # the second letters of restricted, focus, arg and att sort in that
    # order, and the sort is stable: one group per kind, each in file order
    statements.sort(key=operator.itemgetter(1))
    r, f, a = (bisect.bisect_left(statements, letter,
                                  key=operator.itemgetter(1))
               for letter in "ort")
    return ("".join(statements[f:a]).split("arg(")[1:],
            "".join(statements[a:]).replace("att(", ",").split(",")[1:],
            "".join(statements[r:f]).split("focus(")[1:],
            "".join(statements[:r]).split("restricted(")[1:])
