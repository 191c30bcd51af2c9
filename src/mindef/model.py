"""Attack graph, argument partition, and bit-vector set arithmetic.

Arguments are opaque names mapped to dense indices at construction time;
every set of arguments is a bitmask over those indices, and so is the
attack relation: per argument, the mask of its attackers and the mask of
its targets. All structures are immutable after construction and safe to
share between concurrent solver runs.
"""

from collections.abc import Iterable, Iterator

from .errors import CrossFrameworkSet, UndeclaredArgument


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ArgumentationFramework:
    """A finite set of arguments plus a directed attack relation.

    The relation comes as index pairs ``(a, b)``, "a attacks b", in any
    order and with any repeats, and is held only as the masks of both
    adjacency directions; ``attacks`` derives the sorted distinct pairs.
    """

    __slots__ = ("names", "index_of", "attacker_masks", "target_masks",
                 "full_mask")

    def __init__(self, names: tuple, attacks: Iterable):
        self._build(names, {name: i for i, name in enumerate(names)}, attacks)

    @classmethod
    def _indexed(cls, names: tuple, index_of: dict, attacks: Iterable):
        """The framework of ``names`` and ``attacks``, taking the caller's
        ``index_of`` (``index_of[names[i]] == i``) rather than building
        it again."""
        af = cls.__new__(cls)
        af._build(names, index_of, attacks)
        return af

    def _build(self, names, index_of, attacks):
        self.names = names
        self.index_of = index_of
        n = len(names)
        attacker_masks = [0] * n
        target_masks = [0] * n
        for a, b in attacks:
            attacker_masks[b] |= 1 << a
            target_masks[a] |= 1 << b
        self.attacker_masks = tuple(attacker_masks)
        self.target_masks = tuple(target_masks)
        self.full_mask = (1 << n) - 1

    @property
    def attacks(self) -> tuple:
        """The distinct attack pairs ``(a, b)``, sorted."""
        return tuple((a, b) for a, targets in enumerate(self.target_masks)
                     for b in bits(targets))

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def index(self, arg) -> int:
        """Dense index of an argument given by name (or already an index)."""
        if isinstance(arg, int) and 0 <= arg < len(self.names):
            return arg
        try:
            return self.index_of[arg]
        except KeyError:
            raise UndeclaredArgument(arg) from None

    def attackers_of(self, arg) -> "ArgumentSet":
        """Set of arguments attacking ``arg``."""
        return ArgumentSet(self, self.attacker_masks[self.index(arg)])

    def targets_of(self, arg) -> "ArgumentSet":
        """Set of arguments attacked by ``arg``."""
        return ArgumentSet(self, self.target_masks[self.index(arg)])

    # -- set constructors ------------------------------------------------

    def subset(self, names: Iterable) -> "ArgumentSet":
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return ArgumentSet(self, mask)

    def empty_set(self) -> "ArgumentSet":
        return ArgumentSet(self, 0)

    def full_set(self) -> "ArgumentSet":
        return ArgumentSet(self, self.full_mask)

    def set_from_mask(self, mask: int) -> "ArgumentSet":
        return ArgumentSet(self, mask)

    def __repr__(self):
        return (f"<ArgumentationFramework {len(self.names)} arguments, "
                f"{len(self.attacks)} attacks>")


class ArgumentSet:
    """An immutable subset of one framework's arguments (a bitmask).

    Binary operations require both operands to belong to the same framework
    instance; mixing frameworks raises :class:`CrossFrameworkSet`.
    """

    __slots__ = ("framework", "mask")

    def __init__(self, framework: ArgumentationFramework, mask: int):
        self.framework = framework
        self.mask = mask

    def _check(self, other: "ArgumentSet") -> None:
        if not isinstance(other, ArgumentSet):
            raise TypeError(f"expected ArgumentSet, got {type(other).__name__}")
        if other.framework is not self.framework:
            raise CrossFrameworkSet(
                "sets belong to different frameworks")

    def __or__(self, other):
        self._check(other)
        return ArgumentSet(self.framework, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return ArgumentSet(self.framework, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return ArgumentSet(self.framework, self.mask & ~other.mask)

    def __le__(self, other):
        self._check(other)
        return self.mask | other.mask == other.mask

    def __lt__(self, other):
        self._check(other)
        return self.mask != other.mask and self.mask | other.mask == other.mask

    def __eq__(self, other):
        if not isinstance(other, ArgumentSet):
            return NotImplemented
        return self.framework is other.framework and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.framework), self.mask))

    def __contains__(self, arg) -> bool:
        return bool(self.mask >> self.framework.index(arg) & 1)

    def __iter__(self) -> Iterator:
        names = self.framework.names
        for i in bits(self.mask):
            yield names[i]

    def indices(self) -> Iterator[int]:
        """Member indices in increasing index order."""
        return bits(self.mask)

    @property
    def names(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self):
        return "{%s}" % ",".join(sorted(self.names))


class Partition:
    """Two-tier split of an argument universe.

    ``focus`` is the selected agent's own arguments; it divides into
    ``unrestricted`` members (to be maximized) and ``restricted`` members
    (to be used only when indispensable). A plain one-tier partition is the
    special case ``restricted == {}``.
    """

    __slots__ = ("framework", "focus", "restricted", "unrestricted")

    def __init__(self, framework: ArgumentationFramework,
                 focus: ArgumentSet, restricted: ArgumentSet):
        self.framework = framework
        self.focus = focus
        self.restricted = restricted
        self.unrestricted = focus - restricted

    def __repr__(self):
        return (f"<Partition unrestricted={self.unrestricted!r} "
                f"restricted={self.restricted!r}>")


def build_framework(names: Iterable, attack_pairs: Iterable) -> ArgumentationFramework:
    """Build a framework from declared names and (attacker, target) pairs.

    Repeated declarations and pairs are deduplicated silently; indices
    follow first appearance. A pair naming an undeclared argument raises
    :class:`UndeclaredArgument`, for the attacker first.
    """
    seen = {}
    for name in names:
        if name not in seen:
            seen[name] = len(seen)
    pairs = []
    for a, b in attack_pairs:
        if a not in seen:
            raise UndeclaredArgument(a)
        if b not in seen:
            raise UndeclaredArgument(b)
        pairs.append((seen[a], seen[b]))
    return ArgumentationFramework(tuple(seen), pairs)


def build_partition(af: ArgumentationFramework, focus: Iterable,
                    restricted: Iterable) -> Partition:
    """Build a partition; restricted names are implicitly part of the focus."""
    focus_set = af.subset(focus)
    restricted_set = af.subset(restricted)
    return Partition(af, focus_set | restricted_set, restricted_set)


def split(s: ArgumentSet, p: Partition) -> tuple:
    """Split ``s`` into its unrestricted and restricted parts.

    Returns ``(s & unrestricted, s & restricted)``; members of ``s`` outside
    the focus fall in neither part.
    """
    if s.framework is not p.framework:
        raise CrossFrameworkSet("set and partition belong to different frameworks")
    return s & p.unrestricted, s & p.restricted


def is_well_founded(af: ArgumentationFramework) -> bool:
    """True iff the attack digraph is acyclic (self-attacks count as cycles).

    Uses zero-in-degree peeling, so it is independent of the DFS-style cycle
    checks used in the test suite.
    """
    n = len(af.names)
    indegree = [m.bit_count() for m in af.attacker_masks]
    ready = [i for i in range(n) if indegree[i] == 0]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in bits(af.target_masks[v]):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return peeled == n
