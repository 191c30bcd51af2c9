"""Bundled example frameworks and seeded random instance generation.

Random instances follow a fixed, documented recipe (see README, "Random
instance contract") built on the splitmix64 generator, so any two runs -
or any two implementations of the recipe, in any language - produce
byte-identical instances from the same configuration.
"""

from dataclasses import dataclass

from .model import ArgumentationFramework, build_framework, build_partition

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, one addition and two xor-shift mixes per draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1): the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): floor of a float draw scaled by n."""
        return int(self.next_float() * n)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, swapping from the top index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines one random instance."""

    argument_count: int
    attack_probability: float = 0.25
    focus_fraction: float = 1.0
    restricted_fraction: float = 0.0
    seed: int = 0
    acyclic_only: bool = False

    def __post_init__(self):
        if self.argument_count < 0:
            raise ValueError("argument_count must be nonnegative")
        for field in ("attack_probability", "focus_fraction",
                      "restricted_fraction"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be within [0, 1]")


def random_instance(cfg: GeneratorConfig) -> tuple:
    """Build the (framework, partition) pair determined by ``cfg``.

    Attack edges are sampled independently per ordered pair with the given
    probability; in acyclic mode candidate pairs are limited to a randomly
    drawn topological order (and self-attacks are impossible), otherwise
    self-attacks are sampled like any pair.
    """
    n = cfg.argument_count
    rng = SplitMix64(cfg.seed)
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
    restricted = focus[:restricted_size]
    return af, build_partition(af, focus, restricted)


def builtin_fixtures() -> dict:
    """The bundled example frameworks, keyed AF1 / AF2 / AF3 / ABC.

    AF1, AF2 and AF3 share one 14-argument framework: AF1 carries no
    partition, AF2 a one-tier partition (focus only), AF3 the two-tier
    refinement with four restricted arguments. ABC is the three-argument
    chain with the single-argument focus that shows why extensions on a
    set are not plain intersections.
    """
    names = ["u1", "u2", "u3", "u4", "u5",
             "r1", "r2", "r3", "r4",
             "o1", "o2", "o3", "o4", "o5"]
    attacks = [("o1", "u1"), ("o2", "u2"), ("u3", "o2"), ("o3", "u4"),
               ("u5", "o4"), ("r1", "o2"), ("r2", "o3"), ("o4", "r3"),
               ("o5", "r4")]
    af = build_framework(names, attacks)
    focus = ["u1", "u2", "u3", "u4", "u5", "r1", "r2", "r3", "r4"]
    restricted = ["r1", "r2", "r3", "r4"]
    chain = build_framework(["a", "b", "c"], [("c", "b"), ("b", "a")])
    return {
        "AF1": (af, None),
        "AF2": (af, build_partition(af, focus, [])),
        "AF3": (af, build_partition(af, focus, restricted)),
        "ABC": (chain, build_partition(chain, ["a"], [])),
    }
