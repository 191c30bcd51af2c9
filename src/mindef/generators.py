"""Bundled example frameworks and seeded random instance generation.

Random instances follow a fixed, documented recipe (see README, "Random
instance contract") built on the splitmix64 generator, so any two runs -
or any two implementations of the recipe, in any language - produce
byte-identical instances from the same configuration.

The attack draws are computed ``_BLOCK`` at a time. splitmix64's state
after ``t`` draws is ``seed + t*gamma`` (mod 2^64), so no draw depends on
the one before it and a block of draws is a few operations on one int:
lane ``t`` of that int is its bits ``128t .. 128t+127``, and holds draw
``t``'s state in its low 64 bits with 64 zero bits above. A product of a
lane by a 64-bit mix constant then stays inside the lane, and each step is
masked back to 64 bits per lane before the next multiply. A draw ``u``
passes ``next_float() < p`` exactly when ``u < ceil(p * 2^53) << 11``,
since ``next_float()`` is ``(u >> 11) * 2^-53`` and ``p * 2^53`` is exact;
adding ``2^64 - thr`` to every lane sets bit 64 of the lanes that fail, one
byte in every 16 of the int's little-endian bytes.
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, groupby

from .model import ArgumentationFramework, build_framework, build_partition

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # draws per block, one 128-bit lane each
_PASSED = bytes([1, 0]) + bytes(254)  # a lane's bit-64 byte: 1 = passed


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """A full block's lane constants, built on first use: a 1 in every
    lane, ``2^64 - 1`` in every lane, and ``(t+1)*gamma mod 2^64`` in lane
    ``t``. A shorter block masks them down, so one block is all kept."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")
    counters = int.from_bytes(b"".join(
        ((t + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
        for t in range(_BLOCK)), "little")
    return ones, low, counters


class SplitMix64:
    """splitmix64: 64-bit state, one addition and two xor-shift mixes per draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
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

    def passing(self, count: int, p: float) -> list:
        """The offsets ``t < count``, in order, of the next ``count`` draws
        that pass ``next_float() < p``; the state ends past all of them."""
        thr = math.ceil(p * 2.0 ** 53) << 11
        full_ones, full_low, full_counters = _lanes()
        hits = []
        for first in range(0, count, _BLOCK):
            size = min(_BLOCK, count - first)
            ones, low, counters = full_ones, full_low, full_counters
            if size < _BLOCK:
                cut = (1 << 128 * size) - 1
                ones, low, counters = ones & cut, low & cut, counters & cut
            base = (self.state + first * _GAMMA) & _MASK64
            z = (base * ones + counters) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            z = (z ^ (z >> 31)) + ((1 << 64) - thr) * ones
            passed = z.to_bytes(16 * size, "little")[8::16].translate(_PASSED)
            hits.extend(compress(range(first, first + size), passed))
        self.state = (self.state + count * _GAMMA) & _MASK64
        return hits


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
    if cfg.acyclic_only:
        order = list(range(n))
        rng.shuffle(order)
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position
        # row i holds the n-1-rank[i] arguments ranked after i, in index
        # order; only a row with a passing draw is listed
        starts = list(accumulate((n - 1 - r for r in rank), initial=0))
        pairs = []
        for i, offsets in groupby(
                rng.passing(starts[-1], cfg.attack_probability),
                lambda t: bisect_right(starts, t) - 1):
            later = sorted(order[rank[i] + 1:])
            pairs.extend((i, later[t - starts[i]]) for t in offsets)
    else:
        pairs = [divmod(t, n) for t in
                 rng.passing(n * n, cfg.attack_probability)]
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
