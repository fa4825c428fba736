"""Deterministic randomness for experiments.

Every stochastic component in the library draws from a :class:`SeededRng`
created from an explicit seed, so an experiment run is reproducible
bit-for-bit.  ``fork`` derives independent child streams by name, which keeps
component randomness decoupled: adding draws to one component does not
perturb another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterable, List, Sequence, TypeVar

from repro.util.errors import ConfigError

__all__ = ["SeededRng", "derive_seed", "mix64"]

_T = TypeVar("_T")


def derive_seed(seed: int, *names: str) -> int:
    """Derive a child seed from ``seed`` and a path of component names.

    The derivation hashes the full path, so ``derive_seed(s, "a", "b")`` and
    ``derive_seed(derive_seed(s, "a"), "b")`` intentionally differ only in
    spelling — both are stable across runs and Python versions.
    """
    digest = hashlib.sha256()
    digest.update(str(seed).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def mix64(value: int) -> int:
    """splitmix64's finalizer: a fixed avalanche over 64 bits.

    A stable integer hash for derived choices that must agree across
    processes and runs (shard assignment, NNS table picks).  Python's
    built-in ``hash`` on ``str``/``bytes`` is randomised per process and
    must never stand in for it.
    """
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class SeededRng:
    """A named, forkable wrapper over :class:`random.Random`.

    The wrapper exposes only the primitives the library uses, which keeps
    call sites honest about what randomness they consume.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)

    def fork(self, name: str) -> "SeededRng":
        """An independent child stream identified by ``name``."""
        return SeededRng(derive_seed(self.seed, name), f"{self.name}/{name}")

    def state_dict(self) -> Dict[str, Any]:
        """Capture seed, name, and the stream cursor (warm-restart state).

        ``fork`` derives children from the *seed* alone, so the cursor
        only matters for draws made directly on this stream — but those
        are exactly what a warm restart must not replay.
        """
        version, internal, gauss_next = self._random.getstate()
        return {
            "seed": self.seed,
            "name": self.name,
            "cursor": {
                "version": version,
                "internal": list(internal),
                "gauss_next": gauss_next,
            },
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore the stream to a captured cursor, in place."""
        self.seed = int(state["seed"])
        self.name = str(state["name"])
        cursor = state["cursor"]
        self._random.setstate(
            (
                int(cursor["version"]),
                tuple(int(word) for word in cursor["internal"]),
                cursor["gauss_next"],
            )
        )

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in the half-open range [0, stop)."""
        return self._random.randrange(stop)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``)."""
        return self._random.expovariate(rate)

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Pareto variate: heavy-tailed sizes for flow byte/packet counts."""
        return scale * self._random.paretovariate(alpha)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._random.gauss(mu, sigma)

    def choice(self, items: Sequence[_T]) -> _T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def choices(self, items: Sequence[_T], weights: Sequence[float], k: int) -> List[_T]:
        """``k`` weighted choices with replacement."""
        return self._random.choices(items, weights=weights, k=k)

    def sample(self, items: Sequence[_T], k: int) -> List[_T]:
        """``k`` distinct choices without replacement."""
        return self._random.sample(items, k)

    def shuffle(self, items: List[_T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def bits(self, n: int, probability_of_one: float) -> int:
        """``n`` independent {0,1} draws packed into an int, draw ``i`` at bit ``i``.

        Consumes exactly the ``n`` draws, in position order, that ``n``
        ``bernoulli(probability_of_one)`` calls would, so a stream that
        switches between the two stays on the same cursor.  The NNS
        test-vector construction draws its vectors here.
        """
        draw = self._random.random
        return sum(1 << i for i in range(n) if draw() < probability_of_one)

    def weighted_index(self, weights: Iterable[float]) -> int:
        """Index drawn proportionally to ``weights``."""
        weight_list = list(weights)
        total = sum(weight_list)
        if total <= 0:
            raise ConfigError("weights must sum to a positive value")
        mark = self._random.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weight_list):
            cumulative += weight
            if mark < cumulative:
                return index
        return len(weight_list) - 1

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, name={self.name!r})"
