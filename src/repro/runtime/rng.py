"""Deterministic randomness management for simulations.

Every node in a simulated network owns an independent ``numpy`` generator
spawned from a single root ``SeedSequence``.  This gives three properties
the evaluation harness relies on:

* **Reproducibility** — a run is a pure function of ``(graph, seed)``.
* **Independence** — per-node streams are statistically independent, which
  is what the synchronous model assumes of local coins.
* **Parallel safety** — trial seeds spawned with :func:`spawn_trial_seeds`
  can be handed to worker processes without stream collisions, the standard
  ``SeedSequence.spawn`` idiom for process pools.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_seed_sequence",
    "spawn_node_rngs",
    "spawn_trial_seeds",
    "generator_from",
]

SeedLike = int | np.random.SeedSequence | np.random.Generator | None


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize *seed* to a ``SeedSequence``.

    Accepts ``None`` (fresh entropy), an integer, an existing
    ``SeedSequence``, or a ``Generator`` (a child sequence is derived from
    it so the caller's stream is not consumed in a surprising way).
    """
    if seed is None or isinstance(seed, int):
        return np.random.SeedSequence(seed)
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        # Derive a child seed from the generator's stream.
        return np.random.SeedSequence(int(seed.integers(0, 2**63)))
    raise TypeError(f"cannot interpret {type(seed)!r} as a seed")


def generator_from(seed: SeedLike) -> np.random.Generator:
    """Return a ``Generator``; passes an existing ``Generator`` through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_seed_sequence(seed))


def spawn_node_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Spawn *n* independent per-node generators from a single seed."""
    root = as_seed_sequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def spawn_trial_seeds(
    seed: SeedLike, trials: int, start: int = 0
) -> list[np.random.SeedSequence]:
    """Spawn one independent ``SeedSequence`` per Monte-Carlo trial.

    A nonzero *start* skips the root's first children: trial ``i`` gets
    child ``start + i``, the one ``SeedSequence(seed).spawn`` would hand
    out at that position, built directly without spawning the others.
    """
    root = as_seed_sequence(seed)
    if start == 0:
        return root.spawn(trials)
    return [
        np.random.SeedSequence(
            root.entropy,
            spawn_key=(*root.spawn_key, i),
            pool_size=root.pool_size,
        )
        for i in range(start, start + trials)
    ]


def random_unique_ids(
    rng: np.random.Generator, n: int, id_space_exponent: int = 3
) -> np.ndarray:
    """Draw ``n`` distinct IDs uniformly from ``[0, n**id_space_exponent)``.

    The model (Section III) assumes unique IDs from a range polynomial in
    ``n``; Cole–Vishkin's worst-case bound needs IDs in ``n**Theta(1)``.
    Collisions are resolved by redrawing, which terminates quickly because
    the space is polynomially larger than ``n``.
    """
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    space = max(n, 2) ** id_space_exponent
    ids = rng.choice(space, size=n, replace=False) if space <= 2**24 else None
    if ids is None:
        seen: set[int] = set()
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            draw = int(rng.integers(0, space))
            if draw not in seen:
                seen.add(draw)
                out[filled] = draw
                filled += 1
        ids = out
    return ids.astype(np.int64)


def sequence_entropy(seeds: Sequence[np.random.SeedSequence]) -> list[int]:
    """Return a stable fingerprint for a list of seed sequences (testing)."""
    return [int(np.random.default_rng(s).integers(0, 2**31)) for s in seeds]
