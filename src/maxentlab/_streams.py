"""Seeded random-stream derivation.

Every random draw in the package comes from a numpy PCG64 generator built
here. A stream is addressed by a 64-bit base seed plus integer context tags
(a stream id, then indices such as an epoch or trial number), fed to
SeedSequence as an entropy list, and the same address always reproduces the
same draws; that is what makes datasets, training runs and verification
trials reproducible down to the byte. Gaussian variates are produced by
Generator.standard_normal (ziggurat); nothing touches numpy's legacy global
RNG.

Distinct addresses do not always give distinct streams, because
SeedSequence sees only the list of 32-bit words they spell:

- it pads its four-word pool with zeros, so trailing zero tags vanish
  while the address is at most four words long:
  ``derive_rng(1, 5) == derive_rng(1, 5, 0) == derive_rng(1, 5, 0, 0)``;
- a seed or tag of 2**32 or more spells two words, low word first, so
  ``derive_rng(1, 2**32) == derive_rng(1, 0, 1)``.

``derive_rng`` stays as it is, since changing it would move every artifact.
The package keeps its addresses apart by their layout instead: each is the
seed, then a stream id, then that stream's indices, so no two addresses in
use spell the same words while seeds stay below 2**32. A new address should
take tags below 2**32 and end in a non-zero tag (an index plus one, say), so
that it cannot alias a shorter address.

Every task draws only from streams addressed by what it computes (a
training seed, a verification trial, a verification run's seed), and a task
that shares a run's stream with others (a share of the run's trials)
replays it from its start. So tasks can run in any order on any number of
threads: ``_parallel`` is the package's one thread pool, and the thread
count never changes output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Stream ids. Never renumber: artifact reproducibility depends on them.
SAMPLE = 1       # mixture sampling
INIT = 2         # model initialisation
SHUFFLE = 3      # per-epoch batch order
NOISE = 4        # label corruption
ENTROPY_MC = 5   # Monte-Carlo entropy estimates
FIXTURE = 6      # synthetic regime construction
TRIAL = 7        # bound-verification trials
# 8 is reserved: it once addressed randomized property tests
REFERENCE = 9    # a verification run's shared Monte-Carlo reference normals, one per seed

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_rng(seed: int, *context: int) -> np.random.Generator:
    """Return the generator addressed by (seed, *context); see the module docstring for aliases."""
    entropy = [int(seed) & _MASK64]
    for tag in context:
        if not isinstance(tag, (int, np.integer)):
            raise TypeError(f"stream context tags must be integers, got {tag!r}")
        entropy.append(int(tag) & _MASK64)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _parallel(tasks, threads: int):
    """Run no-arg callables, preserving order regardless of thread count."""
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]
