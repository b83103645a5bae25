"""Counter-based random streams keyed by (seed, domain, index).

Philox is a counter-based generator: distinct keys yield independent
streams by construction, so replicates can be generated in any order (or
in parallel) and still be bit-reproducible. Key layout packs the user
seed in the first key word and the domain and index in the second.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# stream domains, packed into the top byte of the second key word
DOMAIN_COLUMN = 0
DOMAIN_ROW = 1
DOMAIN_TRIALS = 2
DOMAIN_COHORT = 3
DOMAIN_SEPARATION = 4
DOMAIN_FRESH = 5


def stream_rng(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for the (seed, domain, index) coordinate.

    ``index`` is typically a replicate number (< 2^40). Every replicate
    source (bootstrap, fresh matrices, separation) draws all models of
    replicate ``index`` from this one stream, trial-major. Distinct
    coordinates never share a key.
    """
    if not 0 <= domain < 256:
        raise ValueError(f"domain out of range: {domain}")
    if not 0 <= index < (1 << 40):
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed & _MASK64, (domain << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
