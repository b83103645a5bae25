"""Counter-based random streams keyed by (seed, stream coordinates).

Philox is a counter-based generator: distinct keys yield independent
streams by construction, so replicates can be generated in any order (or
in parallel) and still be bit-reproducible. Key layout packs the user
seed in the first key word and the stream coordinates in the second.
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


def stream_rng(seed: int, domain: int, index: int = 0, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, domain, index, stream) coordinate.

    ``index`` is typically a replicate number (< 2^40). Bootstrap draws
    every model of a replicate from one stream; fresh-matrix and separation
    draws use ``stream`` as a model slot (< 2^16). Distinct coordinates
    never share a key.
    """
    if not 0 <= domain < 256:
        raise ValueError(f"domain out of range: {domain}")
    if not 0 <= index < (1 << 40):
        raise ValueError(f"stream index out of range: {index}")
    if not 0 <= stream < (1 << 16):
        raise ValueError(f"stream slot out of range: {stream}")
    word = (domain << 56) | (stream << 40) | index
    key = np.array([seed & _MASK64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
