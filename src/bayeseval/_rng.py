"""Counter-based random streams keyed by (seed, domain, index), and the one
draw rule of every replicate source.

Philox is a counter-based generator: distinct keys yield independent
streams by construction, so replicates can be generated in any order (or
in parallel) and still be bit-reproducible. Key layout packs the user
seed in the first key word and the domain and index in the second. A
draw reads one 32-bit word w per cell, trial-major (``words``), and a cell
takes category #{j >= 1 : w < U_j}, U_j = ceil(2^32 P(category >= j))
(``categories``): low words pick high categories, each category's
probability is off by less than 2^-32, and draws depend on Philox words alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# stream domains, packed into the top byte of the second key word
DOMAIN_COLUMN = 0
DOMAIN_ROW = 1
DOMAIN_TRIALS = 2
DOMAIN_COHORT = 3
DOMAIN_SEPARATION = 4
DOMAIN_FRESH = 5

STREAM_INDICES = 1 << 40  # indices 0 .. 2^40 - 1 per (seed, domain)
CHUNK_BYTES = 32 << 20  # byte budget of one chunk of replicates
DRAW_SHARE = 8  # one replicate's draw block holds 1/8 of the budget


def draw_block(unit_bytes: int, budget: int = CHUNK_BYTES) -> int:
    """Units per draw block: as many as 1/``DRAW_SHARE`` of ``budget`` holds
    at ``unit_bytes`` each, at least one. No result depends on the block."""
    return max(1, budget // DRAW_SHARE // unit_bytes)


def check_replicates(replicates: int) -> None:
    """Reject a replicate count below one or past the stream indices, before
    anything is sized from it."""
    if replicates < 1:
        raise InputError("replicates must be >= 1")
    if replicates > STREAM_INDICES:
        raise InputError(f"replicates must be <= 2^40 (the stream index space), got {replicates}")


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64), the first key word, rather than wrap it."""
    if not 0 <= seed < 1 << 64:
        raise InputError(f"seed must be in [0, 2^64), got {seed}")


def _key(seed: int, domain: int, index: int) -> np.ndarray:
    """The (seed, domain, index) Philox key; a seed outside [0, 2^64) is rejected, not wrapped."""
    check_seed(seed)
    if not 0 <= domain < 256:
        raise ValueError(f"domain out of range: {domain}")
    if not 0 <= index < STREAM_INDICES:
        raise ValueError(f"stream index out of range: {index}")
    return np.array([seed, (domain << 56) | index], dtype=np.uint64)


def stream_rng(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for the (seed, domain, index) coordinate.

    ``index`` is typically a replicate number (< ``STREAM_INDICES``). Every
    replicate source (bootstrap, fresh matrices, separation) draws all models
    of replicate ``index`` from this one stream, trial-major. Distinct
    coordinates never share a key; ``rekey`` moves a generator to another.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))


def rekey(rng: np.random.Generator, seed: int, domain: int, index: int) -> None:
    """Restart ``rng`` (from ``stream_rng``) as a new ``stream_rng(seed, domain, index)``,
    without the OS-entropy SeedSequence that ``Philox(key=...)`` draws and discards."""
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {"bit_generator": "Philox", "buffer": zero, "buffer_pos": 4,
                               "state": {"counter": zero, "key": _key(seed, domain, index)},
                               "has_uint32": 0, "uinteger": 0}


def thresholds(upper: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The (C - 1, *cells) limits U_j as uint32 limits min(U_j, 2^32 - 1) and
    the mask where U_j is 2^32 (None if nowhere): w < U_j always holds there."""
    always = upper == 2**32
    return np.minimum(upper, 2**32 - 1).astype(np.uint32), always if always.any() else None


def coin_thresholds(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``thresholds`` of success probabilities: U_1 = ceil(p 2^32), exact."""
    return thresholds(np.ceil(np.asarray(probs) * 2.0**32)[None])


def words(rng: np.random.Generator, shape: tuple[int, ...], block: int):
    """Yield (t, w) per block of ``block`` trials of the trial-major ``shape``
    (n, *cells): ``rng``'s next 32-bit words for trials t.., raw 64-bit words
    low half first. A block takes one more trial rather than an odd cell
    count, so neither a larger n nor the block moves a bit."""
    n, cells = shape[0], math.prod(shape[1:])
    block += block * cells % 2
    for t in range(0, n, block):
        b = min(block, n - t)
        raw = rng.bit_generator.random_raw(-(-b * cells // 2)).astype("<u8", copy=False)
        yield t, raw.view("<u4")[:b * cells].reshape(b, *shape[1:])


def categories(rng: np.random.Generator, bounds, out: np.ndarray, block: int) -> None:
    """``rng``'s next n trials into the (n, *cells) ``out``: a cell's word w
    takes category #{j : w < U_j} of its limits in the ``thresholds`` pair
    ``bounds``, drawn ``block`` trials at a time by ``words``."""
    limits, always = bounds
    for t, w in words(rng, out.shape, block):
        part = out[t:t + len(w)]
        np.less(w, limits[0], out=part)
        if always is not None:
            part |= always[0]
        for j in range(1, len(limits)):
            hit = w < limits[j]
            if always is not None:
                hit |= always[j]
            part += hit
