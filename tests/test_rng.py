import numpy as np
import pytest

from bayeseval._rng import DOMAIN_FRESH, DOMAIN_SEPARATION, rekey, stream_rng
from bayeseval.errors import InputError

MAX_SEED = 2**64 - 1
MAX_INDEX = 2**40 - 1


class TestSeedRange:
    @pytest.mark.parametrize("seed", [2**64, -1, 2**65 + 3])
    def test_seed_outside_64_bits_rejected(self, seed):
        # wrapping would give seed 2^64 the stream of seed 0, and -1 that of
        # 2^64 - 1; both ends of the range stay accepted and distinct
        ends = [stream_rng(s, DOMAIN_FRESH, 0).bit_generator.random_raw(4) for s in (0, MAX_SEED)]
        assert not np.array_equal(*ends)
        with pytest.raises(InputError, match=r"seed must be in \[0, 2\^64\)"):
            stream_rng(seed, DOMAIN_SEPARATION, 0)
        with pytest.raises(InputError, match=r"seed must be in \[0, 2\^64\)"):
            rekey(stream_rng(0, DOMAIN_SEPARATION, 0), seed, DOMAIN_SEPARATION, 0)


def draws(rng):
    """Words, raw words and uniforms, in that order, from ``rng``."""
    return (
        rng.integers(0, 2**32, size=7, dtype=np.uint32),
        rng.bit_generator.random_raw(5),
        rng.random(3),
    )


class TestRekey:
    @pytest.mark.parametrize("seed", [0, MAX_SEED])
    @pytest.mark.parametrize("index", [0, MAX_INDEX])
    def test_rekeyed_equals_fresh_stream(self, seed, index):
        # three uint32 words leave a buffered half word, and three raw words
        # leave the Philox output buffer part-used; re-keying drops both
        rng = stream_rng(5, DOMAIN_SEPARATION, 3)
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        rng.bit_generator.random_raw(3)
        assert rng.bit_generator.state["has_uint32"] == 1
        rekey(rng, seed, DOMAIN_FRESH, index)
        for got, want in zip(draws(rng), draws(stream_rng(seed, DOMAIN_FRESH, index))):
            assert np.array_equal(got, want)
