"""Stream derivation: ``derive_rng`` spells the words SeedSequence read from the list form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab._streams import derive_rng

MASK64 = 2**64 - 1
INT64 = np.iinfo(np.int64)


def reference_rng(seed, *context):
    """The list form ``derive_rng`` once built: SeedSequence of each value mod 2**64."""
    entropy = [int(v) & MASK64 for v in (seed, *context)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def same_stream(a, b):
    return a.bit_generator.state == b.bit_generator.state and (
        a.integers(0, 2**63, 4).tolist() == b.integers(0, 2**63, 4).tolist()
    )


ADDRESS_VALUES = st.one_of(
    st.integers(-(2**65), 2**65),
    st.integers(INT64.min, INT64.max).map(np.int64),
    st.integers(0, MASK64).map(np.uint64),
    st.booleans(),
)
WORDS = st.integers(0, 2**32 - 1)


class TestDeriveRng:
    @given(seed=ADDRESS_VALUES, context=st.lists(ADDRESS_VALUES, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_draws_match_the_list_form(self, seed, context):
        assert same_stream(derive_rng(seed, *context), reference_rng(seed, *context))

    @given(seed=WORDS, context=st.lists(WORDS, max_size=2), zeros=st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_trailing_zero_tags_alias_within_four_words(self, seed, context, zeros):
        address = (seed, *context)
        padded = address + (0,) * min(zeros, 4 - len(address))
        assert same_stream(derive_rng(*padded), derive_rng(*address))

    @given(seed=WORDS, low=WORDS, high=st.integers(1, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_a_wide_tag_aliases_its_two_words(self, seed, low, high):
        assert same_stream(derive_rng(seed, high << 32 | low), derive_rng(seed, low, high))

    @pytest.mark.parametrize("tag", [1.0, np.float64(2.0), "3"])
    def test_a_float_or_str_tag_is_a_type_error(self, tag):
        with pytest.raises(TypeError, match="stream context tags must be integers"):
            derive_rng(1, 3, tag)
