"""Tests for the token vocabulary."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VocabularyError
from repro.mlm.vocab import (
    MASK_TOKEN,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    Vocabulary,
)


class TestSpecials:
    def test_reserved_ids(self):
        v = Vocabulary()
        assert v.unk_id == 2
        assert v.num_special == 3
        assert len(v) == 3

    def test_decode_specials(self):
        v = Vocabulary()
        assert v.decode(0) == PAD_TOKEN
        assert v.decode(1) == MASK_TOKEN
        assert v.decode(2) == UNK_TOKEN

    def test_is_special(self):
        v = Vocabulary()
        v.add((0, 0))
        assert all(v.is_special(i) for i in range(3))
        assert not v.is_special(3)

    def test_cannot_add_reserved(self):
        v = Vocabulary()
        for token in SPECIAL_TOKENS:
            with pytest.raises(VocabularyError):
                v.add(token)


class TestEncodeDecode:
    def test_add_assigns_sequential_ids(self):
        v = Vocabulary()
        assert v.add((1, 2)) == 3
        assert v.add((3, 4)) == 4

    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add((1, 2)) == v.add((1, 2))
        assert len(v) == 4

    def test_encode_unknown_is_unk(self):
        v = Vocabulary()
        assert v.encode((9, 9)) == v.unk_id

    def test_decode_round_trip(self):
        v = Vocabulary()
        token_id = v.add((7, -3))
        assert v.decode(token_id) == (7, -3)

    def test_decode_out_of_range(self):
        v = Vocabulary()
        with pytest.raises(VocabularyError):
            v.decode(99)
        with pytest.raises(VocabularyError):
            v.decode(-1)

    def test_contains(self):
        v = Vocabulary()
        v.add((1, 1))
        assert (1, 1) in v
        assert (2, 2) not in v

    def test_real_token_ids(self):
        v = Vocabulary()
        v.add((1, 1))
        v.add((2, 2))
        assert list(v.real_token_ids()) == [3, 4]

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=30))
    def test_round_trip_property(self, cells):
        v = Vocabulary()
        ids = [v.add(c) for c in cells]
        assert [v.decode(i) for i in ids] == cells


class TestPersistence:
    def test_to_from_list(self):
        v = Vocabulary()
        v.add((1, 2))
        v.add((-3, 4))
        restored = Vocabulary.from_list(v.to_list())
        assert len(restored) == len(v)
        assert restored.encode((1, 2)) == v.encode((1, 2))
        assert restored.encode((-3, 4)) == v.encode((-3, 4))
