"""Tests for the tokenization module (paper Section 3)."""

import pytest

from repro.errors import ConfigError
from repro.geo import Point, Trajectory
from repro.grid import HexGrid, SquareGrid
from repro.core.tokenization import TokenSequence, Tokenizer, make_grid
from repro.mlm.vocab import MASK_TOKEN


@pytest.fixture()
def tokenizer() -> Tokenizer:
    return Tokenizer(HexGrid(75.0))


def east_trajectory(n=10, spacing=150.0) -> Trajectory:
    return Trajectory("east", [Point(i * spacing, 0.0, t=float(i)) for i in range(n)])


class TestMakeGrid:
    def test_hex(self):
        assert isinstance(make_grid("hex", 75.0), HexGrid)

    def test_square(self):
        assert isinstance(make_grid("square", 120.0), SquareGrid)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_grid("triangle", 75.0)


class TestTokenSequence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence("x", (1, 2), (None,))

    def test_len(self):
        assert len(TokenSequence("x", (3, 4, 5), (0.0, 1.0, 2.0))) == 3


class TestTokenize:
    def test_grow_interns_cells(self, tokenizer):
        seq = tokenizer.tokenize(east_trajectory(), grow=True)
        assert len(seq) >= 5
        assert all(not tokenizer.vocabulary.is_special(t) for t in seq.tokens)

    def test_no_grow_unknown_is_unk(self, tokenizer):
        seq = tokenizer.tokenize(east_trajectory(), grow=False)
        assert all(t == tokenizer.vocabulary.unk_id for t in seq.tokens)

    def test_consecutive_duplicates_collapsed(self, tokenizer):
        # Many points inside the same cell collapse to one token.
        traj = Trajectory("slow", [Point(i * 1.0, 0.0, t=float(i)) for i in range(30)])
        seq = tokenizer.tokenize(traj, grow=True)
        assert len(seq) < len(traj)
        for a, b in zip(seq.tokens, seq.tokens[1:]):
            assert a != b

    def test_nonconsecutive_revisit_kept(self, tokenizer):
        """A trajectory that leaves a cell and comes back keeps both visits
        (the paper's overpass example depends on this)."""
        out_and_back = Trajectory(
            "loop",
            [Point(0, 0, t=0.0), Point(300, 0, t=1.0), Point(0, 0, t=2.0)],
        )
        seq = tokenizer.tokenize(out_and_back, grow=True)
        assert len(seq) == 3
        assert seq.tokens[0] == seq.tokens[2]

    def test_times_are_entry_times(self, tokenizer):
        traj = east_trajectory()
        seq = tokenizer.tokenize(traj, grow=True)
        assert seq.times[0] == traj.points[0].t

    def test_tokenize_many(self, tokenizer):
        seqs = tokenizer.tokenize_many([east_trajectory(), east_trajectory(5)], grow=True)
        assert len(seqs) == 2

    def test_empty_trajectory(self, tokenizer):
        seq = tokenizer.tokenize(Trajectory("empty"), grow=True)
        assert len(seq) == 0


class TestTokenGeometry:
    def test_cell_of_token_round_trip(self, tokenizer):
        p = Point(400.0, 300.0)
        token = tokenizer.vocabulary.add(tokenizer.grid.cell_of(p))
        assert tokenizer.cell_of_token(token) == tokenizer.grid.cell_of(p)

    def test_cell_of_special_rejected(self, tokenizer):
        with pytest.raises(ConfigError):
            tokenizer.cell_of_token(tokenizer.vocabulary.encode(MASK_TOKEN))

    def test_token_for_point(self, tokenizer):
        p = Point(10.0, 10.0)
        assert tokenizer.token_for_point(p) == tokenizer.vocabulary.unk_id
        tokenizer.vocabulary.add(tokenizer.grid.cell_of(p))
        assert not tokenizer.vocabulary.is_special(tokenizer.token_for_point(p))

    def test_centroid_of_token(self, tokenizer):
        p = Point(400.0, 300.0)
        token = tokenizer.vocabulary.add(tokenizer.grid.cell_of(p))
        assert tokenizer.centroid_of_token(token).distance_to(p) <= 75.0

    def test_token_distance(self, tokenizer):
        a = tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(0, 0)))
        b = tokenizer.vocabulary.add(tokenizer.grid.cell_of(Point(1000, 0)))
        assert tokenizer.token_distance_m(a, b) == pytest.approx(1000.0, abs=150.0)
        assert tokenizer.token_distance_m(a, a) == 0.0

    def test_sequence_bbox(self, tokenizer):
        seq = tokenizer.tokenize(east_trajectory(), grow=True)
        box = tokenizer.sequence_bbox(seq)
        assert box.width > 500.0
