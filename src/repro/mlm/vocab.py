"""Token vocabulary: interning grid cells as contiguous integer ids."""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from repro.errors import VocabularyError

PAD_TOKEN = "[PAD]"
MASK_TOKEN = "[MASK]"
UNK_TOKEN = "[UNK]"
SPECIAL_TOKENS = (PAD_TOKEN, MASK_TOKEN, UNK_TOKEN)


class Vocabulary:
    """A bidirectional mapping between grid cells and integer token ids.

    Ids 0..2 are reserved for ``[PAD]``, ``[MASK]`` and ``[UNK]``; grid
    cells get ids from 3 upward in insertion order, so a vocabulary grown
    from the same data in the same order is always identical.
    """

    def __init__(self) -> None:
        self._item_to_id: dict[Hashable, int] = {}
        self._id_to_item: list[Hashable] = []
        for special in SPECIAL_TOKENS:
            self._intern(special)

    def _intern(self, item: Hashable) -> int:
        existing = self._item_to_id.get(item)
        if existing is not None:
            return existing
        token_id = len(self._id_to_item)
        self._item_to_id[item] = token_id
        self._id_to_item.append(item)
        return token_id

    # -- special ids -------------------------------------------------------

    @property
    def unk_id(self) -> int:
        return 2

    @property
    def num_special(self) -> int:
        return len(SPECIAL_TOKENS)

    def is_special(self, token_id: int) -> bool:
        return 0 <= token_id < self.num_special

    # -- encode / decode ----------------------------------------------------

    def add(self, item: Hashable) -> int:
        """Intern ``item``, returning its (possibly new) id."""
        if item in SPECIAL_TOKENS:
            raise VocabularyError(f"cannot add reserved token {item!r}")
        return self._intern(item)

    def encode(self, item: Hashable) -> int:
        """Id of ``item``; :attr:`unk_id` if unknown."""
        return self._item_to_id.get(item, self.unk_id)

    def decode(self, token_id: int) -> Hashable:
        """The item for ``token_id``; raises for out-of-range ids."""
        if not 0 <= token_id < len(self._id_to_item):
            raise VocabularyError(f"token id {token_id} out of range (size {len(self)})")
        return self._id_to_item[token_id]

    def __contains__(self, item: Hashable) -> bool:
        return item in self._item_to_id

    def __len__(self) -> int:
        return len(self._id_to_item)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._id_to_item)

    def real_token_ids(self) -> range:
        """Ids of all non-special tokens."""
        return range(self.num_special, len(self))

    # -- persistence ----------------------------------------------------------

    def to_list(self) -> list:
        """JSON-friendly dump of the non-special items, in id order."""
        return [list(item) if isinstance(item, tuple) else item
                for item in self._id_to_item[self.num_special:]]

    @classmethod
    def from_list(cls, items: Sequence) -> "Vocabulary":
        """Rebuild from :meth:`to_list` output (a list item becomes a tuple)."""
        vocab = cls()
        for item in items:
            vocab.add(tuple(item) if isinstance(item, list) else item)
        return vocab

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self)})"

