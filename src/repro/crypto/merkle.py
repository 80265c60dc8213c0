"""Merkle trees, roots and inclusion proofs.

File descriptors in FileInsurer carry the Merkle root of the file
(``f.merkleRoot``), and PoRep commitments are Merkle roots over sealed
replica chunks.  This module provides a binary Merkle tree with domain
separation between leaves and internal nodes (to rule out second-preimage
tricks) plus compact inclusion proofs used by the storage proofs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = ["MerkleTree", "MerkleProof", "merkle_root", "chunk_bytes"]

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
DEFAULT_CHUNK_SIZE = 1024


# Leaf and node hashes are ``hash_concat(prefix, ...)``; the framed prefix
# is hashed once here and each hash resumes from a copy.
_LEAF_HASHER = hashlib.sha256(len(_LEAF_PREFIX).to_bytes(8, "big") + _LEAF_PREFIX)
_NODE_HASHER = hashlib.sha256(len(_NODE_PREFIX).to_bytes(8, "big") + _NODE_PREFIX)


def _hash_leaf(data: bytes) -> bytes:
    hasher = _LEAF_HASHER.copy()
    hasher.update(len(data).to_bytes(8, "big"))
    hasher.update(data)
    return hasher.digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    hasher = _NODE_HASHER.copy()
    hasher.update(
        b"".join((len(left).to_bytes(8, "big"), left, len(right).to_bytes(8, "big"), right))
    )
    return hasher.digest()


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[bytes]:
    """Split ``data`` into fixed-size chunks (the last may be shorter).

    An empty input produces a single empty chunk so that every file,
    including the empty file, has a well-defined Merkle root.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if not data:
        return [b""]
    return [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof for a single leaf.

    ``path`` lists sibling hashes from the leaf up to the root, and
    ``directions`` records, for each level, whether the sibling sits on the
    right (``True``) or left (``False``) of the running hash.
    """

    leaf_index: int
    leaf_hash: bytes
    path: tuple
    directions: tuple

    def verify(self, root: bytes) -> bool:
        """Check the proof against ``root``."""
        current = self.leaf_hash
        for sibling, sibling_on_right in zip(self.path, self.directions):
            if sibling_on_right:
                current = _hash_node(current, sibling)
            else:
                current = _hash_node(sibling, current)
        return current == root


class MerkleTree:
    """A binary Merkle tree over a sequence of byte-string leaves.

    Odd nodes are promoted (not duplicated) to the next level, which keeps
    proofs minimal and avoids the duplicated-leaf ambiguity of the Bitcoin
    construction.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("MerkleTree requires at least one leaf")
        self._leaf_hashes = [_hash_leaf(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = [list(self._leaf_hashes)]
        self._build()

    @classmethod
    def from_data(cls, data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "MerkleTree":
        """Build a tree over fixed-size chunks of ``data``."""
        return cls(chunk_bytes(data, chunk_size))

    def _build(self) -> None:
        current = self._levels[0]
        while len(current) > 1:
            nxt: List[bytes] = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(_hash_node(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                nxt.append(current[-1])
            self._levels.append(nxt)
            current = nxt

    @property
    def root(self) -> bytes:
        """The Merkle root."""
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        """Number of leaves in the tree."""
        return len(self._leaf_hashes)

    def leaf_hash(self, index: int) -> bytes:
        """Return the hash of leaf ``index``."""
        return self._leaf_hashes[index]

    def prove(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for leaf ``index``."""
        if not 0 <= index < len(self._leaf_hashes):
            raise IndexError("leaf index out of range")
        path: List[bytes] = []
        directions: List[bool] = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                path.append(level[sibling])
                directions.append(sibling > position)
            position //= 2
        return MerkleProof(
            leaf_index=index,
            leaf_hash=self._leaf_hashes[index],
            path=tuple(path),
            directions=tuple(directions),
        )


def merkle_root(leaves: Iterable[bytes]) -> bytes:
    """Convenience wrapper returning the Merkle root of ``leaves``."""
    return MerkleTree(list(leaves)).root
