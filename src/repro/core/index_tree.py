"""The PCR-navigable index tree (Section 4 of the paper).

The internal address space of a partition is a prefix tree over the DNA
alphabet.  The dense tree (Figure 5a) maximizes information density but its
addresses are useless as PCR primer elongations: unbalanced GC content,
long homopolymers, and tiny pairwise distances.  The paper's construction
(Figures 5b/5c) fixes this with two transformations:

1. **Randomized edge order** — the four outgoing edges of every node are
   relabelled by a random permutation of ``A, C, G, T``, so that incomplete
   or degenerate trees do not degenerate into all-``A`` paths, and different
   partitions (different seeds) get entirely different trees.
2. **GC-complementary separator bases** — one extra base is inserted after
   every edge base.  The separator always has the opposite GC class of the
   base it follows (so every two-base step is exactly 50% GC and no
   homopolymer can exceed two), and within the children of one node the
   separators are assigned to maximize sibling Hamming distance, ties
   broken randomly.

The construction is fully deterministic given a seed, so the tree never
needs to be stored: only the seed is kept as partition metadata
(Section 4.4).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from repro.constants import DNA_ALPHABET, GC_BASES
from repro.exceptions import AddressError, IndexTreeError


def _digits_for(leaf: int, depth: int) -> tuple[int, ...]:
    """Base-4 digits (most significant first) of a leaf number."""
    digits = []
    for _ in range(depth):
        digits.append(leaf & 0b11)
        leaf >>= 2
    return tuple(reversed(digits))


def _leaf_for(digits: tuple[int, ...]) -> int:
    value = 0
    for digit in digits:
        value = (value << 2) | digit
    return value


@dataclass(frozen=True)
class _NodeLabels:
    """Edge and separator labels for the four children of one tree node."""

    edges: tuple[str, str, str, str]
    separators: tuple[str, str, str, str]


class IndexTree:
    """Deterministic, seeded, PCR-navigable index tree.

    Args:
        leaf_count: number of addressable leaves (blocks * update slots are
            handled one level further down by the partition; here a leaf is
            one encoding-unit address).  Does not need to be a power of four;
            the tree depth is ``ceil(log4(leaf_count))`` and only the first
            ``leaf_count`` leaves are used.
        seed: the randomization seed (partition metadata).
        sparse: when ``False`` the tree degenerates to the dense base-4
            addressing of prior work — useful as the baseline in ablations.

    >>> tree = IndexTree(leaf_count=1024, seed=7)
    >>> address = tree.encode(531)
    >>> len(address)
    10
    >>> tree.decode(address)
    531
    """

    def __init__(self, leaf_count: int, seed: int, *, sparse: bool = True) -> None:
        if leaf_count <= 0:
            raise IndexTreeError("leaf_count must be positive")
        self.leaf_count = leaf_count
        self.seed = seed
        self.sparse = sparse
        depth = 0
        capacity = 1
        while capacity < leaf_count:
            depth += 1
            capacity *= 4
        self.depth = max(depth, 1)

    # ------------------------------------------------------------------
    # Per-node deterministic randomization
    # ------------------------------------------------------------------
    def _node_rng(self, path: tuple[int, ...]) -> random.Random:
        material = f"{self.seed}|{'.'.join(map(str, path))}".encode()
        digest = hashlib.sha256(material).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    @lru_cache(maxsize=65536)
    def _node_labels(self, path: tuple[int, ...]) -> _NodeLabels:
        """Edge letters and separator letters for the children of ``path``."""
        if not self.sparse:
            return _NodeLabels(edges=DNA_ALPHABET, separators=("", "", "", ""))
        rng = self._node_rng(path)
        edges = list(DNA_ALPHABET)
        rng.shuffle(edges)

        # Separators: opposite GC class of the edge they follow; the two
        # children whose edges fall in the same class receive the two
        # distinct complementary-class letters (maximizing sibling Hamming
        # distance), in an order chosen at random (the tie-break).
        separators_for_gc_edges = ["A", "T"]
        separators_for_at_edges = ["C", "G"]
        rng.shuffle(separators_for_gc_edges)
        rng.shuffle(separators_for_at_edges)
        separators: list[str] = []
        for edge in edges:
            if edge in GC_BASES:
                separators.append(separators_for_gc_edges.pop())
            else:
                separators.append(separators_for_at_edges.pop())
        return _NodeLabels(edges=tuple(edges), separators=tuple(separators))

    # ------------------------------------------------------------------
    # Address encoding / decoding
    # ------------------------------------------------------------------
    @property
    def bases_per_level(self) -> int:
        """Address bases emitted per tree level (2 sparse, 1 dense)."""
        return 2 if self.sparse else 1

    @property
    def address_length(self) -> int:
        """Length in bases of a full leaf address."""
        return self.depth * self.bases_per_level

    def encode(self, leaf: int) -> str:
        """Return the (sparse) DNA address of leaf number ``leaf``."""
        if not 0 <= leaf < self.leaf_count:
            raise AddressError(
                f"leaf {leaf} out of range [0, {self.leaf_count})"
            )
        digits = _digits_for(leaf, self.depth)
        return self.encode_path(digits)

    def encode_path(self, digits: tuple[int, ...]) -> str:
        """Return the DNA prefix for an arbitrary-depth tree path.

        A partial path (fewer than ``depth`` digits) yields the prefix shared
        by every leaf in that subtree — exactly the string used to elongate a
        PCR primer for a sequential (range) access.
        """
        if len(digits) > self.depth:
            raise AddressError("path longer than tree depth")
        pieces: list[str] = []
        path: tuple[int, ...] = ()
        for digit in digits:
            if not 0 <= digit <= 3:
                raise AddressError(f"invalid path digit {digit}")
            labels = self._node_labels(path)
            pieces.append(labels.edges[digit])
            pieces.append(labels.separators[digit])
            path = path + (digit,)
        return "".join(pieces)

    def decode(self, address: str) -> int:
        """Decode a full DNA address back into its leaf number."""
        digits = self.decode_path(address)
        if len(digits) != self.depth:
            raise AddressError(
                f"address of {len(address)} bases is not a full leaf address"
            )
        leaf = _leaf_for(digits)
        if leaf >= self.leaf_count:
            raise AddressError(f"decoded leaf {leaf} exceeds leaf_count")
        return leaf

    def decode_path(self, address: str) -> tuple[int, ...]:
        """Decode a (possibly partial) DNA address into tree-path digits.

        Raises:
            AddressError: if the address does not correspond to any path in
                this tree (wrong edge letter or wrong separator).
        """
        step = self.bases_per_level
        if len(address) % step != 0:
            raise AddressError(
                f"address length {len(address)} is not a multiple of {step}"
            )
        digits: list[int] = []
        path: tuple[int, ...] = ()
        for i in range(0, len(address), step):
            labels = self._node_labels(path)
            edge = address[i]
            try:
                digit = labels.edges.index(edge)
            except ValueError as exc:
                raise AddressError(
                    f"edge base {edge!r} at offset {i} does not match the tree"
                ) from exc
            if self.sparse:
                separator = address[i + 1]
                if separator != labels.separators[digit]:
                    raise AddressError(
                        f"separator base {separator!r} at offset {i + 1} does not "
                        "match the tree"
                    )
            digits.append(digit)
            path = path + (digit,)
        return tuple(digits)

    def try_decode(self, address: str) -> int | None:
        """Like :meth:`decode` but returns ``None`` for unparseable addresses."""
        try:
            return self.decode(address)
        except AddressError:
            return None

    # ------------------------------------------------------------------
    # Analysis helpers (used by the ablation benchmarks)
    # ------------------------------------------------------------------
    def all_addresses(self) -> list[str]:
        """Return the addresses of every leaf (ordered by leaf number)."""
        return [self.encode(leaf) for leaf in range(self.leaf_count)]

    def sibling_addresses(self, leaf: int) -> list[str]:
        """Addresses of the (up to three) siblings of ``leaf``."""
        digits = _digits_for(leaf, self.depth)
        siblings = []
        for digit in range(4):
            if digit == digits[-1]:
                continue
            candidate = digits[:-1] + (digit,)
            sibling_leaf = _leaf_for(candidate)
            if sibling_leaf < self.leaf_count:
                siblings.append(self.encode(sibling_leaf))
        return siblings

    def prefix_for_leaf(self, leaf: int, levels: int) -> str:
        """Return the address prefix of ``leaf`` covering only ``levels`` levels."""
        if not 0 <= leaf < self.leaf_count:
            raise AddressError(
                f"leaf {leaf} out of range [0, {self.leaf_count})"
            )
        if not 0 <= levels <= self.depth:
            raise AddressError(f"levels {levels} out of range [0, {self.depth}]")
        digits = _digits_for(leaf, self.depth)[:levels]
        return self.encode_path(digits)

    def leaves_under_prefix(self, digits: tuple[int, ...]) -> range:
        """Return the contiguous leaf-number range covered by a tree path.

        A valid path whose subtree lies wholly past ``leaf_count`` yields
        an empty range.
        """
        if len(digits) > self.depth:
            raise AddressError("path longer than tree depth")
        for digit in digits:
            if not 0 <= digit <= 3:
                raise AddressError(f"invalid path digit {digit}")
        span = 4 ** (self.depth - len(digits))
        start = _leaf_for(digits) * span if digits else 0
        end = min(start + span, self.leaf_count)
        return range(start, end)
