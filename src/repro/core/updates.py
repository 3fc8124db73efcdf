"""Update patches and their semantics (Sections 5.4 and 6.4).

The paper's proof-of-concept patch format is deliberately simple: a patch
names a byte range to delete from the block and a byte string to insert at
a given position after the deletion.  Because the system imposes no
semantics on patches, richer formats (full block replacement, compressed
diffs) are possible; this module implements the paper's format plus a
whole-block replacement patch, and the machinery to apply an ordered chain
of patches at decode time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UpdateError

#: Header bytes of a framed patch (see :meth:`UpdatePatch.to_framed_bytes`).
FRAMED_HEADER_BYTES = 4


@dataclass(frozen=True)
class UpdatePatch:
    """A single update patch in the paper's wetlab format (Section 6.4).

    Serialized layout (all integers are single bytes, as in the paper's
    256-byte-block setup):

    ``[delete_start][delete_length][insert_position][insert_bytes...]``

    * ``delete_start``  — first byte of the block to delete.
    * ``delete_length`` — number of bytes to delete (0 = pure insertion).
    * ``insert_position`` — where to insert, measured *after* the deletion
      has been applied.
    * ``insert_bytes``  — the bytes to insert (may be empty = pure deletion).
    """

    delete_start: int
    delete_length: int
    insert_position: int
    insert_bytes: bytes = b""

    def __post_init__(self) -> None:
        for name, value in (
            ("delete_start", self.delete_start),
            ("delete_length", self.delete_length),
            ("insert_position", self.insert_position),
        ):
            if not 0 <= value <= 0xFF:
                raise UpdateError(f"{name} must fit in one byte, got {value}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the patch into the wetlab wire format."""
        return (
            bytes((self.delete_start, self.delete_length, self.insert_position))
            + self.insert_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "UpdatePatch":
        """Parse a patch from its wire format.

        Trailing zero bytes beyond the logical insert payload cannot be
        distinguished from inserted zeros by the wire format alone; callers
        that care (the partition decoder) pass the exact patch length they
        recorded at update time, or accept the padded interpretation.
        """
        if len(data) < 3:
            raise UpdateError("patch must be at least three bytes")
        return cls(
            delete_start=data[0],
            delete_length=data[1],
            insert_position=data[2],
            insert_bytes=bytes(data[3:]),
        )

    @property
    def size_bytes(self) -> int:
        """Serialized size of the patch."""
        return 3 + len(self.insert_bytes)

    # ------------------------------------------------------------------
    # Framed serialization
    # ------------------------------------------------------------------
    def to_framed_bytes(self) -> bytes:
        """Serialize with an explicit insert-length byte.

        The paper's wire format relies on the patch filling its DNA payload
        exactly; because our encoding units pad every payload to a fixed
        size, the framed variant prepends the insertion length so a decoder
        can strip the padding without out-of-band metadata:

        ``[delete_start][delete_length][insert_position][insert_length][insert_bytes...]``
        """
        if len(self.insert_bytes) > 0xFF:
            raise UpdateError("framed patches support at most 255 inserted bytes")
        return (
            bytes(
                (
                    self.delete_start,
                    self.delete_length,
                    self.insert_position,
                    len(self.insert_bytes),
                )
            )
            + self.insert_bytes
        )

    @classmethod
    def from_framed_bytes(cls, data: bytes) -> "UpdatePatch":
        """Parse a framed patch, ignoring any padding after the insert bytes."""
        if len(data) < 4:
            raise UpdateError("framed patch must be at least four bytes")
        insert_length = data[3]
        if len(data) < 4 + insert_length:
            raise UpdateError("framed patch is truncated")
        return cls(
            delete_start=data[0],
            delete_length=data[1],
            insert_position=data[2],
            insert_bytes=bytes(data[4 : 4 + insert_length]),
        )

    @property
    def framed_size_bytes(self) -> int:
        """Serialized size of the framed patch."""
        return FRAMED_HEADER_BYTES + len(self.insert_bytes)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, block_data: bytes) -> bytes:
        """Apply this patch to a block's data and return the new contents.

        Raises:
            UpdateError: if the deletion range or insertion point falls
                outside the block.
        """
        if self.delete_start > len(block_data):
            raise UpdateError(
                f"delete_start {self.delete_start} beyond block of {len(block_data)} bytes"
            )
        if self.delete_start + self.delete_length > len(block_data):
            raise UpdateError("deletion range extends past the end of the block")
        after_delete = (
            block_data[: self.delete_start]
            + block_data[self.delete_start + self.delete_length :]
        )
        if self.insert_position > len(after_delete):
            raise UpdateError(
                f"insert_position {self.insert_position} beyond block of "
                f"{len(after_delete)} bytes (after deletion)"
            )
        return (
            after_delete[: self.insert_position]
            + self.insert_bytes
            + after_delete[self.insert_position :]
        )


@dataclass(frozen=True)
class ReplacementPatch:
    """A patch that replaces the entire block (the simplest semantics)."""

    new_contents: bytes

    def to_bytes(self) -> bytes:
        """Serialize (the wire format is just the new contents)."""
        return self.new_contents

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReplacementPatch":
        """Parse from wire format."""
        return cls(new_contents=bytes(data))

    @property
    def size_bytes(self) -> int:
        """Serialized size of the patch."""
        return len(self.new_contents)

    def apply(self, block_data: bytes) -> bytes:
        """Return the replacement contents, ignoring the old block."""
        del block_data
        return self.new_contents


def apply_patch(block_data: bytes, patch: UpdatePatch | ReplacementPatch) -> bytes:
    """Apply one patch (of either supported type) to block data."""
    return patch.apply(block_data)


def apply_patch_chain(
    block_data: bytes, patches: list[UpdatePatch | ReplacementPatch]
) -> bytes:
    """Apply an ordered chain of patches (oldest first) to block data.

    This is the software step performed at decode time (Section 5.2): the
    updates were durably logged in DNA in version order, and the decoder
    replays them over the original block contents.
    """
    current = block_data
    for patch in patches:
        current = apply_patch(current, patch)
    return current


def diff_span(old: bytes, new: bytes) -> tuple[int, int, bytes]:
    """The single edit that rewrites ``old`` into ``new``.

    Trims the common prefix and suffix and returns ``(start,
    delete_length, insert_bytes)``: delete ``delete_length`` bytes of
    ``old`` at ``start`` and insert ``insert_bytes`` there.
    """
    prefix = 0
    limit = min(len(old), len(new))
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and old[len(old) - 1 - suffix] == new[len(new) - 1 - suffix]
    ):
        suffix += 1
    return prefix, len(old) - prefix - suffix, new[prefix : len(new) - suffix]


def diff_as_patch(old: bytes, new: bytes) -> UpdatePatch:
    """Build a minimal single-span patch that rewrites ``old`` into ``new``.

    The patch format supports one deletion span and one insertion span, so
    the minimal patch removes the differing middle of ``old`` and inserts
    the differing middle of ``new`` (see :func:`diff_span`).  This is how a
    digital front-end would coalesce a small edit into a patch before
    synthesis.

    Raises:
        UpdateError: if a block exceeds 256 bytes, or the patch must
            delete all 256 bytes of a 256-byte block — offsets and the
            delete length are single bytes (0..255).
    """
    if len(old) > 256 or len(new) > 256:
        raise UpdateError("diff_as_patch supports blocks of at most 256 bytes")
    start, delete_length, insert_bytes = diff_span(old, new)
    return UpdatePatch(
        delete_start=start,
        delete_length=delete_length,
        insert_position=start,
        insert_bytes=insert_bytes,
    )
