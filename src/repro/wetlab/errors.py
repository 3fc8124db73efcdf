"""Insertion/deletion/substitution (IDS) error channel.

Synthesis, storage, PCR and sequencing all introduce errors that show up in
the final reads (Section 2.1.2).  Following the DNA-storage channel
simulators the paper cites (Keoliya et al.), we model the end-to-end read
channel as independent per-base substitution, insertion and deletion
events with configurable rates.  Default rates are in the range typically
reported for Illumina sequencing of synthesized oligo pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # Only type annotations reference numpy; rng objects are duck-typed.

from repro.constants import DNA_ALPHABET
from repro.exceptions import WetlabError


@dataclass(frozen=True)
class ErrorModel:
    """Per-base IDS error rates for the read channel.

    Attributes:
        substitution_rate: probability a base is read as a different base.
        insertion_rate: probability a random base is inserted before a base.
        deletion_rate: probability a base is dropped from the read.

    The defaults reflect an Illumina-class short-read channel over a
    synthesized oligo pool (substitutions dominate, indels are rare); use
    :meth:`nanopore` for a long-read profile and :meth:`noiseless` to
    isolate pipeline behaviour from channel noise.
    """

    substitution_rate: float = 0.002
    insertion_rate: float = 0.0005
    deletion_rate: float = 0.0005

    def __post_init__(self) -> None:
        for name, rate in (
            ("substitution_rate", self.substitution_rate),
            ("insertion_rate", self.insertion_rate),
            ("deletion_rate", self.deletion_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise WetlabError(f"{name} must be in [0, 1), got {rate}")

    @property
    def total_error_rate(self) -> float:
        """Aggregate per-base error probability."""
        return self.substitution_rate + self.insertion_rate + self.deletion_rate

    @classmethod
    def noiseless(cls) -> "ErrorModel":
        """An error-free channel (useful for isolating pipeline behaviour)."""
        return cls(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.0)

    @classmethod
    def nanopore(cls) -> "ErrorModel":
        """A higher-error profile typical of nanopore sequencing."""
        return cls(substitution_rate=0.02, insertion_rate=0.02, deletion_rate=0.03)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def corrupt(self, sequence: str, rng: np.random.Generator) -> str:
        """Return a noisy copy of ``sequence`` under this error model.

        A read of length ``n`` draws, in this order, ``n`` substitution
        doubles, ``n + 1`` insertion doubles, ``n`` deletion doubles and
        ``2n + 2`` random bases; a draw under its rate marks an event, and
        :func:`apply_events` applies the events.  A noiseless model draws
        nothing.
        """
        if self.total_error_rate == 0.0:
            return sequence
        n = len(sequence)
        # Four generator calls per read.  ``Sequencer`` draws the same
        # numbers for many reads at once from raw PCG64 words.
        substituted = rng.random(n) < self.substitution_rate
        inserted = rng.random(n + 1) < self.insertion_rate
        deleted = rng.random(n) < self.deletion_rate
        random_bases = rng.integers(0, 4, size=2 * n + 2)
        events = (inserted[:n] | deleted | substituted).nonzero()[0].tolist()
        return apply_events(
            sequence, events, inserted, deleted, substituted, iter(random_bases)
        )

    def corrupt_many(
        self, sequences: list[str], rng: np.random.Generator
    ) -> list[str]:
        """Corrupt a batch of sequences."""
        return [self.corrupt(sequence, rng) for sequence in sequences]


def apply_events(
    sequence: str,
    events: list[int],
    inserted: Sequence[bool],
    deleted: Sequence[bool],
    substituted: Sequence[bool],
    bases: Iterator[int],
) -> str:
    """Apply one read's error events to ``sequence``.

    Before base ``i`` a random base is inserted where ``inserted[i]``;
    base ``i`` is dropped where ``deleted[i]``, and otherwise replaced by
    a different random base where ``substituted[i]``: a replacement equal
    to the base becomes the next base of the alphabet.  ``inserted[n]``
    appends a base after the last one.  Random bases are base codes 0-3
    taken from ``bases`` in position order, an insertion's before a
    substitution's at the same position.

    Args:
        events: the positions ``i < n`` with any flag set, ascending.
            Errors are rare, so only these are visited; the untouched runs
            between them are copied whole.
    """
    alphabet = DNA_ALPHABET
    pieces: list[str] = []
    start = 0
    for i in events:
        pieces.append(sequence[start:i])
        start = i + 1
        if inserted[i]:
            pieces.append(alphabet[next(bases)])
        if deleted[i]:
            continue
        base = sequence[i]
        if substituted[i]:
            replacement = alphabet[next(bases)]
            if replacement == base:
                replacement = alphabet[(alphabet.index(base) + 1) % 4]
            base = replacement
        pieces.append(base)
    pieces.append(sequence[start:])
    if inserted[len(sequence)]:
        pieces.append(alphabet[next(bases)])
    return "".join(pieces)
