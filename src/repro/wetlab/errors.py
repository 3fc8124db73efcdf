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

        Before base ``i`` a random base is inserted where
        ``insertion_draws[i]`` falls under the insertion rate; base ``i``
        is dropped where ``deletion_draws[i]`` falls under the deletion
        rate, and otherwise replaced by a different random base where
        ``substitution_draws[i]`` falls under the substitution rate.
        ``insertion_draws[n]`` appends a base after the last one.  Random
        bases are consumed in position order.
        """
        if self.total_error_rate == 0.0:
            return sequence
        alphabet = DNA_ALPHABET
        n = len(sequence)
        # Draw all random numbers in bulk for speed.
        substitution_draws = rng.random(n)
        insertion_draws = rng.random(n + 1)
        deletion_draws = rng.random(n)
        random_bases = rng.integers(0, 4, size=2 * n + 2)
        inserted = insertion_draws < self.insertion_rate
        deleted = deletion_draws < self.deletion_rate
        substituted = substitution_draws < self.substitution_rate
        # Errors are rare, so only the event positions are visited; the
        # untouched runs between them are copied whole.
        events = (inserted[:n] | deleted | substituted).nonzero()[0].tolist()
        pieces: list[str] = []
        random_cursor = 0
        start = 0
        for i in events:
            pieces.append(sequence[start:i])
            start = i + 1
            if inserted[i]:
                pieces.append(alphabet[random_bases[random_cursor]])
                random_cursor += 1
            if deleted[i]:
                continue
            base = sequence[i]
            if substituted[i]:
                replacement = alphabet[random_bases[random_cursor]]
                random_cursor += 1
                if replacement == base:
                    replacement = alphabet[(alphabet.index(base) + 1) % 4]
                base = replacement
            pieces.append(base)
        pieces.append(sequence[start:])
        if inserted[n]:
            pieces.append(alphabet[random_bases[random_cursor]])
        return "".join(pieces)

    def corrupt_many(
        self, sequences: list[str], rng: np.random.Generator
    ) -> list[str]:
        """Corrupt a batch of sequences."""
        return [self.corrupt(sequence, rng) for sequence in sequences]
