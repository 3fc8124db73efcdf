"""Sequencing simulation: read sampling, cost and latency models.

Sequencing reads are sampled from the (amplified) pool proportionally to
species copy counts and passed through the IDS error channel.
:class:`Sequencer` draws that channel for many reads at once, in bounded
chunks of raw PCG64 words, and gets exactly the reads (and the generator
state) of one :meth:`~repro.wetlab.errors.ErrorModel.corrupt` call per
read.  Two run models capture the latency behaviour discussed in
Section 7.4:

* :class:`IlluminaRunModel` — next-generation sequencing by synthesis:
  every run takes a fixed wall-clock time and yields a fixed number of
  reads; the output is only available at the end of the run, so latency is
  quantized in whole runs.
* :class:`NanoporeRunModel` — reads stream out continuously, so latency is
  proportional to the number of reads needed and the run can stop as soon
  as decoding succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # The run models below stay importable; only Sequencer needs numpy.

from repro.exceptions import SequencingError
from repro.wetlab.errors import ErrorModel, apply_events
from repro.wetlab.pool import MolecularPool


#: Raw words one ``random_raw`` call of the error channel draws at most
#: (1 MiB), which bounds its memory; a read longer than that is drawn alone.
_CHUNK_WORDS = 1 << 17


def _word_threshold(rate: float) -> int:
    """The least raw word whose ``Generator.random`` double is not under ``rate``.

    The double is ``(w >> 11) * 2**-53``, which is under ``rate`` exactly
    when ``w >> 11 < ceil(rate * 2**53)``, that is when
    ``w < ceil(rate * 2**53) << 11``; both products are exact.  A rate
    under 1 keeps the threshold under ``2**64``.
    """
    return math.ceil(rate * 2**53) << 11


@dataclass(frozen=True)
class SequencingRead:
    """One sequencing read with provenance for benchmark attribution.

    Attributes:
        sequence: the (noisy) read sequence.
        source: the original pool species the read was sampled from.
        annotations: the pool's metadata for the source species.
    """

    sequence: str
    source: str
    annotations: dict = field(default_factory=dict)


@dataclass
class SequencingResult:
    """The output of a sequencing run."""

    reads: list[SequencingRead]
    run_count: int = 1

    def __len__(self) -> int:
        return len(self.reads)

    def sequences(self) -> list[str]:
        """Just the read strings (what a FASTQ would contain)."""
        return [read.sequence for read in self.reads]

    def reads_by_annotation(self, key: str) -> dict:
        """Group read counts by one annotation key (e.g. ``"block"``)."""
        counts: dict = {}
        for read in self.reads:
            value = read.annotations.get(key)
            counts[value] = counts.get(value, 0) + 1
        return counts


class Sequencer:
    """Samples reads from a pool at a requested depth.

    Each call samples per-species read counts with one multinomial draw,
    passes every read through the error model, and shuffles the reads.
    The reads equal those of ``error_model.corrupt(strand, rng)`` called
    once per read in species order, and the generator ends in the same
    state, but the error channel is drawn in chunks of raw words:

    * The generator is the sequencer's own ``default_rng``, a PCG64
      generator, whose ``random`` maps a raw word ``w`` to
      ``(w >> 11) * 2**-53`` and whose ``integers(0, 4)`` takes the 32-bit
      halves of words (low half first) and returns ``half >> 30``.  So a
      read of length ``n`` uses exactly ``4n + 2`` words: ``n`` for
      substitutions, ``n + 1`` for insertions, ``n`` for deletions and
      ``n + 1`` for its ``2n + 2`` random bases.
    * Consecutive reads of one length are drawn together, at most
      ``_CHUNK_WORDS`` words per ``bit_generator.random_raw`` call.  Whole
      word matrices are compared with the three rates' integer
      thresholds, and only the reads with an error event are walked, by
      the same :func:`~repro.wetlab.errors.apply_events` as ``corrupt``.
    * The carried half: PCG64 buffers the unused high half of a word, and
      the list shuffle draws 32-bit values, so a call often starts with a
      buffered half.  Then each read's first random base is that half, its
      other bases are shifted by one half, and its last word's high half
      is carried to the next read.  The buffer is left as the per-read
      draws leave it.

    Args:
        error_model: the IDS channel applied to every read.
        seed: RNG seed for sampling and errors.
    """

    def __init__(self, error_model: ErrorModel | None = None, *, seed: int = 0) -> None:
        if np is None:
            raise SequencingError("sequencing simulation requires numpy")
        self.error_model = error_model or ErrorModel()
        self._rng = np.random.default_rng(seed)

    def sequence(self, pool: MolecularPool, read_count: int) -> SequencingResult:
        """Sample ``read_count`` reads proportionally to pool copy counts."""
        if read_count <= 0:
            raise SequencingError("read_count must be positive")
        if not len(pool):
            raise SequencingError("cannot sequence an empty pool")
        species = list(pool.species)
        copies = np.array([pool.species[s] for s in species], dtype=float)
        total = copies.sum()
        if total <= 0:
            raise SequencingError("pool has zero total copies")
        probabilities = copies / total
        counts = self._rng.multinomial(read_count, probabilities)
        drawn = [
            (strand, count) for strand, count in zip(species, counts.tolist()) if count
        ]
        noisy = iter(self._corrupt(drawn))
        reads: list[SequencingRead] = []
        for strand, count in drawn:
            annotations = pool.annotations(strand)
            for _ in range(count):
                reads.append(
                    SequencingRead(
                        sequence=next(noisy), source=strand, annotations=dict(annotations)
                    )
                )
        self._rng.shuffle(reads)  # type: ignore[arg-type]
        return SequencingResult(reads=list(reads))

    def _corrupt(self, drawn: list[tuple[str, int]]) -> list[str]:
        """Noisy copies of ``count`` reads of each ``(strand, count)``, in order."""
        model = self.error_model
        if model.total_error_rate == 0.0:
            return [strand for strand, count in drawn for _ in range(count)]
        thresholds = [
            _word_threshold(rate)
            for rate in (
                model.substitution_rate,
                model.insertion_rate,
                model.deletion_rate,
            )
        ]
        bit_generator = self._rng.bit_generator
        state = bit_generator.state
        carried = state["has_uint32"]
        half = state["uinteger"]
        noisy: list[str] = []
        for n, group in groupby(drawn, key=lambda item: len(item[0])):
            strands = [strand for strand, count in group for _ in range(count)]
            width = 4 * n + 2
            chunk_reads = max(1, _CHUNK_WORDS // width)
            for first in range(0, len(strands), chunk_reads):
                chunk = strands[first : first + chunk_reads]
                words = bit_generator.random_raw(len(chunk) * width)
                noisy.extend(
                    self._corrupt_chunk(
                        chunk, words.reshape(len(chunk), width), thresholds, carried, half
                    )
                )
                half = int(words[-1]) >> 32
        # ``random_raw`` leaves the buffer flag as it found it; the buffered
        # half is the last read's, as after per-read draws.
        state = bit_generator.state
        state["uinteger"] = half
        bit_generator.state = state
        return noisy

    @staticmethod
    def _corrupt_chunk(
        chunk: list[str],
        words: np.ndarray,
        thresholds: list[int],
        carried: int,
        half: int,
    ) -> list[str]:
        """Apply one chunk's words to its reads, all of length ``n``.

        Row ``r`` of ``words`` is read ``r``'s ``4n + 2`` words; ``half``
        is the high half carried in when ``carried`` is 1.
        """
        n = len(chunk[0])
        substitution, insertion, deletion = thresholds
        substituted = words[:, :n] < substitution
        inserted = words[:, n : 2 * n + 1] < insertion
        deleted = words[:, 2 * n + 1 : 3 * n + 1] < deletion
        events: dict[int, list[int]] = {}
        for index in np.flatnonzero(inserted[:, :n] | deleted | substituted).tolist():
            row, position = divmod(index, n)
            events.setdefault(row, []).append(position)
        for row in inserted[:, n].nonzero()[0].tolist():
            events.setdefault(row, [])
        noisy = list(chunk)
        if not events:
            return noisy
        # Base codes of the event reads' halves in draw order, after column
        # 0: the half each read would be carried in.
        event_rows = sorted(events)
        base_words = words[event_rows, 3 * n + 1 :]
        codes = np.empty((len(event_rows), 2 * n + 3), dtype=np.uint8)
        codes[:, 1::2] = (base_words >> 30) & 3
        codes[:, 2::2] = base_words >> 62
        if carried:
            codes[:, 0] = words[[row - 1 for row in event_rows], -1] >> 62
            if event_rows[0] == 0:
                codes[0, 0] = half >> 30
        for index, row in enumerate(event_rows):
            noisy[row] = apply_events(
                chunk[row],
                events[row],
                inserted[row],
                deleted[row],
                substituted[row],
                iter(codes[index, 1 - carried :]),
            )
        return noisy


@dataclass(frozen=True)
class IlluminaRunModel:
    """Fixed-run NGS latency/cost model (Section 7.4).

    Attributes:
        reads_per_run: reads produced by one run.
        run_hours: wall-clock duration of one run.
        cost_per_read: sequencing cost attributed to each read.
    """

    reads_per_run: int = 25_000_000
    run_hours: float = 24.0
    cost_per_read: float = 1e-5

    def runs_needed(self, reads_required: int) -> int:
        """Whole runs needed to obtain ``reads_required`` reads."""
        if reads_required <= 0:
            return 0
        return -(-reads_required // self.reads_per_run)

    def latency_hours(self, reads_required: int) -> float:
        """Latency: a whole number of fixed-duration runs."""
        return self.runs_needed(reads_required) * self.run_hours

    def cost(self, reads_required: int) -> float:
        """Cost is proportional to the sequencing output actually produced."""
        return self.runs_needed(reads_required) * self.reads_per_run * self.cost_per_read


@dataclass(frozen=True)
class NanoporeRunModel:
    """Streaming (nanopore) latency/cost model (Section 7.4).

    Attributes:
        reads_per_hour: sustained read throughput of the flow cell.
        cost_per_read: sequencing cost attributed to each read.
        setup_hours: fixed per-run setup overhead.
    """

    reads_per_hour: int = 2_000_000
    cost_per_read: float = 4e-5
    setup_hours: float = 0.25

    def latency_hours(self, reads_required: int) -> float:
        """Latency grows linearly with the reads needed (stop when decoded)."""
        if reads_required <= 0:
            return 0.0
        return self.setup_hours + reads_required / self.reads_per_hour

    def cost(self, reads_required: int) -> float:
        """Cost is proportional to reads actually produced."""
        return reads_required * self.cost_per_read
