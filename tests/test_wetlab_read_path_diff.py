"""Differential tests for the wetlab read path against the code it replaced.

``PCRSimulator.amplify`` classifies each strand once per reaction and
compares a misprimed footprint only past the bases it shares with the
primer; ``ErrorModel.corrupt`` visits only the error events of a read;
``Sequencer.sequence`` draws the error channel of many reads at once from
raw PCG64 words.  All three must reproduce the implementations they
replaced bit for bit, so those are kept below verbatim as reference
models (``ReferencePCRSimulator``, ``reference_corrupt`` and
``ReferenceSequencer``, which calls ``reference_corrupt`` once per read)
and diffed against the library on generated inputs:

* amplified pools: the same species in the same order with exactly equal
  copy counts, and the same metadata;
* corrupted reads: the same strings, and the same random generator state
  afterwards, so the next read's draws match too;
* sequencing runs: the same reads, sources and annotations in the same
  order, over consecutive calls on one sequencer, and the generator at
  the same position afterwards (state, buffered 32-bit half, next draws).

A pinned CRC32 of the sequencing reads of one seeded readout catches any
drift that reaches the reads: a moved amplification float changes the
multinomial sample, and a moved draw changes the errors.
"""

import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DNA_ALPHABET
from repro.core.elongation import ElongatedPrimer
from repro.core.partition import Partition, PartitionConfig
from repro.exceptions import SequencingError
from repro.primers.library import PrimerPair
from repro.sequence import levenshtein_distance
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.wetlab.errors import ErrorModel
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.pool import MolecularPool
from repro.wetlab import sequencing
from repro.wetlab.readout import WetlabReadout
from repro.wetlab.sequencing import Sequencer, SequencingRead, SequencingResult
from repro.wetlab.synthesis import SynthesisVendor, synthesize
from repro.workloads.objects import object_corpus

# ----------------------------------------------------------------------
# Reference models (the replaced implementations, verbatim)
# ----------------------------------------------------------------------


@dataclass
class _PrimerBinding:
    """Pre-computed binding behaviour of one primer against one species."""

    exact: bool
    mispriming_efficiency: float
    product: str | None


class ReferencePCRSimulator:
    """Simulates PCR amplification over a :class:`MolecularPool`.

    The simulator is deterministic: copy counts are expected values, not
    stochastic samples (the stochasticity of the physical process is folded
    into the synthesis skew and the sequencing sampling steps).
    """

    def __init__(self, config: PCRConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Primer handling
    # ------------------------------------------------------------------
    @staticmethod
    def _primer_sequence(primer: str | ElongatedPrimer) -> str:
        if isinstance(primer, ElongatedPrimer):
            return primer.sequence
        return primer

    def _binding(
        self,
        strand: str,
        annotations: dict,
        forward: str,
        reverse: str,
    ) -> _PrimerBinding:
        """Compute how a forward primer binds to a strand."""
        config = self.config
        if not strand.endswith(reverse):
            return _PrimerBinding(exact=False, mispriming_efficiency=0.0, product=None)
        footprint = strand[: len(forward)]
        if footprint == forward:
            return _PrimerBinding(exact=True, mispriming_efficiency=0.0, product=None)
        distance = levenshtein_distance(
            footprint, forward, upper_bound=config.max_mispriming_distance
        )
        if distance > config.max_mispriming_distance:
            return _PrimerBinding(exact=False, mispriming_efficiency=0.0, product=None)
        efficiency = config.max_efficiency * (config.mismatch_penalty ** distance)
        product = None
        if config.overwrite_prefix:
            product = forward + strand[len(forward):]
        del annotations
        return _PrimerBinding(
            exact=False, mispriming_efficiency=efficiency, product=product
        )

    # ------------------------------------------------------------------
    # Amplification
    # ------------------------------------------------------------------
    def amplify(
        self,
        pool: MolecularPool,
        forward_primers: str | ElongatedPrimer | list[str | ElongatedPrimer],
        reverse_primer: str,
        *,
        residual_forward_primer: str | None = None,
        name: str | None = None,
    ) -> MolecularPool:
        """Run the configured number of PCR cycles and return the new pool.

        Args:
            pool: the input sample.
            forward_primers: one forward primer or a list of them (multiplex
                PCR uses several elongated primers in the same tube).
            reverse_primer: the reverse primer (sense-strand orientation, as
                stored in :class:`repro.codec.molecule.Molecule`).
            residual_forward_primer: the main (non-elongated) forward primer
                carried over from a previous reaction; only used when the
                config's ``residual_primer_efficiency`` is positive.
            name: name of the output pool.

        Returns:
            A new :class:`MolecularPool`; input copy counts are preserved
            and amplification products are added on top (PCR does not
            consume templates).
        """
        if isinstance(forward_primers, (str, ElongatedPrimer)):
            primer_list = [forward_primers]
        else:
            primer_list = list(forward_primers)
        if not primer_list:
            raise PCRError("at least one forward primer is required")
        forward_sequences = [self._primer_sequence(p) for p in primer_list]

        result = MolecularPool(
            name=name or f"{pool.name}-pcr",
            species=dict(pool.species),
            metadata={seq: dict(meta) for seq, meta in pool.metadata.items()},
        )

        # Pre-compute bindings for the initial species.  Products created by
        # prefix overwrite match their primer exactly, so their binding is
        # known without re-computation.
        bindings: dict[str, list[_PrimerBinding]] = {}

        def bindings_for(strand: str) -> list[_PrimerBinding]:
            if strand not in bindings:
                bindings[strand] = [
                    self._binding(strand, result.annotations(strand), fwd, reverse_primer)
                    for fwd in forward_sequences
                ]
            return bindings[strand]

        exact_prefix_set = set(forward_sequences)
        residual_efficiency = self.config.residual_primer_efficiency
        residual_primer = residual_forward_primer

        for cycle in range(self.config.cycles):
            in_touchdown = cycle < self.config.touchdown_cycles
            misprime_factor = (
                self.config.touchdown_mispriming_factor if in_touchdown else 1.0
            )
            additions: dict[str, float] = {}
            new_products: dict[str, dict] = {}
            max_gain = self.config.max_efficiency
            for strand, copies in result.species.items():
                if copies <= 0.0:
                    continue
                # Per-cycle gain of any single template is physically capped
                # at one additional copy per existing copy (doubling), no
                # matter how many primers can bind it.
                self_gain = 0.0
                # Products that start with a primer sequence amplify exactly.
                if any(strand.startswith(fwd) for fwd in exact_prefix_set) and strand.endswith(reverse_primer):
                    self_gain = max_gain
                else:
                    for binding in bindings_for(strand):
                        if binding.exact:
                            self_gain = max(self_gain, max_gain)
                        elif binding.mispriming_efficiency > 0.0:
                            gain = copies * binding.mispriming_efficiency * misprime_factor
                            if gain <= 0.0:
                                continue
                            product = binding.product or strand
                            additions[product] = additions.get(product, 0.0) + gain
                            if product not in result.species and product not in new_products:
                                source_meta = dict(result.annotations(strand))
                                source_meta["misprimed"] = True
                                new_products[product] = source_meta
                # Residual main primers amplify everything in the partition.
                if residual_efficiency > 0.0 and residual_primer is not None:
                    if strand.startswith(residual_primer) and strand.endswith(reverse_primer):
                        self_gain = max(self_gain, residual_efficiency)
                if self_gain > 0.0:
                    additions[strand] = additions.get(strand, 0.0) + copies * min(
                        self_gain, max_gain
                    )
            for strand, gain in additions.items():
                result.species[strand] = result.species.get(strand, 0.0) + gain
            for strand, meta in new_products.items():
                if meta:
                    result.metadata.setdefault(strand, {}).update(meta)
        return result


def reference_corrupt(self, sequence: str, rng: np.random.Generator) -> str:
    """Return a noisy copy of ``sequence`` under this error model."""
    if self.total_error_rate == 0.0:
        return sequence
    bases = []
    alphabet = DNA_ALPHABET
    n = len(sequence)
    # Draw all random numbers in bulk for speed.
    substitution_draws = rng.random(n)
    insertion_draws = rng.random(n + 1)
    deletion_draws = rng.random(n)
    random_bases = rng.integers(0, 4, size=2 * n + 2)
    random_cursor = 0
    for i in range(n):
        if insertion_draws[i] < self.insertion_rate:
            bases.append(alphabet[random_bases[random_cursor]])
            random_cursor += 1
        if deletion_draws[i] < self.deletion_rate:
            continue
        base = sequence[i]
        if substitution_draws[i] < self.substitution_rate:
            replacement = alphabet[random_bases[random_cursor]]
            random_cursor += 1
            if replacement == base:
                replacement = alphabet[(alphabet.index(base) + 1) % 4]
            base = replacement
        bases.append(base)
    if insertion_draws[n] < self.insertion_rate:
        bases.append(alphabet[random_bases[random_cursor]])
    return "".join(bases)


class ReferenceSequencer:
    """Samples reads from a pool at a requested depth.

    Args:
        error_model: the IDS channel applied to every read.
        seed: RNG seed for sampling and errors.
    """

    def __init__(self, error_model: ErrorModel | None = None, *, seed: int = 0) -> None:
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
        reads: list[SequencingRead] = []
        for strand, count in zip(species, counts):
            if count == 0:
                continue
            annotations = pool.annotations(strand)
            for _ in range(int(count)):
                noisy = reference_corrupt(self.error_model, strand, self._rng)
                reads.append(
                    SequencingRead(
                        sequence=noisy, source=strand, annotations=dict(annotations)
                    )
                )
        self._rng.shuffle(reads)  # type: ignore[arg-type]
        return SequencingResult(reads=list(reads))


# ----------------------------------------------------------------------
# PCR amplification
# ----------------------------------------------------------------------

MAIN = "ATCGTGCAAGCTTGACCTGA"
REVERSE = "CGTAGACTTGCAACTGGACT"
BASES = "ACGT"

dna = st.text(alphabet=BASES, min_size=0, max_size=8)


def assert_same_pool(got: MolecularPool, want: MolecularPool) -> None:
    assert got.name == want.name
    # Species in the same (insertion) order, copy counts exactly equal.
    assert list(got.species.items()) == list(want.species.items())
    assert list(got.metadata.items()) == list(want.metadata.items())


@st.composite
def one_edit(draw, text: str) -> str:
    """``text`` with one substitution, insertion or deletion."""
    position = draw(st.integers(min_value=0, max_value=len(text)))
    base = draw(st.sampled_from(BASES))
    kind = draw(st.sampled_from(["sub", "ins", "del"]))
    if kind == "ins" or not text:
        return text[:position] + base + text[position:]
    position = min(position, len(text) - 1)
    if kind == "del":
        return text[:position] + text[position + 1 :]
    replacement = BASES[(BASES.index(text[position]) + 1) % 4]
    return text[:position] + replacement + text[position + 1 :]


@st.composite
def reactions(draw):
    """A pool, its primers and a PCR configuration.

    Strands share the main primer and carry a primer's address, an address
    one edit away from one, or a random one; some lack the reverse primer,
    some carry an edited main primer, some are shorter than a primer, and
    some have no copies.
    """
    addresses = draw(
        st.lists(
            st.text(alphabet=BASES, min_size=1, max_size=7),
            min_size=1,
            max_size=3,
        )
    )
    primers = [MAIN + address for address in addresses]
    pool = MolecularPool(name="pool")
    for serial in range(draw(st.integers(min_value=1, max_value=12))):
        address = draw(st.sampled_from(addresses))
        kind = draw(
            st.sampled_from(
                ["exact", "near", "near", "random", "no-reverse", "main-edit", "short"]
            )
        )
        main = MAIN
        if kind == "exact":
            index = address
        elif kind == "near":
            index = draw(one_edit(address))
        elif kind == "main-edit":
            main = draw(one_edit(MAIN))
            index = address
        else:
            index = draw(dna)
        payload = draw(st.text(alphabet=BASES, min_size=0, max_size=30))
        if kind == "short":
            strand = MAIN[: draw(st.integers(min_value=1, max_value=len(MAIN)))] + REVERSE
        elif kind == "no-reverse":
            strand = main + index + payload
        else:
            strand = main + index + payload + REVERSE
        copies = draw(
            st.sampled_from([0.0, 1.0])
            | st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
        )
        if draw(st.booleans()):
            pool.add(strand, copies, serial=serial)
        else:
            pool.add(strand, copies)
    cycles = draw(st.integers(min_value=1, max_value=8))
    config = PCRConfig(
        cycles=cycles,
        max_efficiency=draw(st.sampled_from([0.95, 1.0, 0.6])),
        mismatch_penalty=draw(st.sampled_from([0.0, 0.3, 0.38, 0.9])),
        max_mispriming_distance=draw(st.integers(min_value=0, max_value=6)),
        residual_primer_efficiency=draw(st.sampled_from([0.0, 0.52, 1.5])),
        overwrite_prefix=draw(st.booleans()),
        touchdown_cycles=draw(st.integers(min_value=0, max_value=cycles)),
        touchdown_mispriming_factor=draw(st.sampled_from([0.0, 0.1, 1.0])),
    )
    forward = primers[0] if len(primers) == 1 and draw(st.booleans()) else primers
    residual = draw(st.sampled_from([None, MAIN]))
    return pool, forward, config, residual


#: An elongated primer and three addresses one substitution away from its
#: own, so strands carrying them misprime onto it.
ADDRESS = "ACGTAC"
PRIMER = MAIN + ADDRESS
NEAR = ("ACGTAA", "ACGTTC", "ACGAAC")
PAYLOADS = ("GATTACAGATTACA", "CCATGGCCATGG")


def _strand(address: str, payload: str) -> str:
    return MAIN + address + payload + REVERSE


def amplify_both(pool: MolecularPool, config: PCRConfig) -> MolecularPool:
    """Amplify with the library and the reference; return the library's pool."""
    got = PCRSimulator(config).amplify(pool, PRIMER, REVERSE, name="out")
    want = ReferencePCRSimulator(config).amplify(pool, PRIMER, REVERSE, name="out")
    assert_same_pool(got, want)
    return got


class TestAmplifyMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(reactions())
    def test_generated_reactions(self, reaction):
        pool, forward, config, residual = reaction
        got = PCRSimulator(config).amplify(
            pool, forward, REVERSE, residual_forward_primer=residual, name="out"
        )
        want = ReferencePCRSimulator(config).amplify(
            pool, forward, REVERSE, residual_forward_primer=residual, name="out"
        )
        assert_same_pool(got, want)

    @pytest.mark.parametrize(
        "config",
        [
            PCRConfig(),
            PCRConfig.touchdown(),
            PCRConfig(cycles=12, mismatch_penalty=0.5, max_mispriming_distance=6),
            PCRConfig(cycles=6, overwrite_prefix=False, mismatch_penalty=0.5),
            PCRConfig(cycles=6, mismatch_penalty=0.0),
            PCRConfig(cycles=6, max_mispriming_distance=0),
        ],
    )
    def test_partition_pool_with_elongated_primers(self, config):
        pair = PrimerPair(MAIN, REVERSE)
        partition = Partition(PartitionConfig(primers=pair, leaf_count=64, tree_seed=3))
        partition.write(bytes(range(256)) * 8)
        molecules = partition.all_molecules()
        pool = synthesize(molecules, SynthesisVendor.twist(), seed=5)
        for blocks in ([3], [1, 4, 6]):
            primers = [partition.primer_for_block(block) for block in blocks]
            assert all(isinstance(primer, ElongatedPrimer) for primer in primers)
            got = PCRSimulator(config).amplify(
                pool, primers, REVERSE, residual_forward_primer=MAIN
            )
            want = ReferencePCRSimulator(config).amplify(
                pool, primers, REVERSE, residual_forward_primer=MAIN
            )
            assert_same_pool(got, want)

    def test_misprimed_product_already_in_the_pool(self):
        # Both neighbours' products are the exact strand itself, so it sums
        # a misprime from before it, its own gain and one from after it.
        exact = _strand(ADDRESS, PAYLOADS[0])
        pool = MolecularPool(name="pool")
        pool.add(_strand(NEAR[0], PAYLOADS[0]), 4.0, serial=0)
        pool.add(exact, 7.0, serial=1)
        pool.add(_strand(NEAR[1], PAYLOADS[0]), 2.5, serial=2)
        got = amplify_both(pool, PCRConfig(cycles=6))
        assert list(got.species) == list(pool.species)
        assert "misprimed" not in got.annotations(exact)

    @pytest.mark.parametrize("touchdown_cycles", [3, 6])
    def test_no_product_while_touchdown_stops_mispriming(self, touchdown_cycles):
        # A factor of 0 zeroes every misprime gain while touching down: the
        # product enters the pool in the first regular cycle, or never.
        pool = MolecularPool(name="pool")
        pool.add(_strand(ADDRESS, PAYLOADS[0]), 3.0, serial=0)
        pool.add(_strand(NEAR[0], PAYLOADS[1]), 5.0, serial=1)
        config = PCRConfig(
            cycles=6,
            touchdown_cycles=touchdown_cycles,
            touchdown_mispriming_factor=0.0,
        )
        got = amplify_both(pool, config)
        product = _strand(ADDRESS, PAYLOADS[1])
        assert (product in got) == (touchdown_cycles < config.cycles)

    def test_empty_species_fed_by_a_misprime_then_amplifies(self):
        # The exact strand starts with no copies: the misprime fills it in
        # the first cycle and its own gain adds to it from the second.
        exact = _strand(ADDRESS, PAYLOADS[0])
        pool = MolecularPool(name="pool")
        pool.add(exact, 0.0)
        pool.add(_strand(NEAR[0], PAYLOADS[0]), 5.0, serial=1)
        got = amplify_both(pool, PCRConfig(cycles=4))
        assert list(got.species) == list(pool.species)
        assert got.copies(exact) > 5.0 * 0.95 * 0.3 * 4

    def test_products_enter_in_the_order_of_their_first_gain(self):
        # The first strand to misprime onto one product has no copies, so
        # that product's first gain comes after another product's.
        pool = MolecularPool(name="pool")
        pool.add(_strand(NEAR[0], PAYLOADS[0]), 0.0, serial=0)
        pool.add(_strand(NEAR[1], PAYLOADS[1]), 5.0, serial=1)
        pool.add(_strand(NEAR[2], PAYLOADS[0]), 5.0, serial=2)
        got = amplify_both(pool, PCRConfig(cycles=3))
        assert list(got.species)[3:] == [
            _strand(ADDRESS, PAYLOADS[1]),
            _strand(ADDRESS, PAYLOADS[0]),
        ]
        assert got.annotations(_strand(ADDRESS, PAYLOADS[0])) == {
            "serial": 2,
            "misprimed": True,
        }


# ----------------------------------------------------------------------
# Sequencing error channel
# ----------------------------------------------------------------------

ERROR_MODELS = [
    ErrorModel(),
    ErrorModel.nanopore(),
    ErrorModel.noiseless(),
    ErrorModel(substitution_rate=0.1, insertion_rate=0.0, deletion_rate=0.0),
    ErrorModel(substitution_rate=0.0, insertion_rate=0.1, deletion_rate=0.0),
    ErrorModel(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.1),
    ErrorModel(substitution_rate=0.3, insertion_rate=0.3, deletion_rate=0.3),
    ErrorModel(substitution_rate=0.9, insertion_rate=0.0, deletion_rate=0.9),
]


def assert_same_reads(model, sequences, seed):
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    for sequence in sequences:
        assert model.corrupt(sequence, rng) == reference_corrupt(
            model, sequence, reference_rng
        )
        # Equal generator state: the next read draws the same numbers.
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestCorruptMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=0, max_size=200), max_size=4),
        st.sampled_from(ERROR_MODELS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_generated_sequences(self, sequences, model, seed):
        assert_same_reads(model, sequences, seed)

    @pytest.mark.parametrize("model", ERROR_MODELS, ids=repr)
    def test_many_strand_length_reads(self, model):
        rng = np.random.default_rng(17)
        strands = [
            "".join(DNA_ALPHABET[base] for base in rng.integers(0, 4, size=length))
            for length in (0, 1, 2, 140, 140, 200)
        ]
        assert_same_reads(model, strands * 40, seed=2023)


# ----------------------------------------------------------------------
# Sequencer
# ----------------------------------------------------------------------


def make_pool(species, seed=5):
    """A pool of random strands: ``species`` is ``(length, copies)`` pairs."""
    rng = np.random.default_rng(seed)
    pool = MolecularPool(name="pool")
    for serial, (length, copies) in enumerate(species):
        strand = "".join(DNA_ALPHABET[base] for base in rng.integers(0, 4, size=length))
        pool.add(strand, copies, serial=serial)
    return pool


#: Lengths 1, 20, 146 and 147, runs of one length across species, and
#: species without copies between and inside those runs.
MIXED_POOL = make_pool(
    [
        (146, 5.0),
        (146, 0.0),
        (146, 3.0),
        (1, 2.0),
        (147, 0.0),
        (20, 3.0),
        (147, 4.0),
        (147, 2.5),
        (146, 6.0),
        (1, 1.0),
        (20, 0.0),
    ]
)


def read_triples(result):
    return [(read.sequence, read.source, read.annotations) for read in result.reads]


def next_draws(rng):
    """A double and three 32-bit integers drawn by a copy of ``rng``."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy.random(), copy.integers(0, 2**32, size=3, dtype=np.uint32).tolist()


def assert_same_position(rng, reference_rng):
    """Both generators continue identically from here."""
    got = rng.bit_generator.state
    want = reference_rng.bit_generator.state
    assert got["state"] == want["state"]
    assert got["has_uint32"] == want["has_uint32"]
    if want["has_uint32"]:
        assert got["uinteger"] == want["uinteger"]
    assert next_draws(rng) == next_draws(reference_rng)


def assert_same_runs(model, pool, read_counts, seed, *, half_first=False):
    """Diff consecutive calls on one sequencer with the reference's.

    With ``half_first`` both generators first draw one 32-bit value, so
    the first call begins with a buffered half.  Returns whether each call
    began with one.
    """
    sequencer = Sequencer(model, seed=seed)
    reference = ReferenceSequencer(model, seed=seed)
    if half_first:
        for rng in (sequencer._rng, reference._rng):
            rng.integers(0, 2**32, dtype=np.uint32)
    began_with_half = []
    for read_count in read_counts:
        began_with_half.append(sequencer._rng.bit_generator.state["has_uint32"] == 1)
        got = sequencer.sequence(pool, read_count)
        want = reference.sequence(pool, read_count)
        assert read_triples(got) == read_triples(want)
        assert_same_position(sequencer._rng, reference._rng)
    return began_with_half


def chunk_reads(length):
    """Reads of one length drawn per ``random_raw`` call."""
    return max(1, sequencing._CHUNK_WORDS // (4 * length + 2))


class TestSequencerMatchesReference:
    def test_repeated_calls_carry_the_buffered_half(self):
        # The list shuffle draws 32-bit values, so a later call can start
        # with a buffered half, which shifts every read's random bases.
        repeat_calls = []
        for seed in range(8):
            began_with_half = assert_same_runs(
                ErrorModel(substitution_rate=0.05, insertion_rate=0.02, deletion_rate=0.02),
                MIXED_POOL,
                (120, 37, 64),
                seed,
            )
            assert not began_with_half[0]
            repeat_calls.extend(began_with_half[1:])
        assert True in repeat_calls and False in repeat_calls

    @pytest.mark.parametrize("model", ERROR_MODELS, ids=repr)
    @pytest.mark.parametrize("half_first", [False, True])
    def test_every_error_model(self, model, half_first):
        began_with_half = assert_same_runs(
            model, MIXED_POOL, (90, 41, 75), seed=3, half_first=half_first
        )
        assert began_with_half[0] == half_first

    @pytest.mark.parametrize("chunk_words", [None, 1, 600, 2000])
    def test_read_counts_across_chunk_boundaries(self, monkeypatch, chunk_words):
        # ``None`` keeps the module's chunk size; the others put boundaries
        # inside and between species of every length, one read per chunk
        # included.
        if chunk_words is not None:
            monkeypatch.setattr(sequencing, "_CHUNK_WORDS", chunk_words)
        size = chunk_reads(146)
        read_count = 2 * size + 17
        assert size == 1 or read_count % size
        pool = make_pool([(146, 8.0), (147, 1.0), (146, 0.0), (20, 1.0), (146, 1.0)])
        assert_same_runs(
            ErrorModel.nanopore(),
            pool,
            (read_count, read_count // 3, 5),
            seed=9,
            half_first=True,
        )
        assert_same_runs(ErrorModel(), MIXED_POOL, (read_count, 3, read_count), seed=10)

    @pytest.mark.parametrize(
        "rate",
        sorted(
            {
                rate
                for model in ERROR_MODELS
                for rate in (
                    model.substitution_rate,
                    model.insertion_rate,
                    model.deletion_rate,
                )
            }
            | {2.0**-53, 1 / 3, 0.5, 1 - 2.0**-53}
        ),
    )
    def test_word_threshold_matches_the_double_formula(self, rate):
        # ``Generator.random`` maps a raw word w to (w >> 11) * 2**-53.
        threshold = sequencing._word_threshold(rate)
        assert threshold < 2**64
        if threshold:
            assert ((threshold - 1) >> 11) * 2.0**-53 < rate
        assert not (threshold >> 11) * 2.0**-53 < rate

    def test_pcg64_draws_map_raw_words(self):
        # The precondition of the bulk path: doubles are a word's top 53
        # bits, and integers(0, 4) takes 32-bit halves, low half first.
        rng = np.random.default_rng(77)
        raw = np.random.default_rng(77).bit_generator
        doubles = rng.random(5)
        words = raw.random_raw(5)
        assert doubles.tolist() == ((words >> 11) * 2.0**-53).tolist()
        codes = rng.integers(0, 4, size=7)
        words = raw.random_raw(4).tolist()
        halves = [half for word in words for half in (word & 0xFFFFFFFF, word >> 32)]
        assert codes.tolist() == [half >> 30 for half in halves[:7]]
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state["uinteger"] == halves[7]


# ----------------------------------------------------------------------
# Pinned readout
# ----------------------------------------------------------------------


def readout_crc(pcr_config):
    """CRC32 and count of the reads of one seeded readout of a small store."""
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus({"obj-0": block_size * 2, "obj-1": block_size * 3}, seed=7)
    for name, data in corpus.items():
        store.put(name, data)
    store.update("obj-1", 5, b"PIN-PATCH")
    readout = WetlabReadout(
        store.volume, pcr_config=pcr_config, reads_per_block=100, seed=11
    )
    reads = readout.unit_reads_by_partition(store.read_plan("obj-1"), batch_seed=3)
    crc = 0
    count = 0
    for partition, partition_reads in reads.items():
        crc = zlib.crc32(partition.encode("ascii"), crc)
        for read in partition_reads:
            crc = zlib.crc32(read.encode("ascii") + b"\n", crc)
            count += 1
    return crc, count


#: CRC32 of the pinned readout's reads, recorded from the per-cycle PCR
#: and the per-base error channel (the reference models above).
PIN_DEFAULT = 49882492
PIN_TOUCHDOWN = 3830341608


class TestPinnedReadout:

    def test_default_reaction(self):
        assert readout_crc(None) == (PIN_DEFAULT, 300)

    def test_touchdown_reaction_with_residual_primer(self):
        assert readout_crc(PCRConfig.touchdown()) == (PIN_TOUCHDOWN, 300)
