"""Cycle-by-cycle PCR simulation with mispriming and primer overwrite.

The simulator models the mechanisms the paper identifies as relevant for
precise block access (Sections 3.2, 7.2, 8.1):

* **Exponential amplification** of strands whose prefix matches the forward
  primer and whose suffix matches the reverse primer, at a per-cycle
  efficiency below the theoretical doubling.
* **Mispriming**: a primer can anneal to a strand whose prefix is *close*
  (in edit distance) to the primer; the probability decays per unit of
  distance.  Crucially, the product of such an event carries the primer's
  sequence — the strand's index is overwritten (Section 8.1) — so the
  misprimed product amplifies at full efficiency in later cycles while
  retaining the foreign payload.  This is what produces the "handful of
  other blocks" visible in Figure 9b.
* **Residual primers**: leftover main (non-elongated) primers carried over
  from a previous amplification keep amplifying the whole partition at some
  lower activity, producing the ~18% of off-prefix reads the paper reports
  discarding.
* **Touchdown PCR**: higher annealing temperatures in the early cycles
  suppress mispriming; the paper uses 10 touchdown cycles followed by 18
  regular cycles (Section 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.elongation import ElongatedPrimer
from repro.exceptions import PCRError
from repro.sequence import levenshtein_distance
from repro.wetlab.pool import MolecularPool


@dataclass(frozen=True)
class PCRConfig:
    """Reaction parameters for a simulated PCR.

    Attributes:
        cycles: number of thermal cycles.
        max_efficiency: per-cycle amplification efficiency of a perfectly
            matched primer pair (1.0 would be ideal doubling).
        mismatch_penalty: multiplicative annealing penalty per unit of edit
            distance between a primer and the strand prefix it anneals to.
        max_mispriming_distance: strands whose prefix is farther than this
            from the primer never anneal.
        residual_primer_efficiency: per-cycle efficiency of leftover main
            primers that amplify every strand of the partition regardless of
            the elongation (0 disables the effect).
        overwrite_prefix: if True, misprimed products take the primer's own
            sequence as their new prefix (index overwrite, Section 8.1).
        touchdown_cycles: number of initial high-stringency cycles.
        touchdown_mispriming_factor: multiplier applied to mispriming
            efficiency during the touchdown cycles (0 = no mispriming while
            touching down).
    """

    cycles: int = 15
    max_efficiency: float = 0.95
    mismatch_penalty: float = 0.30
    max_mispriming_distance: int = 5
    residual_primer_efficiency: float = 0.0
    overwrite_prefix: bool = True
    touchdown_cycles: int = 0
    touchdown_mispriming_factor: float = 0.1

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise PCRError("cycles must be positive")
        if not 0.0 < self.max_efficiency <= 1.0:
            raise PCRError("max_efficiency must be in (0, 1]")
        if not 0.0 <= self.mismatch_penalty < 1.0:
            raise PCRError("mismatch_penalty must be in [0, 1)")
        if self.max_mispriming_distance < 0:
            raise PCRError("max_mispriming_distance must be non-negative")
        if self.residual_primer_efficiency < 0:
            raise PCRError("residual_primer_efficiency must be non-negative")
        if self.touchdown_cycles < 0 or self.touchdown_cycles > self.cycles:
            raise PCRError("touchdown_cycles must be in [0, cycles]")

    @classmethod
    def preamplification(cls, cycles: int = 15) -> "PCRConfig":
        """The paper's 15-cycle main-primer pre-amplification (Section 6.4.2)."""
        return cls(cycles=cycles, residual_primer_efficiency=0.0)

    @classmethod
    def touchdown(
        cls,
        *,
        touchdown_cycles: int = 10,
        regular_cycles: int = 18,
        residual_primer_efficiency: float = 0.52,
        mismatch_penalty: float = 0.38,
    ) -> "PCRConfig":
        """The paper's touchdown protocol for precise block access (Section 6.5).

        The default residual-primer activity and mismatch penalty are
        calibrated so that the read composition of the wetlab experiment
        (Figure 9b: ~18% leftover-primer reads, ~59% on-target among
        prefix-matching reads) emerges for the Alice-scale partition.
        """
        return cls(
            cycles=touchdown_cycles + regular_cycles,
            touchdown_cycles=touchdown_cycles,
            residual_primer_efficiency=residual_primer_efficiency,
            mismatch_penalty=mismatch_penalty,
        )


@dataclass(frozen=True)
class _PrimerBinding:
    """How one forward primer misprimes on one species it does not match.

    ``product`` is the species the misprimed copies add to: the strand with
    its prefix overwritten by the primer, or the strand itself.
    """

    mispriming_efficiency: float
    product: str


@dataclass(frozen=True)
class _StrandClass:
    """How a species amplifies in every cycle of one reaction.

    A strand's sequence and the reaction's primers never change between
    cycles, so neither does this.  ``misprimes`` holds the bindings with a
    positive efficiency, in primer order.  ``self_gain`` is the strand's
    own per-cycle gain per copy: the maximum efficiency for an exact strand
    (a primer prefix and the reverse suffix), else the residual main
    primer's efficiency capped at that maximum, or 0.
    """

    misprimes: tuple[_PrimerBinding, ...]
    self_gain: float


class PCRSimulator:
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

    def _mispriming_efficiency(self, footprint: str, forward: str) -> float:
        """Per-cycle efficiency of a forward primer annealing to a footprint.

        The footprint is the strand prefix the primer lands on; 0.0 means it
        is farther than ``max_mispriming_distance`` from the primer.  The
        two share most of their bases — every strand of a partition starts
        with its main primer, and an elongated primer is that primer plus
        address bases — and a shared prefix never changes an edit distance,
        so only the bases after it are compared.
        """
        config = self.config
        shared = 0
        limit = len(footprint)
        while shared < limit and footprint[shared] == forward[shared]:
            shared += 1
        distance = levenshtein_distance(
            footprint[shared:],
            forward[shared:],
            upper_bound=config.max_mispriming_distance,
        )
        if distance > config.max_mispriming_distance:
            return 0.0
        return config.max_efficiency * (config.mismatch_penalty ** distance)

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

        config = self.config
        max_gain = config.max_efficiency
        residual_efficiency = config.residual_primer_efficiency
        residual_primer = residual_forward_primer if residual_efficiency > 0.0 else None
        exact_prefixes = tuple(forward_sequences)

        # A strand's binding behaviour cannot change from one cycle to the
        # next, so each species is classified once per reaction, on the
        # first cycle it has copies.  Products created by prefix overwrite
        # start with their primer, so they classify as exact.  Strands of
        # one block share their footprint, so each (footprint, primer)
        # efficiency is computed once per reaction too.
        classes: dict[str, _StrandClass] = {}
        efficiencies: dict[tuple[str, str], float] = {}

        def classify(strand: str) -> _StrandClass:
            if not strand.endswith(reverse_primer):
                return _StrandClass(misprimes=(), self_gain=0.0)
            if strand.startswith(exact_prefixes):
                return _StrandClass(misprimes=(), self_gain=max_gain)
            misprimes = []
            for fwd in forward_sequences:
                key = (strand[: len(fwd)], fwd)
                efficiency = efficiencies.get(key)
                if efficiency is None:
                    efficiency = efficiencies[key] = self._mispriming_efficiency(*key)
                if efficiency > 0.0:
                    product = strand
                    if config.overwrite_prefix:
                        product = fwd + strand[len(fwd):]
                    misprimes.append(
                        _PrimerBinding(mispriming_efficiency=efficiency, product=product)
                    )
            self_gain = 0.0
            # Residual main primers amplify everything in the partition.
            if residual_primer is not None and strand.startswith(residual_primer):
                self_gain = residual_efficiency
            # Per-cycle gain of any single template is physically capped at
            # one additional copy per existing copy (doubling), no matter
            # how many primers can bind it.
            return _StrandClass(
                misprimes=tuple(misprimes), self_gain=min(self_gain, max_gain)
            )

        for cycle in range(config.cycles):
            in_touchdown = cycle < config.touchdown_cycles
            misprime_factor = (
                config.touchdown_mispriming_factor if in_touchdown else 1.0
            )
            additions: dict[str, float] = {}
            new_products: dict[str, dict] = {}
            for strand, copies in result.species.items():
                if copies <= 0.0:
                    continue
                strand_class = classes.get(strand)
                if strand_class is None:
                    strand_class = classes[strand] = classify(strand)
                for binding in strand_class.misprimes:
                    gain = copies * binding.mispriming_efficiency * misprime_factor
                    if gain <= 0.0:
                        continue
                    product = binding.product
                    additions[product] = additions.get(product, 0.0) + gain
                    if product not in result.species and product not in new_products:
                        source_meta = dict(result.annotations(strand))
                        source_meta["misprimed"] = True
                        new_products[product] = source_meta
                if strand_class.self_gain > 0.0:
                    additions[strand] = (
                        additions.get(strand, 0.0) + copies * strand_class.self_gain
                    )
            for strand, gain in additions.items():
                result.species[strand] = result.species.get(strand, 0.0) + gain
            for strand, meta in new_products.items():
                if meta:
                    result.metadata.setdefault(strand, {}).update(meta)
        return result
