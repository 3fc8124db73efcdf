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

:meth:`PCRSimulator.amplify` requires numpy: each cycle is one array pass
over the reaction's contribution table.  :class:`PCRConfig` and the
simulator itself stay importable without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.elongation import ElongatedPrimer
from repro.exceptions import PCRError
from repro.sequence import bounded_edit_distance
from repro.wetlab.pool import MolecularPool

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # The configs stay importable; only PCRSimulator.amplify needs numpy.


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
        distance = bounded_edit_distance(
            footprint[shared:], forward[shared:], config.max_mispriming_distance
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

        Raises:
            PCRError: without numpy, or without a forward primer.
        """
        if np is None:
            raise PCRError("PCR simulation requires numpy")
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

        # Strands of one block share their footprint, so each (footprint,
        # primer) efficiency is computed once per reaction.
        efficiencies: dict[tuple[str, str], float] = {}
        inert = _StrandClass(misprimes=(), self_gain=0.0)
        exact = _StrandClass(misprimes=(), self_gain=max_gain)

        def classify(strand: str) -> _StrandClass:
            if not strand.endswith(reverse_primer):
                return inert
            if strand.startswith(exact_prefixes):
                return exact
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

        # A strand's binding behaviour cannot change from one cycle to the
        # next, so the reaction is one table of (source, target, per-copy
        # gain) contributions, listed in the order a cycle visits them:
        # species in pool order, each with its misprimes in primer order and
        # then its own gain.  The loop appends each product missing from
        # the input pool to ``strands`` and reaches it after every pooled
        # species, so the products' own gains close the table: a product
        # carries its primer as its prefix, so it never misprimes.
        strands = list(result.species)
        pooled = len(strands)
        slot_of = {strand: slot for slot, strand in enumerate(strands)}
        rows: list[tuple[int, int, float, bool]] = []
        for slot, strand in enumerate(strands):
            strand_class = classify(strand)
            for binding in strand_class.misprimes:
                target = slot_of.get(binding.product)
                if target is None:
                    target = slot_of[binding.product] = len(strands)
                    strands.append(binding.product)
                rows.append((slot, target, binding.mispriming_efficiency, True))
            if strand_class.self_gain > 0.0:
                rows.append((slot, slot, strand_class.self_gain, False))
        if not rows:
            return result
        source, target, gain_per_copy, misprimed = (
            np.array(column) for column in zip(*rows)
        )
        touchdown_factor = np.where(misprimed, config.touchdown_mispriming_factor, 1.0)

        copies = np.zeros(len(strands))
        copies[:pooled] = list(result.species.values())
        in_pool = np.arange(len(strands)) < pooled
        # (product slot, first contributing source slot), in pool order.
        entries: list[tuple[int, int]] = []
        for cycle in range(config.cycles):
            source_copies = copies[source]
            gains = source_copies * gain_per_copy
            if cycle < config.touchdown_cycles:
                gains *= touchdown_factor
            kept = ~((source_copies <= 0.0) | (gains <= 0.0))
            # ``np.add.at`` is unbuffered and runs in table order, so a
            # target fed several times in one cycle sums its gains in the
            # order the cycle visits them, from 0.0, before they join its
            # copies: the same float sums as a per-species loop.
            additions = np.zeros_like(copies)
            np.add.at(additions, target[kept], gains[kept])
            if len(entries) < len(strands) - pooled:
                # A product enters the pool in the cycle of its first kept
                # contribution, in the order of those contributions.
                fresh = np.flatnonzero(kept & ~in_pool[target])
                _, first = np.unique(target[fresh], return_index=True)
                first_rows = fresh[np.sort(first)]
                in_pool[target[first_rows]] = True
                entries.extend(
                    zip(target[first_rows].tolist(), source[first_rows].tolist())
                )
            copies += additions

        values = copies.tolist()
        result.species.update(zip(strands[:pooled], values))
        for slot, source_slot in entries:
            product = strands[slot]
            result.species[product] = values[slot]
            meta = dict(result.annotations(strands[source_slot]))
            meta["misprimed"] = True
            result.metadata.setdefault(product, {}).update(meta)
        return result
