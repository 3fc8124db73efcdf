"""Wetlab readout of a batched read plan: synthesis → PCR → sequencing.

This is the physical half of the serving read path.  The scheduler's
merged :class:`repro.store.planner.BatchReadPlan` names the PCR accesses a
cycle must run; :class:`WetlabReadout` executes them against simulated
molecular pools — one synthesized pool per partition, amplified per access
with the plan's elongated primers, then sampled into noisy sequencing
reads — so a serving simulation can decode *actual reads* instead of
consulting the digital reference (see ``fidelity="wetlab"`` on
:class:`repro.service.ServicePipeline`).

A plan is executed as independent per-partition-access
:class:`ReadoutUnit` s: each unit amplifies and sequences one access and
can run on its own thermocycler/flow-cell lane, so the serving pipeline
schedules units of the same cycle concurrently onto a bounded lane pool.
:meth:`WetlabReadout.unit_reads_by_partition` runs every unit of a plan.

Everything is deterministic per seed: synthesis skew is seeded per
partition (stable in the partition's name), sequencing sampling per
``(batch, access)`` — independent of lane assignment, so the sampled
reads are identical for any lane count.

Requires numpy (the sequencing sampler); the serving layer only imports
this module when wetlab fidelity is requested.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.exceptions import WetlabError
from repro.wetlab.errors import ErrorModel
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.pool import MolecularPool
from repro.wetlab.sequencing import Sequencer
from repro.wetlab.synthesis import SynthesisVendor, synthesize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.planner import BatchReadPlan, PcrAccess
    from repro.store.volume import DnaVolume


@dataclass(frozen=True)
class ReadoutUnit:
    """One independently executable slice of a wetlab cycle.

    A unit is one planned PCR access — one partition's merged block range
    amplified with its multiplexed elongated primers and sequenced at the
    unit's own depth.  Units of the same cycle are independent (distinct
    reactions, distinct sequencing samples) and may run concurrently on
    separate lanes.

    Attributes:
        access: the planned PCR access the unit executes.
        access_index: the access's position in its plan (part of the
            sequencing sampling seed, so unit identity — not lane or
            execution order — decides the sampled reads).
        label: name recorded on the amplified pool (diagnostics only).
    """

    access: "PcrAccess"
    access_index: int
    label: str = "readout"

    @property
    def partition(self) -> str:
        """The partition the unit amplifies."""
        return self.access.partition

    @property
    def block_count(self) -> int:
        """Blocks retrieved by the unit's access."""
        return self.access.block_count

    def wetlab_hours(
        self,
        *,
        pcr_hours: float,
        sequencing_hours: "Callable[[int], float]",
        reads_per_block: int,
    ) -> float:
        """Lane occupancy of the unit: its PCR stage plus its sequencing.

        This is the duration the serving pipeline books on a shared lane
        when it hands the unit to the
        :class:`~repro.service.scheduler_qos.SharedLanePool` — the unit
        is the common currency between the wetlab model (what physically
        runs) and the lane scheduler (when it runs).
        """
        if pcr_hours < 0:
            raise WetlabError("pcr_hours must be non-negative")
        if reads_per_block <= 0:
            raise WetlabError("reads_per_block must be positive")
        return pcr_hours + sequencing_hours(self.block_count * reads_per_block)


def plan_units(plan: "BatchReadPlan") -> list[ReadoutUnit]:
    """The independently executable :class:`ReadoutUnit` s of one plan.

    Pure plan geometry — no pools, no numpy — so both halves of the
    serving path share it: the lane scheduler books one unit per access
    onto the shared pool, and :class:`WetlabReadout` executes the same
    units when the cycle physically runs.
    """
    return [
        ReadoutUnit(
            access=access,
            access_index=access_index,
            label=f"{access.partition}-{plan.object_name}",
        )
        for access_index, access in enumerate(plan.accesses)
    ]


class WetlabReadout:
    """Runs read plans through simulated synthesis, PCR and sequencing.

    Args:
        volume: the volume whose partitions back the plans.
        vendor: synthesis vendor profile (default: Twist, Section 6.1).
        error_model: IDS channel applied to every sequencing read.
        pcr_config: reaction parameters of each precise access (default:
            a 15-cycle exact-primer protocol with the simulator's standard
            mispriming behaviour).
        reads_per_block: sequencing reads sampled per planned block — the
            coverage budget for the block and its update slots (the paper
            decodes a block from few precise reads, Section 7.3).
        seed: base RNG seed; all synthesis and sequencing randomness
            derives deterministically from it.
    """

    def __init__(
        self,
        volume: "DnaVolume",
        *,
        vendor: SynthesisVendor | None = None,
        error_model: ErrorModel | None = None,
        pcr_config: PCRConfig | None = None,
        reads_per_block: int = 30,
        seed: int = 0,
    ) -> None:
        if reads_per_block <= 0:
            raise WetlabError("reads_per_block must be positive")
        self.volume = volume
        self.vendor = vendor or SynthesisVendor.twist()
        self.error_model = error_model or ErrorModel()
        self.pcr_config = pcr_config or PCRConfig()
        self.reads_per_block = reads_per_block
        self.seed = seed
        self._pcr = PCRSimulator(self.pcr_config)
        self._pools: dict[str, MolecularPool] = {}

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------
    def partition_pool(self, name: str) -> MolecularPool:
        """The synthesized pool of one partition (built once, then cached).

        The pool holds every strand of the partition — all written blocks
        and their update slots — with vendor skew applied.  Call
        :meth:`reset_pool` (or :meth:`reset_pools`) after mutating the
        store (new objects, updates) so the next readout re-synthesizes.
        """
        pool = self._pools.get(name)
        if pool is None:
            molecules = self.volume.partition(name).all_molecules()
            pool = synthesize(
                molecules,
                self.vendor,
                seed=self.seed + (zlib.crc32(name.encode("utf-8")) & 0xFFFF),
                pool_name=name,
            )
            self._pools[name] = pool
        return pool

    def reset_pool(self, name: str) -> None:
        """Drop one partition's cached pool (its contents changed).

        The serving pipeline calls this when a committed write touches the
        partition, so only the affected pools pay a re-synthesis.
        """
        self._pools.pop(name, None)

    def reset_pools(self) -> None:
        """Drop every cached pool (the store's contents changed)."""
        self._pools.clear()

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def unit_reads(
        self,
        unit: ReadoutUnit,
        *,
        batch_seed: int = 0,
        reads_per_block: int | None = None,
    ) -> list[str]:
        """Amplify and sequence one unit, returning its sampled reads.

        Args:
            unit: the unit to execute.
            batch_seed: per-cycle seed component (e.g. the batch id), so
                distinct cycles — including retry cycles, which carry
                fresh batch ids — run fresh PCR and sample fresh reads.
            reads_per_block: coverage override (retry cycles sequence
                deeper); defaults to the engine's budget.
        """
        depth = self.reads_per_block if reads_per_block is None else reads_per_block
        if depth <= 0:
            raise WetlabError("reads_per_block must be positive")
        access = unit.access
        partition = self.volume.partition(access.partition)
        pool = self.partition_pool(access.partition)
        amplified = self._pcr.amplify(
            pool,
            list(access.primers),
            partition.config.primers.reverse,
            residual_forward_primer=partition.config.primers.forward,
            name=unit.label,
        )
        sequencer = Sequencer(
            self.error_model,
            seed=self.seed * 1_000_003 + batch_seed * 8191 + unit.access_index,
        )
        result = sequencer.sequence(amplified, access.block_count * depth)
        return result.sequences()

    def unit_reads_by_partition(
        self,
        plan: "BatchReadPlan",
        *,
        batch_seed: int = 0,
        reads_per_block: int | None = None,
    ) -> dict[str, list[str]]:
        """Sequencing reads of every access of a plan, per partition.

        Each partition's list concatenates its units' reads in access
        order — exactly the readout
        :meth:`~repro.store.object_store.ObjectStore.try_decode_blocks`
        decodes per partition, so the clustering pass sees the same reads
        in the same order however many wetlab lanes are in play.
        Per-unit randomness is seeded by ``(wetlab seed, batch_seed,
        access index)``, never by execution order.

        Args:
            plan: the merged read plan of one wetlab cycle.
            batch_seed: per-cycle seed component (e.g. the batch id), so
                distinct cycles sample distinct reads deterministically.
            reads_per_block: optional per-cycle coverage override.
        """
        reads_by_partition: dict[str, list[str]] = {}
        for unit in plan_units(plan):
            reads_by_partition.setdefault(unit.partition, []).extend(
                self.unit_reads(
                    unit, batch_seed=batch_seed, reads_per_block=reads_per_block
                )
            )
        return reads_by_partition


__all__ = ["ReadoutUnit", "WetlabReadout", "plan_units"]
