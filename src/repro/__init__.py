"""repro — block semantics and data updates in DNA storage.

A full reproduction of *"Efficiently Enabling Block Semantics and Data
Updates in DNA Storage"* (MICRO 2023): the PCR-navigable index tree,
block-granular random and sequential access with elongated primers,
versioned updates logged as DNA patches, plus every substrate the paper
relies on (encoding stack with Reed-Solomon ECC, primer design, a wetlab
channel simulator, and the clustering / trace-reconstruction / decoding
pipeline).

Quickstart::

    from repro import (
        Partition, PartitionConfig, PrimerPair, UpdatePatch, BlockDecoder,
    )

    pair = PrimerPair("ACGTACGTACGTACGTACGT", "TGCATGCATGCATGCATGCA")
    partition = Partition(PartitionConfig(primers=pair, leaf_count=64))
    partition.write(b"hello, dna block storage" * 40)
    partition.update_block(0, UpdatePatch(0, 5, 0, b"HELLO"))
    primer = partition.primer_for_block(0)       # 31-base elongated primer
    molecules = partition.all_molecules()        # the synthesis order

See ``examples/`` for end-to-end scenarios including the simulated wetlab
round trip, and ``benchmarks/`` for the scripts that regenerate every
figure and headline number of the paper's evaluation.
"""

from repro.codec.backend import CodecBackend, available_backends, get_backend
from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.codec.molecule import Molecule, MoleculeLayout
from repro.codec.reed_solomon import ReedSolomonCode
from repro.core.addressing import BlockAddress
from repro.core.capacity import PartitionCapacityModel
from repro.core.elongation import ElongatedPrimer, build_elongated_primer
from repro.core.index_tree import IndexTree
from repro.core.partition import Partition, PartitionConfig
from repro.core.pool_manager import DnaPoolManager
from repro.core.prefix_cover import prefix_cover_for_range
from repro.core.updates import ReplacementPatch, UpdatePatch
from repro.exceptions import DnaStorageError
from repro.pipeline.decoder import BlockDecoder, DecodeReport
from repro.primers.constraints import PrimerConstraints
from repro.primers.library import PrimerLibrary, PrimerPair, generate_primer_library
from repro.service import (
    BatchScheduler,
    DecodedBlockCache,
    RequestQueue,
    ServiceConfig,
    ServicePipeline,
    ServiceRequest,
    SynthesisOrder,
)
from repro.store import (
    BatchReadPlan,
    DnaVolume,
    Extent,
    ObjectRecord,
    ObjectStore,
    StoreSnapshot,
    VolumeConfig,
    VolumeSnapshot,
)
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.pool import MolecularPool

# Wetlab simulators need numpy; everything above runs without it.  These
# exports resolve lazily (PEP 562) so `import repro` works either way.
_LAZY_EXPORTS = {
    "ErrorModel": "repro.wetlab.errors",
    "Sequencer": "repro.wetlab.sequencing",
    "SequencingResult": "repro.wetlab.sequencing",
    "SynthesisVendor": "repro.wetlab.synthesis",
    "synthesize": "repro.wetlab.synthesis",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module_name), name)


__version__ = "1.2.0"

__all__ = [
    "BatchScheduler",
    "DecodedBlockCache",
    "RequestQueue",
    "ServiceConfig",
    "ServicePipeline",
    "ServiceRequest",
    "SynthesisOrder",
    "CodecBackend",
    "available_backends",
    "get_backend",
    "BatchReadPlan",
    "DnaVolume",
    "Extent",
    "ObjectRecord",
    "ObjectStore",
    "StoreSnapshot",
    "VolumeSnapshot",
    "VolumeConfig",
    "EncodingUnit",
    "UnitLayout",
    "Molecule",
    "MoleculeLayout",
    "ReedSolomonCode",
    "BlockAddress",
    "PartitionCapacityModel",
    "ElongatedPrimer",
    "build_elongated_primer",
    "IndexTree",
    "Partition",
    "PartitionConfig",
    "DnaPoolManager",
    "prefix_cover_for_range",
    "ReplacementPatch",
    "UpdatePatch",
    "DnaStorageError",
    "BlockDecoder",
    "DecodeReport",
    "PrimerConstraints",
    "PrimerLibrary",
    "PrimerPair",
    "generate_primer_library",
    "ErrorModel",
    "PCRConfig",
    "PCRSimulator",
    "MolecularPool",
    "Sequencer",
    "SequencingResult",
    "SynthesisVendor",
    "synthesize",
    "__version__",
]
