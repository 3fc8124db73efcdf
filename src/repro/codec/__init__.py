"""Binary <-> DNA codec substrate.

This package implements the encoding stack of the baseline architecture the
paper builds on (Organick et al., reproduced here from scratch):

* :mod:`repro.codec.randomizer` — seeded data randomization (whitening) so
  that unconstrained 2-bit-per-base coding avoids long homopolymers and
  unbalanced GC content with high probability.
* :mod:`repro.codec.binary_codec` — the unconstrained 2-bits-per-base
  mapping between bytes and DNA.
* :mod:`repro.codec.constrained` — constrained-coding predicates (GC window,
  homopolymer cap) used for primers and sparse indexes.
* :mod:`repro.codec.galois` — GF(2^m) arithmetic tables.
* :mod:`repro.codec.backend` — the batched codec: ``encode_units`` and
  ``decode_units`` run whole units on numpy kernels (whole-matrix encode,
  batched syndromes, shared-erasure solve), or on the scalar
  Reed-Solomon code under ``REPRO_FUSED_KERNELS=0`` or without numpy.
* :mod:`repro.codec.reed_solomon` — Reed-Solomon encoder/decoder with
  support for both errors and erasures.
* :mod:`repro.codec.matrix_unit` — the encoding-unit matrix layout of
  Figure 1c (k codewords by d data + e ECC molecules).
* :mod:`repro.codec.molecule` — assembly and parsing of full DNA strands
  (primers + sync base + index + payload).
"""

from repro.codec.binary_codec import bytes_to_dna, dna_to_bytes
from repro.codec.constrained import (
    is_gc_balanced,
    is_pcr_compatible,
    satisfies_homopolymer_limit,
)
from repro.codec.galois import GaloisField
from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.codec.molecule import Molecule, MoleculeLayout
from repro.codec.randomizer import Randomizer
from repro.codec.reed_solomon import ReedSolomonCode, reed_solomon_code

__all__ = [
    "reed_solomon_code",
    "bytes_to_dna",
    "dna_to_bytes",
    "is_gc_balanced",
    "is_pcr_compatible",
    "satisfies_homopolymer_limit",
    "GaloisField",
    "EncodingUnit",
    "UnitLayout",
    "Molecule",
    "MoleculeLayout",
    "Randomizer",
    "ReedSolomonCode",
]
