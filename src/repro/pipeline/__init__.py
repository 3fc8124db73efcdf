"""Readout pipeline: from noisy sequencing reads back to block contents.

The pipeline follows the decoding procedure of Section 8:

1. :mod:`repro.pipeline.reads` — locate the (possibly elongated) forward
   primer and the reverse primer in each read and extract the payload
   between them; discard reads that do not carry the expected prefix.
2. :mod:`repro.pipeline.clustering` — cluster reads so that each cluster
   ideally contains the noisy copies of one original strand (address-keyed
   buckets refined by edit-distance agglomeration, after Rashtchian et al.).
3. :mod:`repro.pipeline.consensus` — reconstruct the original strand of
   each cluster with a double-sided bitwise-majority-alignment (BMA) trace
   reconstruction (after Lin et al.).
4. :mod:`repro.pipeline.decoder` — assemble reconstructed strands into
   encoding units, run Reed-Solomon correction, apply update patches, and
   handle mispriming (duplicate-address candidates) as described in
   Section 8.1.
"""

from repro.pipeline.clustering import ReadCluster, cluster_reads
from repro.pipeline.consensus import double_sided_bma, majority_consensus
from repro.pipeline.decoder import BlockDecoder, DecodeReport
from repro.pipeline.reads import extract_region, find_primer_end, reads_with_prefix

__all__ = [
    "ReadCluster",
    "cluster_reads",
    "double_sided_bma",
    "majority_consensus",
    "BlockDecoder",
    "DecodeReport",
    "extract_region",
    "find_primer_end",
    "reads_with_prefix",
]
