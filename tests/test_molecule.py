"""Tests for DNA strand assembly and parsing."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.molecule import Molecule, MoleculeLayout
from repro.exceptions import DecodingError, EncodingError

FORWARD = "ATCGTGCAAGCTTGACCTGA"
REVERSE = "CGTAGACTTGCAACTGGACT"


def make_molecule(**overrides):
    defaults = dict(
        forward_primer=FORWARD,
        reverse_primer=REVERSE,
        unit_index="ACGTACGTACG",
        intra_index=7,
        payload=bytes(range(24)),
    )
    defaults.update(overrides)
    return Molecule(**defaults)


class TestMoleculeLayout:
    def test_paper_strand_length(self):
        assert MoleculeLayout().strand_length == 150

    def test_payload_bytes(self):
        assert MoleculeLayout().payload_bytes == 24

    def test_addressable_prefix_length(self):
        # 20-base primer + 1 sync + 10 index + 1 slot base = 32.
        assert MoleculeLayout().addressable_prefix_bases == 32

    def test_invalid_primer_length(self):
        with pytest.raises(EncodingError):
            MoleculeLayout(primer_length=0)

    def test_payload_must_be_multiple_of_four(self):
        with pytest.raises(EncodingError):
            MoleculeLayout(payload_bases=97)

    def test_negative_field_rejected(self):
        with pytest.raises(EncodingError):
            MoleculeLayout(sync_bases=-1)


class TestMolecule:
    def test_strand_length_matches_layout(self):
        assert len(make_molecule().to_strand()) == 150

    def test_roundtrip(self):
        molecule = make_molecule()
        assert Molecule.from_strand(molecule.to_strand()) == molecule

    def test_addressable_prefix(self):
        molecule = make_molecule()
        prefix = molecule.addressable_prefix
        assert prefix.startswith(FORWARD)
        assert prefix.endswith(molecule.unit_index)
        assert molecule.to_strand().startswith(prefix)

    def test_strand_ends_with_reverse_primer(self):
        assert make_molecule().to_strand().endswith(REVERSE)

    def test_wrong_primer_length_rejected(self):
        with pytest.raises(EncodingError):
            make_molecule(forward_primer="ACGT")

    def test_wrong_index_length_rejected(self):
        with pytest.raises(EncodingError):
            make_molecule(unit_index="ACGT")

    def test_intra_index_out_of_range(self):
        with pytest.raises(EncodingError):
            make_molecule(intra_index=16)

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(EncodingError):
            make_molecule(payload=b"abc")

    def test_invalid_strand_length_rejected(self):
        with pytest.raises(DecodingError):
            Molecule.from_strand("ACGT" * 10)

    @pytest.mark.parametrize("position", [0, 33, 60, 149])
    def test_base_outside_acgt_is_a_decoding_error(self, position):
        strand = list(make_molecule().to_strand())
        strand[position] = "N"
        with pytest.raises(DecodingError, match="invalid characters"):
            Molecule.from_strand("".join(strand))

    def test_custom_layout_roundtrip(self):
        layout = MoleculeLayout(
            primer_length=10,
            unit_index_bases=6,
            update_slot_bases=1,
            intra_index_bases=2,
            payload_bases=40,
        )
        molecule = Molecule(
            forward_primer="ACGTACGTAC",
            reverse_primer="TGCATGCATG",
            unit_index="ACGTACG",
            intra_index=3,
            payload=os.urandom(10),
            layout=layout,
        )
        assert Molecule.from_strand(molecule.to_strand(), layout) == molecule

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=15),
        st.binary(min_size=24, max_size=24),
        st.text(alphabet="ACGT", min_size=11, max_size=11),
    )
    def test_roundtrip_property(self, intra_index, payload, unit_index):
        molecule = make_molecule(
            intra_index=intra_index, payload=payload, unit_index=unit_index
        )
        assert Molecule.from_strand(molecule.to_strand()) == molecule
