"""Signed genotype datasets.

GenDPR's threat model assumes "the trusted part of GenDPR is able to
detect whether a federation member has tampered with the genome data
... (e.g., by checking the authenticity of signed VCF files)".  This
module provides that substrate: :class:`SignedMatrix`, a binary genotype
matrix under an HMAC signature envelope that the trusted module verifies
before it uses any local dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.signing import MacSigner
from ..errors import AuthenticationError, DataIntegrityError
from .genotype import GenotypeMatrix


@dataclass(frozen=True)
class SignedMatrix:
    """A signed binary genotype dataset (the paper's signed VCF file).

    The signature covers a header binding the dimensions plus the raw
    row-major matrix bytes, so any change to the genotypes or to the
    claimed shape is detected.
    """

    num_individuals: int
    num_snps: int
    raw: bytes
    signature: bytes

    def _message(self) -> bytes:
        return (
            b"repro.signed-matrix/v1\x00"
            + self.num_individuals.to_bytes(8, "big")
            + self.num_snps.to_bytes(8, "big")
            + self.raw
        )

    @classmethod
    def create(cls, genotypes: GenotypeMatrix, signer: MacSigner) -> "SignedMatrix":
        unsigned = cls(
            num_individuals=genotypes.num_individuals,
            num_snps=genotypes.num_snps,
            raw=genotypes.to_bytes(),
            signature=b"",
        )
        return cls(
            num_individuals=unsigned.num_individuals,
            num_snps=unsigned.num_snps,
            raw=unsigned.raw,
            signature=signer.sign(unsigned._message()),
        )

    def open_verified(self, signer: MacSigner) -> GenotypeMatrix:
        """Verify the signature, then decode the matrix.

        Raises :class:`DataIntegrityError` on any tampering with the
        bytes or the claimed dimensions.
        """
        if (
            self.num_individuals <= 0
            or self.num_snps <= 0
            or len(self.raw) != self.num_individuals * self.num_snps
        ):
            raise DataIntegrityError("signed matrix header is inconsistent")
        try:
            signer.verify(self._message(), self.signature)
        except AuthenticationError as exc:
            raise DataIntegrityError(
                "matrix signature verification failed: dataset was modified"
            ) from exc
        return GenotypeMatrix.from_bytes(self.raw, self.num_snps)
