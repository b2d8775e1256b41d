"""TEE data sealing.

GenDPR uses the TEE's sealing mechanism "to store data persistently
outside the TEE.  Sealed data can only be encrypted/decrypted by the
enclave using its private key" (Section 4).  The simulation implements
MRENCLAVE-policy sealing: the sealing key is derived from the platform
root key and the enclave measurement, so

* the same enclave code on the same platform can unseal its own blobs,
* a different enclave (different measurement) on the same platform
  cannot, and
* the same enclave code on a different platform cannot either.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AuthenticationError, SealingError
from .enclave import Enclave

_SEAL_MAGIC = b"RSEAL1"


@dataclass(frozen=True)
class SealedBlob:
    """An opaque sealed payload, safe to store on untrusted media.

    ``context`` is authenticated-but-clear metadata bound into the AAD
    alongside the label — e.g. the monotonic checkpoint epoch a restore
    compares against the platform rollback counter *before* unsealing.
    Tampering with it fails authentication like any other mismatch.
    """

    data: bytes
    label: str
    context: bytes = b""

    def __len__(self) -> int:
        return len(self.data)


def _associated_data(label: str, context: bytes) -> bytes:
    encoded_label = label.encode("utf-8")
    # Length-prefix the label so (label, context) pairs cannot collide
    # across a moved boundary.
    return (
        _SEAL_MAGIC
        + len(encoded_label).to_bytes(2, "big")
        + encoded_label
        + context
    )


def seal(
    enclave: Enclave, plaintext: bytes, label: str = "", context: bytes = b""
) -> SealedBlob:
    """Seal ``plaintext`` to ``enclave``'s identity.

    ``label`` (and ``context``, if any) is bound as associated data:
    unsealing under a different label or context fails, preventing
    blob-swapping between storage slots.
    """
    frame = enclave._sealer().encrypt(
        plaintext, associated_data=_associated_data(label, context)
    )
    return SealedBlob(data=_SEAL_MAGIC + frame, label=label, context=context)


def unseal(enclave: Enclave, blob: SealedBlob) -> bytes:
    """Unseal a blob; raises :class:`SealingError` on any mismatch."""
    if not blob.data.startswith(_SEAL_MAGIC):
        raise SealingError("not a sealed blob")
    aead = enclave._sealer()
    try:
        return aead.decrypt(
            blob.data[len(_SEAL_MAGIC) :],
            associated_data=_associated_data(blob.label, blob.context),
        )
    except AuthenticationError as exc:
        raise SealingError(
            "unsealing failed: wrong enclave identity, platform, label "
            "or context"
        ) from exc
