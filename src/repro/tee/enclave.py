"""The enclave execution model.

An :class:`Enclave` is the simulation's unit of trust.  It mirrors the
SGX programming model the paper builds on:

* Untrusted host code interacts with the enclave **only** through
  registered ECALLs (:meth:`Enclave.ecall`); direct attribute access to
  trusted state from outside raises :class:`EnclaveViolationError` in
  audited runs (see :meth:`trusted_state_names`).
* Each enclave has a :class:`~repro.tee.measurement.Measurement`
  identifying its code, and a platform-bound root key from which sealing
  keys derive.
* All ECALL execution is metered by a
  :class:`~repro.tee.resources.ResourceMeter` so the benchmarks can
  reproduce the paper's CPU/memory table.

Subclasses implement trusted logic as ordinary methods decorated with
:func:`ecall`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Type, TypeVar

from ..crypto.authenticated import StreamAead
from ..crypto.kdf import derive_subkey
from ..crypto.rng import DeterministicRng, system_random_bytes
from ..errors import EnclaveCrashedError, EnclaveViolationError, TEEError
from ..obs.tracer import TRACER
from .measurement import Measurement, measure_class
from .resources import ResourceMeter

F = TypeVar("F", bound=Callable[..., Any])

_ECALL_ATTR = "_repro_ecall_name"


def ecall(func: F) -> F:
    """Mark a method as an ECALL entry point of its enclave class."""
    setattr(func, _ECALL_ATTR, func.__name__)
    return func


class Enclave:
    """Base class for simulated enclaves.

    Args:
        platform_key: secret root key of the hosting platform (models the
            CPU's fused key material).  Sealing keys are derived from it
            together with the enclave measurement.
        enclave_id: stable identifier of this enclave instance within the
            federation (e.g. ``"gdo-3"``).
        rng: deterministic RNG for reproducible runs; a system-entropy
            DRBG is created when omitted.
    """

    #: Bump to invalidate attestation of older trusted-code revisions.
    CODE_VERSION = "1"

    def __init__(
        self,
        platform_key: bytes,
        enclave_id: str,
        rng: Optional[DeterministicRng] = None,
    ):
        if len(platform_key) < 16:
            raise TEEError("platform key must be at least 16 bytes")
        if not enclave_id:
            raise TEEError("enclave_id must be non-empty")
        self.enclave_id = enclave_id
        self.measurement: Measurement = measure_class(
            type(self), version=self.CODE_VERSION
        )
        self.meter = ResourceMeter()
        self._crashed = False
        self._platform_key = platform_key
        self._rng = rng if rng is not None else DeterministicRng(
            system_random_bytes(32)
        )
        self._sealing_aead: Optional[StreamAead] = None
        self._ecalls = self._collect_ecalls()

    # -- ECALL machinery -------------------------------------------------------

    @classmethod
    def _collect_ecalls(cls) -> Dict[str, str]:
        names: Dict[str, str] = {}
        for klass in cls.__mro__:
            for attr_name, attr in vars(klass).items():
                ecall_name = getattr(attr, _ECALL_ATTR, None)
                if ecall_name is not None and ecall_name not in names:
                    names[ecall_name] = attr_name
        return names

    def ecall_names(self) -> Set[str]:
        """The ECALL surface exposed to untrusted code."""
        return set(self._ecalls)

    def ecall(self, name: str, *args: Any, label: str = "", **kwargs: Any) -> Any:
        """Invoke ECALL ``name``; execution time is metered under ``label``.

        This is the *only* legitimate entry into trusted code from the
        untrusted host.
        """
        if self._crashed:
            raise EnclaveCrashedError(f"enclave {self.enclave_id} has crashed")
        if name not in self._ecalls:
            raise EnclaveViolationError(
                f"{name!r} is not an ECALL of {type(self).__name__}"
            )
        method = getattr(self, self._ecalls[name])
        if TRACER.enabled:
            with TRACER.span(
                "ecall", enclave=self.enclave_id, ecall=name, label=label or name
            ), self.meter.measure(label or name):
                return method(*args, **kwargs)
        with self.meter.measure(label or name):
            return method(*args, **kwargs)

    def crash(self) -> None:
        """Tear the enclave down; all trusted state becomes unreachable.

        Models the paper's fault assumption ("as long as no TEE crashes"):
        after a crash every ECALL raises and secrets are destroyed.
        """
        self._crashed = True
        self._platform_key = b"\x00" * 32
        self._rng = DeterministicRng(b"crashed")
        self._sealing_aead = None

    @property
    def crashed(self) -> bool:
        return self._crashed

    # -- Keys ----------------------------------------------------------------

    def _sealing_key(self) -> bytes:
        """MRENCLAVE-policy sealing key: platform key x measurement."""
        if self._crashed:
            raise EnclaveCrashedError(f"enclave {self.enclave_id} has crashed")
        return derive_subkey(
            self._platform_key, "sealing/" + self.measurement.hex()
        )

    def _sealer(self) -> StreamAead:
        """The AEAD under :meth:`_sealing_key`, built on first use.

        Every seal and unseal of this enclave shares it, so no blob
        re-derives the sealing key and its subkeys.
        """
        if self._crashed:
            raise EnclaveCrashedError(f"enclave {self.enclave_id} has crashed")
        if self._sealing_aead is None:
            self._sealing_aead = StreamAead(self._sealing_key())
        return self._sealing_aead

    def random_bytes(self, length: int) -> bytes:
        """Trusted randomness (hardware DRNG analogue)."""
        return self._rng.bytes(length)

    # -- Auditing ----------------------------------------------------------------

    @classmethod
    def trusted_state_names(cls) -> Set[str]:
        """Attribute names that hold trusted state.

        The audit harness in :mod:`repro.core.audit` uses this to verify
        untrusted code never reads them directly.  Subclasses extend it.
        """
        return {"_platform_key", "_rng", "_sealing_aead"}


def expected_measurement(enclave_class: Type[Enclave]) -> Measurement:
    """The measurement attestation verifiers should demand for a class."""
    return measure_class(enclave_class, version=enclave_class.CODE_VERSION)


class GuardedEnclaveProxy:
    """Wraps an enclave so only the ECALL surface is reachable.

    The protocol hands untrusted components this proxy instead of the raw
    enclave object, turning the simulation's trust boundary into an
    enforced API boundary: attribute access other than ``ecall``/identity
    raises :class:`EnclaveViolationError`.

    An optional ``ecall_interceptor`` callable ``(enclave, name)`` runs
    before each proxied ECALL dispatch; the fault injector uses it to
    model enclave crashes at deterministic ECALL indices.  Without an
    interceptor the proxy returns the enclave's bound ``ecall`` method
    directly — the exact pre-interceptor fast path.
    """

    _ALLOWED = {"ecall", "enclave_id", "measurement", "meter", "crashed"}

    def __init__(
        self,
        enclave: Enclave,
        ecall_interceptor: Optional[Callable[[Enclave, str], None]] = None,
    ):
        object.__setattr__(self, "_enclave", enclave)
        object.__setattr__(self, "_ecall_interceptor", ecall_interceptor)

    def __getattr__(self, name: str) -> Any:
        if name in self._ALLOWED:
            enclave = object.__getattribute__(self, "_enclave")
            if name == "ecall":
                interceptor = object.__getattribute__(self, "_ecall_interceptor")
                if interceptor is not None:
                    def intercepted(
                        ecall_name: str, *args: Any, **kwargs: Any
                    ) -> Any:
                        interceptor(enclave, ecall_name)
                        return enclave.ecall(ecall_name, *args, **kwargs)

                    return intercepted
            return getattr(enclave, name)
        raise EnclaveViolationError(
            f"untrusted access to enclave attribute {name!r} denied"
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise EnclaveViolationError("untrusted code cannot mutate enclave state")


def guarded(
    enclave: Enclave,
    ecall_interceptor: Optional[Callable[[Enclave, str], None]] = None,
) -> GuardedEnclaveProxy:
    """Convenience constructor for :class:`GuardedEnclaveProxy`."""
    return GuardedEnclaveProxy(enclave, ecall_interceptor)
