"""Enclave model: measurement, ECALL boundary, crash, guarded proxy."""

from __future__ import annotations

import pytest

from repro.errors import (
    EnclaveCrashedError,
    EnclaveViolationError,
    MeasurementError,
    TEEError,
)
from repro.tee.enclave import Enclave, ecall, expected_measurement, guarded
from repro.tee.measurement import (
    MEASUREMENT_SIZE,
    Measurement,
    measure_blob,
    measure_class,
)

_KEY = bytes(range(32))


class CounterEnclave(Enclave):
    """Minimal enclave with one ECALL and one private method."""

    def __init__(self, platform_key=_KEY, enclave_id="counter"):
        super().__init__(platform_key, enclave_id)
        self._count = 0

    @ecall
    def bump(self, amount: int = 1) -> int:
        self._count += amount
        return self._count

    def not_an_ecall(self) -> str:
        return "secret"


class OtherEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        return None


class TestMeasurement:
    def test_size_and_repr(self):
        m = measure_class(CounterEnclave)
        assert len(m.value) == MEASUREMENT_SIZE
        assert "Measurement(" in repr(m)

    def test_same_class_same_measurement(self):
        assert measure_class(CounterEnclave) == measure_class(CounterEnclave)

    def test_distinct_classes_distinct_measurements(self):
        assert measure_class(CounterEnclave) != measure_class(OtherEnclave)

    def test_version_changes_measurement(self):
        assert measure_class(CounterEnclave, "1") != measure_class(
            CounterEnclave, "2"
        )

    def test_blob_measurement(self):
        assert measure_blob(b"code") == measure_blob(b"code")
        assert measure_blob(b"code") != measure_blob(b"code2")
        assert measure_blob(b"code", "1") != measure_blob(b"code", "2")

    def test_bad_measurement_size_rejected(self):
        with pytest.raises(MeasurementError):
            Measurement(b"short")

    def test_matches_is_constant_time_equality(self):
        assert measure_blob(b"code").matches(measure_blob(b"code"))
        assert not measure_blob(b"code").matches(measure_blob(b"tampered"))

    def test_expected_measurement_matches_instance(self):
        enclave = CounterEnclave()
        assert enclave.measurement == expected_measurement(CounterEnclave)


class TestEcallBoundary:
    def test_registered_ecall_runs(self):
        enclave = CounterEnclave()
        assert enclave.ecall("bump") == 1
        assert enclave.ecall("bump", 5) == 6

    def test_unknown_ecall_rejected(self):
        with pytest.raises(EnclaveViolationError):
            CounterEnclave().ecall("not_an_ecall")

    def test_ecall_surface_listing(self):
        assert CounterEnclave().ecall_names() == {"bump"}

    def test_metering_records_label(self):
        enclave = CounterEnclave()
        enclave.ecall("bump", label="phase-1")
        report = enclave.meter.report()
        assert "phase-1" in report.cpu_seconds_by_label
        assert report.ecall_count == 1

    def test_constructor_validation(self):
        with pytest.raises(TEEError):
            CounterEnclave(platform_key=b"short")
        with pytest.raises(TEEError):
            CounterEnclave(enclave_id="")


class TestCrash:
    def test_crash_blocks_ecalls(self):
        enclave = CounterEnclave()
        enclave.crash()
        assert enclave.crashed
        with pytest.raises(EnclaveCrashedError):
            enclave.ecall("bump")

    def test_crash_destroys_sealing_key(self):
        enclave = CounterEnclave()
        enclave.crash()
        with pytest.raises(EnclaveCrashedError):
            enclave._sealing_key()

    def test_crash_stops_sealing_and_unsealing(self):
        """The sealing AEAD an enclave has already built dies with it."""
        from repro.tee.sealing import seal, unseal

        enclave = CounterEnclave()
        blob = seal(enclave, b"state", label="slot")
        assert unseal(enclave, blob) == b"state"
        enclave.crash()
        with pytest.raises(EnclaveCrashedError):
            seal(enclave, b"state", label="slot")
        with pytest.raises(EnclaveCrashedError):
            unseal(enclave, blob)


class TestGuardedProxy:
    def test_allows_ecall_and_identity(self):
        proxy = guarded(CounterEnclave())
        assert proxy.ecall("bump") == 1
        assert proxy.enclave_id == "counter"
        assert proxy.measurement is not None
        assert proxy.crashed is False

    def test_blocks_trusted_state(self):
        proxy = guarded(CounterEnclave())
        with pytest.raises(EnclaveViolationError):
            _ = proxy._count
        with pytest.raises(EnclaveViolationError):
            _ = proxy._platform_key
        with pytest.raises(EnclaveViolationError):
            _ = proxy.not_an_ecall

    def test_blocks_mutation(self):
        proxy = guarded(CounterEnclave())
        with pytest.raises(EnclaveViolationError):
            proxy.anything = 1

    def test_random_bytes_reproducible_with_rng(self):
        from repro.crypto.rng import DeterministicRng

        one = CounterEnclave.__new__(CounterEnclave)
        Enclave.__init__(one, _KEY, "a", rng=DeterministicRng("s"))
        two = CounterEnclave.__new__(CounterEnclave)
        Enclave.__init__(two, _KEY, "a", rng=DeterministicRng("s"))
        assert one.random_bytes(16) == two.random_bytes(16)
