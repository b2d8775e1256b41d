"""Configuration objects, error hierarchy and phase timing."""

from __future__ import annotations

import time

import pytest

from repro import errors
from repro.config import (
    NetworkProfile,
    PrivacyThresholds,
    StudyConfig,
)
from repro.core.shard import equal_partition_sizes
from repro.core.timing import (
    ALL_LABELS,
    PhaseClock,
    PhaseTimings,
    RoundAccounting,
)
from repro.errors import ConfigError


class TestThresholds:
    def test_paper_defaults(self):
        thresholds = PrivacyThresholds()
        assert thresholds.maf_cutoff == 0.05
        assert thresholds.ld_cutoff == 1e-5
        assert thresholds.false_positive_rate == 0.1
        assert thresholds.power_threshold == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"maf_cutoff": -0.1},
            {"maf_cutoff": 0.5},
            {"ld_cutoff": 0.0},
            {"ld_cutoff": 1.0},
            {"false_positive_rate": 0.0},
            {"false_positive_rate": 1.0},
            {"power_threshold": 0.0},
            {"power_threshold": 1.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PrivacyThresholds(**kwargs)


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StudyConfig(snp_count=0)
        with pytest.raises(ConfigError):
            StudyConfig(snp_count=10, study_id="")

    def test_defaults(self):
        config = StudyConfig(snp_count=10)
        assert not config.collusion.enabled
        assert config.seed == 0


class TestHelpers:
    def test_equal_partition_sizes_errors(self):
        with pytest.raises(ConfigError):
            equal_partition_sizes(10, 0)
        with pytest.raises(ConfigError):
            equal_partition_sizes(-1, 2)

    def test_network_profile_transfer_time(self):
        profile = NetworkProfile(latency_s=0.2, bandwidth_bytes_per_s=100)
        assert profile.transfer_time(50) == pytest.approx(0.7)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        error_classes = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert len(error_classes) > 15
        for klass in error_classes:
            assert issubclass(klass, errors.ReproError)

    def test_domain_groupings(self):
        assert issubclass(errors.AuthenticationError, errors.CryptoError)
        assert issubclass(errors.AttestationError, errors.TEEError)
        assert issubclass(errors.SerializationError, errors.NetworkError)
        assert issubclass(errors.PartitionError, errors.GenomicsError)
        assert issubclass(errors.PhaseOrderError, errors.ProtocolError)


class TestTiming:
    def test_timings_accumulate(self):
        timings = PhaseTimings()
        timings.add("A", 1.0)
        timings.add("A", 0.5)
        timings.add("B", 2.0)
        assert timings.get("A") == 1.5
        assert timings.total_seconds == 3.5

    def test_negative_clamped(self):
        timings = PhaseTimings()
        timings.add("A", -0.001)
        assert timings.get("A") == 0.0

    def test_merge(self):
        a, b = PhaseTimings(), PhaseTimings()
        a.add("X", 1.0)
        b.add("X", 2.0)
        b.add("Y", 3.0)
        a.merge(b)
        assert a.get("X") == 3.0 and a.get("Y") == 3.0

    def test_milliseconds_report_covers_labels(self):
        timings = PhaseTimings()
        report = timings.as_milliseconds()
        for label in ALL_LABELS:
            assert report[label] == 0.0
        assert report["Total"] == 0.0

    def test_round_accounting(self):
        accounting = RoundAccounting()
        accounting.record_round({"a": 0.3, "b": 0.5})
        accounting.record_round({"a": 0.2})
        assert accounting.rounds == 2
        assert accounting.sequential_seconds == pytest.approx(1.0)
        assert accounting.parallel_seconds == pytest.approx(0.7)
        assert accounting.parallel_saving == pytest.approx(0.3)
        accounting.record_round({})  # ignored
        assert accounting.rounds == 2

    def test_phase_clock_parallel_correction(self):
        timings = PhaseTimings()
        clock = PhaseClock(timings)
        accounting = RoundAccounting()
        with clock.task("T", accounting):
            begin = time.perf_counter()
            while time.perf_counter() - begin < 0.02:
                pass
            # Simulate a round where two members each spent 10 ms.
            accounting.record_round({"a": 0.01, "b": 0.01})
        # Elapsed ~20 ms, minus the 10 ms sequential-to-parallel saving.
        assert timings.get("T") < 0.02
        assert timings.get("T") > 0.0
