"""GenDPR: Secure and Distributed Assessment of Privacy-Preserving GWAS Releases.

A from-scratch Python reproduction of Pascoal, Decouchant and Völp,
Middleware '22 (DOI 10.1145/3528535.3565253): a distributed middleware
in which a federation of genome data owners, each hosting a (simulated)
trusted execution environment, jointly determines the subset of SNPs
whose GWAS statistics can be released without enabling membership
inference - without any genome leaving its owner's premises, and
tolerating up to all-but-one honest-but-curious colluding members.

Quickstart::

    from repro import SyntheticSpec, generate_cohort, StudyConfig, run_study

    cohort, _ = generate_cohort(SyntheticSpec(num_snps=500,
                                              num_case=1000,
                                              num_control=900))
    config = StudyConfig(snp_count=500)
    result = run_study(cohort, config, num_members=3)
    print(result.summary())

Subpackages: :mod:`repro.crypto`, :mod:`repro.tee`, :mod:`repro.net`,
:mod:`repro.genomics`, :mod:`repro.stats`, :mod:`repro.core`,
:mod:`repro.attacks`, :mod:`repro.bench`, :mod:`repro.obs`,
:mod:`repro.serve`.

For many studies over one long-lived federation, the service form keeps
enclaves attested and warm between requests::

    from repro.serve import FederationService, ServiceConfig

    with FederationService(ServiceConfig(num_members=3)) as service:
        study_id = service.submit(cohort, config)
        result = service.result(study_id, timeout=120)
"""

import importlib
from typing import Any

__version__ = "1.3.0"

#: The documented public names and the modules that define them.  A
#: name's module is imported the first time the name is read, so
#: ``import repro.x`` loads only what ``repro.x`` imports.
_EXPORTS = {
    "CollusionPolicy": "repro.config",
    "FaultConfig": "repro.config",
    "IntegrityConfig": "repro.config",
    "NetworkProfile": "repro.config",
    "ObservabilityConfig": "repro.config",
    "PrivacyThresholds": "repro.config",
    "ResilienceConfig": "repro.config",
    "StudyConfig": "repro.config",
    "ReproError": "repro.errors",
    "Cohort": "repro.genomics.population",
    "GenotypeMatrix": "repro.genomics.genotype",
    "SnpPanel": "repro.genomics.snp",
    "SyntheticSpec": "repro.genomics.synthetic",
    "generate_cohort": "repro.genomics.synthetic",
    "partition_cohort": "repro.genomics.partition",
    "GenDPRProtocol": "repro.core.protocol",
    "run_study": "repro.core.protocol",
    "StudyResult": "repro.core.phases",
    "build_federation": "repro.core.federation",
    "GwasRelease": "repro.core.release",
    "build_release": "repro.core.release",
    "hybrid_release": "repro.core.release",
    "run_centralized_study": "repro.core.baseline",
    "run_naive_study": "repro.core.naive",
    "RunReport": "repro.obs.report",
    "FederationService": "repro.serve.service",
    "ServiceConfig": "repro.serve.config",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    """Import a public name's defining module when the name is first read."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
