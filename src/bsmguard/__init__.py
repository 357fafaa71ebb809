"""Streaming detection of false-speed attacks in connected-vehicle BSM data.

The package has three legs: a seeded simulator that produces 10 Hz basic
safety message streams with injectable false-speed windows, three online
change-point detectors (Bayesian, mixture-responsibility, adaptive CUSUM),
and from-scratch supervised baselines (KNN, CART, random forest, small NN)
with a shared evaluation harness.
"""

from bsmguard.bsm import (
    AggregatedSample,
    BsmRecord,
    DataError,
    NonMonotonicTimestampError,
    StandardizationParams,
    TransformWindow,
    aggregate,
    apply_standardizer,
    fit_standardizer,
    read_bsm_csv,
    write_bsm_csv,
)
from bsmguard.detectors import (
    BocpdDetector,
    CusumDetector,
    DetectorDecision,
    EmDetector,
    make_detector,
    student_t_logpdf,
)
from bsmguard.simulate import AttackSpec, DrivingProfile, generate_stream, inject_false_info

__version__ = "0.1.0"

__all__ = [
    "AggregatedSample",
    "AttackSpec",
    "BocpdDetector",
    "BsmRecord",
    "CusumDetector",
    "DataError",
    "DetectorDecision",
    "DrivingProfile",
    "EmDetector",
    "NonMonotonicTimestampError",
    "StandardizationParams",
    "TransformWindow",
    "aggregate",
    "apply_standardizer",
    "fit_standardizer",
    "generate_stream",
    "inject_false_info",
    "make_detector",
    "read_bsm_csv",
    "student_t_logpdf",
    "write_bsm_csv",
]
