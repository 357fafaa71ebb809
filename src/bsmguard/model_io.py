"""Model persistence.

Models are stored as a single JSON document with a versioned header, the
model family, its selected parameters, the preprocessing (standardization)
parameters, and the family-specific payload, which the family's entry in
``ml.FAMILIES`` writes and reads. Floats serialize via repr, so a saved
model reloads bit-exactly. The schema is documented in the README.
"""

from __future__ import annotations

import json
import math

import numpy as np

from bsmguard.bsm import DataError, StandardizationParams
from bsmguard.ml import FAMILIES, N_FEATURES, FittedModel, check_params

FORMAT_NAME = "bsmguard-model"
FORMAT_VERSION = 1


def save_model(
    path: str,
    model: FittedModel,
    standardizer: StandardizationParams,
    seed: int,
    test_fraction: float,
) -> None:
    """Write a model document. seed and test_fraction let evaluation rebuild
    the exact train/test split the model was produced with."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": model.family,
        "params": model.params,
        "seed": seed,
        "test_fraction": test_fraction,
        "standardizer": {
            "mean": list(standardizer.mean),
            "stdev": list(standardizer.stdev),
        },
        "payload": FAMILIES[model.family].to_payload(model.state),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> tuple[FittedModel, StandardizationParams, int, float]:
    """Read a model document back; returns (model, standardizer, seed, test_fraction).

    Anything but a well-formed v1 document of a known family raises
    DataError naming ``path``; a well-formed model must score one row. So
    does a ``NaN``, ``Infinity`` or ``-Infinity`` anywhere in the document,
    which ``json`` would otherwise read as a float, and a non-finite number
    (an overflowing literal such as ``1e999``, which ``json`` reads as inf)
    in the standardizer or the payload, and ``params`` that ``--grid`` would
    reject (``ml.check_params``).
    """

    def non_finite(token: str):
        raise DataError(f"{path}: non-finite number {token} in the model document")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=non_finite)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {doc.get('version')!r}")
    family = doc.get("family")
    entry = FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None:
        raise DataError(f"{path}: unknown model family {family!r}")
    try:
        std = StandardizationParams(
            mean=tuple(map(float, doc["standardizer"]["mean"])),
            stdev=tuple(map(float, doc["standardizer"]["stdev"])),
        )
        if (len(std.mean) != N_FEATURES or len(std.stdev) != N_FEATURES
                or not all(map(math.isfinite, std.mean + std.stdev))
                or not all(s > 0 for s in std.stdev)):
            raise ValueError("standardizer needs a finite mean and positive stdev per feature")
        params = dict(doc["params"])
        check_params(family, {key: [value] for key, value in params.items()})
        model = FittedModel(family, params, entry.from_payload(doc["payload"]))
        seed, test_fraction = int(doc["seed"]), float(doc["test_fraction"])
        if seed < 0 or not 0.0 < test_fraction < 1.0:
            raise ValueError(f"seed {seed} or test_fraction {test_fraction!r} out of range")
        entry.scores(model.state, model.params, np.zeros((1, N_FEATURES)))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: malformed model document ({exc!r})") from None
    return model, std, seed, test_fraction
