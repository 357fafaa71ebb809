"""Model persistence.

Models are stored as a single JSON document with a versioned header, the
model family, its selected parameters, the preprocessing (standardization)
parameters, and the family-specific payload, which the family's entry in
``ml.FAMILIES`` writes and reads. Floats serialize via repr, so a saved
model reloads bit-exactly. The schema is documented in the README.

Format v1 is ``json.dumps(doc, indent=1, sort_keys=True)``, read back by
``json.load``. json encodes in pure Python, one generator frame per level of
nesting for every token, and a forest's trees nest up to 90 deep, so json
writes a marker in each tree's (``ml.CartNode``) place and ``_write_tree``
streams the tree there: json's text for the dict of each node's set fields,
one string per leaf or three around a split's children. The indent stays
because the benchmark's reference hashes pin these bytes; a v2 format
without it, with array trees that need no streaming, is ROADMAP item 10.
``tests/test_model_io.py`` checks the file against ``reference.model_text``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable

import numpy as np

from bsmguard.bsm import DataError, StandardizationParams
from bsmguard.ml import FAMILIES, N_FEATURES, CartNode, FittedModel, check_params, finite_array

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
    the exact train/test split the model was produced with.

    An object json cannot write is a TypeError, and a string holding a NUL,
    the trees' marker, a ValueError; then no file is written.
    """
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
    trees = []

    def tree_marker(value: Any) -> str:
        if not isinstance(value, CartNode):
            raise TypeError(f"a model document cannot hold a {type(value).__name__}")
        trees.append(value)
        return "\x00"

    # Each tree leaves one "\u0000" in the text; a string holding a NUL adds another.
    text = json.dumps(doc, indent=1, sort_keys=True, default=tree_marker)
    if text.count("\\u0000") != len(trees):
        raise ValueError("a model document's strings cannot hold a NUL, which marks its trees")
    parts = text.split('"\\u0000"')
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for part, tree in zip(parts, trees):
            fh.write(part)
            line = part.rpartition("\n")[2]
            _write_tree(fh.write, tree, len(line) - len(line.lstrip()))
        fh.write(parts[-1] + "\n")


def _scalar(value: float | int) -> str:
    """The JSON text of a float or int, ``NaN`` and ``Infinity`` included, as json writes it."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a model document cannot hold a {type(value).__name__}")


def _scalars(values, level: int) -> str:
    """A list or tuple of numbers whose ``[`` sits at nesting ``level``, one item per line."""
    if not values:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join(map(_scalar, values)) + "\n" + " " * level + "]"


def _write_tree(put: Callable[[str], Any], node: CartNode, level: int) -> None:
    """Write a grown tree as nested dicts of each node's set fields, keys sorted.

    A leaf is one string: ``counts``, ``impurity``, ``n_samples``, ``probs``.
    A split is ``counts``, ``feature``, ``impurity``, then ``left``, then
    ``n_samples``, then ``right``, then ``threshold``: three strings around
    its two children.
    """
    ind = "\n" + " " * (level + 1)
    counts = f'{{{ind}"counts": {_scalars(node.counts, level + 1)},{ind}'
    end = "\n" + " " * level + "}"
    if node.feature is None:
        put(f'{counts}"impurity": {_scalar(node.impurity)},{ind}"n_samples": '
            f'{_scalar(node.n_samples)},{ind}"probs": {_scalars(node.probs, level + 1)}{end}')
        return
    put(f'{counts}"feature": {_scalar(node.feature)},{ind}"impurity": '
        f'{_scalar(node.impurity)},{ind}"left": ')
    _write_tree(put, node.left, level + 1)
    put(f',{ind}"n_samples": {_scalar(node.n_samples)},{ind}"right": ')
    _write_tree(put, node.right, level + 1)
    put(f',{ind}"threshold": {_scalar(node.threshold)}{end}')


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
        mean, stdev = (finite_array(doc["standardizer"], key) for key in ("mean", "stdev"))
        if mean.shape != (N_FEATURES,) or stdev.shape != (N_FEATURES,) or not (stdev > 0).all():
            raise ValueError("standardizer needs a finite mean and positive stdev per feature")
        std = StandardizationParams(mean=tuple(mean.tolist()), stdev=tuple(stdev.tolist()))
        params = dict(doc["params"])
        check_params(family, {key: [value] for key, value in params.items()})
        model = FittedModel(family, params, entry.from_payload(params, doc["payload"]))
        seed, test_fraction = doc["seed"], doc["test_fraction"]
        # A JSON number in (0, 1) is a float; an int or a bool is never in it.
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed {seed!r} is not an integer of at least 0")
        if type(test_fraction) is not float or not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction {test_fraction!r} is not a number in (0, 1)")
        entry.scores(model.state, model.params, np.zeros((1, N_FEATURES)))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: malformed model document ({exc!r})") from None
    return model, std, seed, test_fraction
