"""JSON fixture loading and JSON/CSV result serialization.

Fixture schemas are documented in docs/schemas.md. Floats are rendered with
repr, the shortest representation that round-trips binary64 exactly, so
serialized certificates and reports replay bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .cgf import DiscreteDistribution
from .chaining import FunctionFamily
from .gaussian import GaussianModel
from .orlicz import OrliczGenerator, make_generator


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_inline_or_path(text: str):
    """JSON literal if the argument looks like one, else a file path."""
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(text)
    return load_json(text)


def _numbers(value, what: str, ndim: int) -> np.ndarray:
    """value as a float array of ndim dimensions with finite entries; any
    other shape, a non-numeric entry, NaN or infinity raises ValueError."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be {'a list' if ndim == 1 else 'a list of lists'} of finite numbers")
    return arr.astype(float)


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number")
    return float(value)


def load_distribution(obj: dict):
    """(distribution, {name: values}) from a support/probabilities/functions object."""
    if not isinstance(obj, dict) or "support" not in obj or "probabilities" not in obj:
        raise ValueError("distribution object requires 'support' and 'probabilities'")
    dist = DiscreteDistribution(
        _numbers(obj["support"], "'support'", 2), _numbers(obj["probabilities"], "'probabilities'", 1)
    )
    functions = obj.get("functions", {})
    if not isinstance(functions, dict):
        raise ValueError("'functions' must map names to lists of values")
    return dist, {str(name): _numbers(vals, f"function {name!r}", 1) for name, vals in functions.items()}


def load_generator(obj: dict) -> OrliczGenerator:
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise ValueError("generator object requires a string 'kind' field")
    kwargs = {k: _number(obj[k], f"generator parameter {k!r}") for k in ("L", "p") if k in obj}
    kwargs.update({k: _numbers(obj[k], f"generator table {k!r}", 1) for k in ("t", "phi") if k in obj})
    return make_generator(obj["kind"], **kwargs)


def load_family(obj: dict, norm_context="cgf") -> FunctionFamily:
    dist, functions = load_distribution(obj)
    if not functions:
        raise ValueError("family object requires a nonempty 'functions' map")
    return FunctionFamily(dist, functions, norm_context)


def load_model(obj: dict) -> GaussianModel:
    if isinstance(obj, dict) and "covariance" in obj:
        return GaussianModel(_numbers(obj["covariance"], "'covariance'", 2))
    if isinstance(obj, dict) and "spectrum" in obj:
        d = obj.get("d")
        if isinstance(d, bool) or not isinstance(d, int):
            raise ValueError("spectrum model requires an integer 'd'")
        exponent = _number(obj.get("exponent", 2.0), "spectrum model 'exponent'")
        return GaussianModel.from_spectrum(obj["spectrum"], exponent=exponent, d=d)
    raise ValueError("model object requires 'covariance' or 'spectrum'")


def load_vector(obj) -> np.ndarray:
    """A direction given as a JSON list of finite numbers."""
    return _numbers(obj, "direction", 1)


def dump_json(obj) -> str:
    """obj as indented JSON; numpy values are written through .tolist()."""
    return json.dumps(obj, indent=2, default=lambda x: x.tolist()) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def dump_csv(rows) -> str:
    """CSV text from a nonempty list of dicts sharing one key set. A cell
    that holds a comma, a double quote or a line break is quoted."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to serialize")
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("CSV rows must share one column set")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *([_csv_cell(row[k]) for k in header] for row in rows)])
    return out.getvalue()
