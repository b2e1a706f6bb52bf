"""Machine-readable report writers: CSV for sweeps, JSON for verdicts.

Data files are byte-reproducible for a fixed seed: floats are written with
shortest round-trip repr, JSON keys are sorted, and nothing time-dependent
goes into them.  Run timestamps and environment notes live in a separate
metadata file that reproducibility comparisons are expected to skip.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import time
from pathlib import Path

import numpy as np

from .identities import get_identity

SCHEMA_VERSION = 3

AUDIT_COLUMNS = ("identity", "n", "params_json", "point_json", "lhs",
                 "lhs_stderr", "rhs", "z_score", "scaling_pass", "status")

SCALING_COLUMNS = ("coordinate", "R", "f_norm", "f_sigma", "Tf_norm", "Tf_sigma")


def _fmt(value) -> str:
    if isinstance(value, (complex, np.complexfloating)):
        return repr(complex(value))  # parses back with complex()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON (RFC 8259) has no NaN or Infinity
    return obj


def params_json(params: dict) -> str:
    return json.dumps(_jsonable(params), sort_keys=True, separators=(",", ":"))


def point_json(identity_id: str, point) -> str:
    payload = get_identity(identity_id).point.payload(point)
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, columns, rows) -> None:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue())


def write_json(path: Path, payload: dict) -> None:
    body = dict(payload)
    body["schema_version"] = SCHEMA_VERSION
    path.write_text(json.dumps(_jsonable(body), sort_keys=True, indent=1,
                               separators=(",", ": ")) + "\n")


def write_metadata(path: Path, config: dict, extra: dict) -> None:
    """run_meta.json: what may vary between runs without moving a data byte
    (the time, the versions, and in ``extra`` the worker count, the wall
    time and the peak memory), plus the echoed config."""
    from . import __version__  # at call time: __init__ loads this module

    meta = {"schema_version": SCHEMA_VERSION,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "versions": {"conetube": __version__,
                         "python": platform.python_version(),
                         "numpy": np.__version__},
            "config": _jsonable(config), **_jsonable(extra)}
    path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def audit_row(record) -> tuple:
    return (record.identity, record.n, params_json(record.params),
            point_json(record.identity, record.point), record.lhs.value,
            record.lhs.std_error, record.rhs_stated, record.z_score,
            "" if record.scaling_pass is None else record.scaling_pass,
            record.status)


def audit_detail(record) -> dict:
    return {
        "identity": record.identity,
        "label": get_identity(record.identity).label,
        "n": record.n,
        "params": record.params,
        "point": json.loads(point_json(record.identity, record.point)),
        "region": record.region,
        "lhs": record.lhs.value,
        "lhs_stderr": record.lhs.std_error,
        "method": record.lhs.method,
        "samples": record.lhs.samples,
        "nonfinite": record.lhs.nonfinite,
        "rhs_stated": record.rhs_stated,
        "structure": record.structure,
        "fitted_constant": record.fitted_constant,
        "z_score": record.z_score,
        "status": record.status,
        "scaling_pass": record.scaling_pass,
        "degree_defect": record.degree_defect,
        "scaling": [{"lam": c.lam, "ratio": c.ratio, "predicted": c.predicted,
                     "sigma": c.sigma, "passed": c.passed, "points": c.points}
                    for c in record.scaling],
    }
