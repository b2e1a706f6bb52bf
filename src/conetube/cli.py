"""Batch front door: identity audits, classification, witnesses, scaling.

All four subcommands read one declarative JSON config (no prompts), compute,
and write machine-readable reports: CSV for tabular sweeps, JSON for
verdicts and witnesses, plus a run_meta.json carrying the timestamp, the
worker count, the versions and the echoed config.  Reports are
byte-identical across reruns with the same config and seed, at any worker
count; only the metadata file varies.

Exit codes: 0 clean, 1 at least one finding (a scaling MISMATCH in an
audit, a CONFLICT verdict, a failed witness construction or an off-analytic
slope), 2 unusable configuration, a CONETUBE_THREADS that is not a
positive integer included.  The worker count comes from that environment
variable; an audit spreads its cases over the workers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .boundedness import classify, schur_witness, t_interval
from .errors import (ConetubeError, ConfigError, ConvergenceDomainError,
                     InvalidInputError, WitnessConstructionError)
from .identities import (IDENTITY_IDS, check_params, get_identity,
                         random_params, random_point)
from .operators import (ParameterSet, check_norm_ranges, make_test_function,
                        scaling_experiment)
from .oracle import (INCONCLUSIVE, MISMATCH, _thread_count, parallel_map,
                     quad_supported, verify_identity)
from .reporting import (AUDIT_COLUMNS, SCALING_COLUMNS, audit_detail,
                        audit_row, write_csv, write_json, write_metadata)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value such as 1e6."""
    if not float(value).is_integer():
        raise TypeError
    return int(value)


def _numeric(value) -> bool:
    """Whether every leaf of a JSON value is a JSON number: an int or a
    float, not a bool (nor a string or null)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get(cfg: dict, field: str, default, kind, least: int | None = None,
         where: str = ""):
    """cfg[field] as ``kind``, at least ``least`` if given; ``default`` if
    absent, required if that is None."""
    if field not in cfg:
        if default is None:
            raise ConfigError(where + field, "missing")
        return default
    value = cfg[field]
    try:
        if not _numeric(value):
            raise TypeError
        value = (_integer if kind is int else kind)(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(where + field,
                          f"expected {kind.__name__}, got {value!r}") from None
    if least is not None and value < least:
        raise ConfigError(where + field, f"must be at least {least}, got {value}")
    return value


def _order(cfg: dict, default: int, where: str = "") -> int:
    n = _get(cfg, "n", default, int, where=where)
    if n not in (1, 2, 3):
        raise ConfigError(where + "n", f"supported orders are 1, 2, 3; got {n}")
    return n


def _budget_seed(cfg: dict) -> tuple[int, int]:
    """The Monte Carlo sample count (an error bar needs two) and the seed."""
    return (_get(cfg, "budget", 200_000, int, least=2),
            _get(cfg, "seed", 0, int, least=0))


def _object(value, where: str, keys) -> dict:
    """``value`` as a JSON object whose every key is one of ``keys``, the
    keys its reader uses; ``where`` is "" at the top level."""
    if not isinstance(value, dict):
        raise ConfigError(where or "config", "must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}" if where else unknown[0],
                          f"unknown key; expected one of {sorted(keys)}")
    return value


def _nonempty(value, field: str) -> list:
    """``value`` as a non-empty JSON list: an empty selection is no run."""
    if not isinstance(value, list) or not value:
        raise ConfigError(field, f"must be a non-empty list, got {value!r}")
    return value


def _parse(where: str, read):
    """Run ``read``; any malformed-value error becomes a ConfigError at where."""
    try:
        return read()
    except KeyError as exc:
        raise ConfigError(where, f"missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from None


def _vector(value, field: str, n: int | None = None):
    """``value`` as finite floats, an n-vector when n is given."""
    if value is None:
        raise ConfigError(field, "missing")
    if not _numeric(value):
        raise ConfigError(field, f"expected numbers, got {value!r}")
    arr = _parse(field, lambda: np.asarray(value, dtype=float))
    if n is not None and arr.shape != (n,):
        raise ConfigError(field, f"expected {n} numbers, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(field, f"entries must be finite, got {value!r}")
    return arr


def _parameter_set(obj, where: str) -> ParameterSet:
    _object(obj, where, ("n", "p", "q", "alpha", "beta", "a", "b", "c"))
    n = _get(obj, "n", None, int, least=1, where=f"{where}.")
    p = _get(obj, "p", None, float, where=f"{where}.")
    q = _get(obj, "q", None, float, where=f"{where}.")
    if not (1.0 < p <= q < np.inf):
        raise ConfigError(f"{where}.p/q",
                          f"need 1 < p <= q < inf, got p={p}, q={q}")
    vecs = {name: tuple(_vector(obj.get(name), f"{where}.{name}", n))
            for name in ("alpha", "beta", "a", "b", "c")}
    return ParameterSet(n=n, p=p, q=q, **vecs)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_case(i: int, case, n: int):
    where = f"cases[{i}]"
    _object(case, where, ("identity", "n", "params", "point"))
    name = case.get("identity")
    if name not in IDENTITY_IDS:
        raise ConfigError(f"{where}.identity", f"unknown identity {name!r}")
    ident = get_identity(name)
    cn = _order(case, n, f"{where}.")
    params = case.get("params", {})
    if not isinstance(params, dict) or set(params) != set(ident.param_names):
        raise ConfigError(f"{where}.params", f"{name} needs an object with "
                          f"exactly the keys {sorted(ident.param_names)}")
    params = {k: _vector(v, f"{where}.params.{k}") for k, v in params.items()}
    _parse(f"{where}.params", lambda: check_params(name, cn, params))
    raw = case.get("point", {})
    if not _numeric(raw):
        raise ConfigError(f"{where}.point", f"expected numbers, got {raw!r}")
    point = _parse(f"{where}.point", lambda: ident.point.parse(raw, cn))
    return name, cn, params, point


def _audit_cases(cfg: dict, n: int, seed: int):
    explicit = cfg.get("cases")
    if explicit is not None:
        _nonempty(explicit, "cases")
        for unread in ("identities", "configs_per_identity"):
            if unread in cfg:
                raise ConfigError(unread, "not read when cases are given")
        for i, case in enumerate(explicit):
            yield _audit_case(i, case, n)
        return
    identities = _nonempty(cfg.get("identities", list(IDENTITY_IDS)),
                           "identities")
    if any(i not in IDENTITY_IDS for i in identities):
        raise ConfigError("identities", f"must be a subset of {IDENTITY_IDS}")
    per = _get(cfg, "configs_per_identity", 3, int, least=1)
    rng = np.random.default_rng(seed)
    for ident in identities:
        for _ in range(per):
            params = random_params(ident, n, rng)
            point = random_point(ident, n, rng)
            yield ident, n, params, point


def cmd_audit(cfg: dict, out_dir: Path) -> int:
    n = _order(cfg, 1)
    budget, seed = _budget_seed(cfg)
    oracle = cfg.get("oracle", "auto")
    if oracle not in ("auto", "mc", "quad"):
        raise ConfigError("oracle", f"must be auto/mc/quad, got {oracle!r}")

    cases = list(_audit_cases(cfg, n, seed))  # every case checked up front
    for ident, cn, _, _ in cases:
        if oracle == "quad" and not quad_supported(ident, cn):
            raise ConfigError("oracle", f"quadrature does not reach {ident} "
                                        f"at n = {cn}")

    def verify(task):  # one case: a record per region the registry lists
        i, (ident, cn, params, point) = task
        return [verify_identity(ident, params, point, budget=budget,
                                seed=seed + 977 * i + 13 * k, method=oracle,
                                region=region)
                for k, region in enumerate(get_identity(ident).regions(cn))]

    rows, details = [], []
    for recs in parallel_map(verify, enumerate(cases)):
        rows.append(audit_row(recs[0]))  # the domain's record is the row
        details.extend(map(audit_detail, recs))

    write_csv(out_dir / "audit.csv", AUDIT_COLUMNS, rows)
    statuses = [r[-1] for r in rows]
    summary = {"rows": len(rows),
               "by_status": {s: statuses.count(s) for s in sorted(set(statuses))}}
    write_json(out_dir / "audit_details.json",
               {"summary": summary, "records": details})
    if INCONCLUSIVE in statuses:
        print(f"warning: {statuses.count(INCONCLUSIVE)} inconclusive row(s); "
              "raise the budget to sharpen them", file=sys.stderr)
    print(f"audit: {len(rows)} rows -> {out_dir / 'audit.csv'}")
    for status, count in summary["by_status"].items():
        print(f"  {status}: {count}")
    return 1 if MISMATCH in statuses else 0


# ---------------------------------------------------------------------------
# classify / witness
# ---------------------------------------------------------------------------

def _parameter_sets(cfg: dict):
    sets = _nonempty(cfg.get("parameter_sets"), "parameter_sets")
    return [_parameter_set(obj, f"parameter_sets[{i}]")
            for i, obj in enumerate(sets)]


def _breakdown_payload(breakdown):
    return [{"id": c.id, "satisfied": c.satisfied, "margin": c.margin,
             "kind": c.kind} for c in breakdown.conditions]


def cmd_classify(cfg: dict, out_dir: Path) -> int:
    verdicts = []
    conflicts = 0
    for params in _parameter_sets(cfg):
        result = classify(params)
        if result.verdict == "CONFLICT":
            conflicts += 1
        verdicts.append({
            "params": params.__dict__,
            "verdict": result.verdict,
            "necessary": _breakdown_payload(result.theorem1),
            "sufficient": _breakdown_payload(result.theorem2),
        })
    write_json(out_dir / "verdicts.json", {"verdicts": verdicts})
    print(f"classify: {len(verdicts)} set(s) -> {out_dir / 'verdicts.json'}")
    for v in verdicts:
        print(f"  {v['verdict']}")
    return 1 if conflicts else 0


def cmd_witness(cfg: dict, out_dir: Path) -> int:
    witnesses = []
    failures = 0
    for params in _parameter_sets(cfg):
        entry = {"params": params.__dict__,
                 "t_interval": t_interval(params)}
        try:
            w = schur_witness(params)
            entry.update({"ok": True, "t": w.t, "r": w.r, "l": w.l,
                          "c_prime": w.c_prime,
                          "endpoints": list(w.endpoints),
                          "identity_residuals": list(w.identity_residuals),
                          "inequality_margins": list(w.inequality_margins)})
        except WitnessConstructionError as exc:
            failures += 1
            entry.update({"ok": False, "error": str(exc),
                          "endpoints": exc.endpoints})
        except InvalidInputError as exc:
            failures += 1
            entry.update({"ok": False, "error": str(exc)})
        witnesses.append(entry)
    write_json(out_dir / "witnesses.json", {"witnesses": witnesses})
    print(f"witness: {len(witnesses)} set(s), {failures} failure(s) "
          f"-> {out_dir / 'witnesses.json'}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def cmd_scaling(cfg: dict, out_dir: Path) -> int:
    params = _parameter_set(cfg.get("params", {}), "params")
    n = params.n
    l = _vector(cfg.get("l"), "l", n)
    r = _vector(cfg.get("r"), "r", n)
    base = _vector(cfg.get("R_base", [1.0] * n), "R_base", n)
    if not np.all(base > 0):
        raise ConfigError("R_base", "must be a positive n-vector")
    grid = _vector(cfg.get("R_grid", [1.0, 2.0, 4.0, 8.0]), "R_grid")
    if grid.ndim != 1 or len(np.unique(grid)) < 2:
        raise ConfigError("R_grid", "need at least two distinct grid points")
    if not np.all(grid > 0):
        raise ConfigError("R_grid",
                          f"grid points must be positive, got {grid.tolist()}")
    budget, seed = _budget_seed(cfg)
    coords = cfg.get("coordinates")
    if coords is not None and not (
            all(type(j) is int and 0 <= j < n
                for j in _nonempty(coords, "coordinates"))
            and len(set(coords)) == len(coords)):
        raise ConfigError("coordinates", "must be distinct indices in "
                          f"0..{n - 1}, got {coords!r}")
    tf = make_test_function(n, l, r, base)
    try:  # the ranges do not depend on R: one check covers the grid
        check_norm_ranges(params, tf)
    except ConvergenceDomainError as exc:
        raise ConfigError("l/r", str(exc)) from None
    report = scaling_experiment(params, tf, grid, budget, seed,
                                coordinates=coords)

    rows = []
    for c in report.coordinates:
        for k, R in enumerate(c.R_values):
            rows.append((c.coordinate + 1, R, c.f_norms[k], c.f_sigmas[k],
                         c.Tf_norms[k], c.Tf_sigmas[k]))
    write_csv(out_dir / "scaling.csv", SCALING_COLUMNS, rows)
    slopes = [{
        "coordinate": c.coordinate + 1,
        "f_slope": c.f_slope, "f_slope_se": c.f_slope_se,
        "f_analytic": c.f_analytic,
        "Tf_slope": c.Tf_slope, "Tf_slope_se": c.Tf_slope_se,
        "Tf_analytic": c.Tf_analytic,
        "slope_difference": c.slope_difference,
        "difference_analytic": c.Tf_analytic - c.f_analytic,
    } for c in report.coordinates]
    write_json(out_dir / "scaling.json", {"slopes": slopes})
    print(f"scaling: {len(rows)} rows -> {out_dir / 'scaling.csv'}")
    bad = 0
    for s in slopes:
        off_f = abs(s["f_slope"] - s["f_analytic"])
        tol = max(3.0 * s["f_slope_se"], 0.05)
        flag = "" if off_f <= tol else "  <-- off analytic"
        bad += off_f > tol
        print(f"  R[{s['coordinate']}]: f slope {s['f_slope']:+.4f} "
              f"(analytic {s['f_analytic']:+.4f}), Tf-f difference "
              f"{s['slope_difference']:+.4f}{flag}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# per subcommand: its function, the config fields it also takes as flags,
# and every top-level config key it reads
COMMANDS = {
    "audit": (cmd_audit, ("seed", "budget", "n"),
              ("n", "seed", "budget", "oracle", "cases", "identities",
               "configs_per_identity")),
    "classify": (cmd_classify, (), ("parameter_sets",)),
    "witness": (cmd_witness, (), ("parameter_sets",)),
    "scaling": (cmd_scaling, ("seed", "budget"),
                ("params", "l", "r", "R_base", "R_grid", "budget", "seed",
                 "coordinates"))}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conetube",
        description="audit cone-tube integral identities, classify operator "
                    "parameters, construct Schur witnesses, fit norm slopes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int, default=None,
                            choices=(1, 2, 3) if flag == "n" else None)
        sp.add_argument("--out", default="reports")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fn, flags, keys = COMMANDS[args.command]
    try:
        try:  # read once, before any work
            threads = _thread_count()
        except InvalidInputError as exc:
            raise ConfigError("CONETUBE_THREADS", str(exc)) from None
        cfg = _object(_load_config(args.config), "", keys)
        for field in flags:
            value = getattr(args, field)
            if value is not None:
                cfg[field] = value
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        code = fn(cfg, out_dir)
        write_metadata(out_dir / "run_meta.json", cfg,
                       {"command": args.command, "threads": threads})
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConetubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
