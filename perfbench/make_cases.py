"""Regenerate the fixed audit case lists in perfbench/cases/.

Usage (from the repository root): python3 perfbench/make_cases.py

Each list is what ``conetube audit`` draws for the README config it is
named after: the parameters and points of ``_audit_cases`` for that order
and seed, written out as explicit ``cases``.  Pinning them in files keeps
the benchmark inputs identical across commits even if the random presets
change; the benchmark's ``--seed`` then drives only the Monte Carlo streams.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from conetube.geometry import TubePoint  # noqa: E402
from conetube.identities import (IDENTITY_IDS, random_params,  # noqa: E402
                                 random_point)

# file name -> (n, README config seed, configs per identity, budget)
LISTS = {"audit-n2-mc": (2, 42, 3, 200_000), "audit-n1-quad": (1, 0, 3, 200_000)}


def _tube(p: TubePoint) -> dict:
    return {"x": p.x.tolist(), "y": p.y.tolist()}


def _point(ident: str, point) -> dict:
    if ident == "L26":
        return {"z": _tube(point[0]), "xi": _tube(point[1])}
    if isinstance(point, TubePoint):
        return _tube(point)
    return {"point": np.asarray(point).tolist()}


def case_list(n: int, seed: int, per: int) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for ident in IDENTITY_IDS:
        for _ in range(per):
            params = random_params(ident, n, rng)
            point = random_point(ident, n, rng)
            cases.append({"identity": ident, "n": n, "point": _point(ident, point),
                          "params": {k: np.asarray(v).tolist()
                                     for k, v in params.items()}})
    return cases


def main():
    out = Path(__file__).resolve().parent / "cases"
    out.mkdir(exist_ok=True)
    for name, (n, seed, per, budget) in LISTS.items():
        cfg = {"n": n, "budget": budget, "cases": case_list(n, seed, per)}
        (out / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")


if __name__ == "__main__":
    main()
