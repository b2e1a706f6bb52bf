"""Property test of the CLI contract: any config gives exit 0, 1 or 2.

Configs for all four commands are generated from the keys each command
reads, with valid, wrongly typed and out-of-range values (infinite vector
entries, repeated or infinite grid points, negative seeds among them), plus
unknown keys.  Whatever the config, ``main`` must return 0, 1 or 2 without
raising, and a rejected config (exit 2) must name the field it rejects.
Budgets stay at or below 2,000, so every run is cheap.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conetube.cli import main
from conetube.identities import (IDENTITY_IDS, get_identity, random_params,
                                 random_point)

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
UNKNOWN = st.dictionaries(st.sampled_from(["budjet", "include_dual_region",
                                           "x"]), JUNK, max_size=1)
# budgets that are not a usable count, none of which coerces above 2,000
BAD_BUDGET = st.sampled_from([0, -5, None, "x", [100], {"a": 1},
                              float("nan"), float("inf")])


def maybe(valid, bad=JUNK, p_bad=0.05):
    """Mostly ``valid``; with chance about ``p_bad`` a wrongly typed or
    out-of-range value."""
    return st.sampled_from(range(100)).flatmap(
        lambda k: bad if k >= 100 * (1 - p_bad) else valid)


def rarely(draw) -> bool:
    return draw(st.sampled_from(range(20))) == 19


def with_unknown(draw, obj: dict) -> dict:
    if rarely(draw):
        obj.update(draw(UNKNOWN))
    return obj


def drop_some(draw, obj: dict) -> dict:
    """Occasionally leave a key out."""
    if obj and rarely(draw):
        obj.pop(draw(st.sampled_from(sorted(obj))))
    return obj


def vector(n):
    return st.lists(st.floats(-3, 6), min_size=n, max_size=n)


def junk_or(bad):
    """Half the time JUNK, half the time ``bad``: a one_of would give
    ``bad`` only one of JUNK's many branches."""
    return st.booleans().flatmap(lambda junk: JUNK if junk else bad)


def bad_vector(n):
    """Junk, or an n-vector with one infinite entry."""
    return junk_or(vector(n).flatmap(lambda v: st.sampled_from(
        [v[:k] + [sign * math.inf] + v[k + 1:]
         for k in range(n) for sign in (1, -1)])))


# seeds that are not a usable stream key: junk, or negative
BAD_SEED = junk_or(st.integers(-1000, -1))


@st.composite
def parameter_set(draw, orders=(1, 2, 3)):
    n = draw(st.sampled_from(orders))
    p = draw(st.floats(1.05, 3.0))
    obj = {"n": draw(maybe(st.just(n))),
           "p": draw(maybe(st.just(p))),
           "q": draw(maybe(st.floats(p, 4.0)))}
    for name in ("alpha", "beta", "a", "b"):
        obj[name] = draw(maybe(vector(n), bad_vector(n)))
    obj["c"] = draw(maybe(st.lists(st.floats(0.0, 6.0), min_size=n,
                                   max_size=n), bad_vector(n)))
    return with_unknown(draw, drop_some(draw, obj))


@st.composite
def audit_case(draw, orders):
    ident = draw(st.sampled_from(IDENTITY_IDS))
    cn = draw(st.sampled_from(orders))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    params = {k: v.tolist() for k, v in random_params(ident, cn, rng).items()}
    if rarely(draw):  # out of range, or wrongly typed
        key = draw(st.sampled_from(sorted(params)))
        params[key] = draw(st.one_of(vector(cn), bad_vector(cn)))
    point = get_identity(ident).point.payload(random_point(ident, cn, rng))
    case = {"identity": draw(maybe(st.just(ident), p_bad=0.05)),
            "n": draw(maybe(st.just(cn), p_bad=0.05)),
            "params": params,
            "point": draw(maybe(st.just(json.loads(json.dumps(point))),
                                p_bad=0.1))}
    case = with_unknown(draw, drop_some(draw, case))
    return draw(maybe(st.just(case), p_bad=0.05))


# Quadrature ignores the budget: an n = 1 audit takes about a second and an
# n = 2 cone row seconds, so "quad" and "auto" (quadrature at n = 1) are
# drawn only with orders where they are cheap: Monte Carlo, or rejected
ORDERS = {"mc": (1, 2, 3), "auto": (2, 3), "quad": (3,)}


@st.composite
def audit_config(draw):
    oracle = draw(maybe(st.sampled_from(sorted(ORDERS))))
    orders = ORDERS.get(oracle, (1, 2, 3)) if isinstance(oracle, str) \
        else (1, 2, 3)
    n = draw(st.sampled_from(orders))
    cfg = {"n": draw(maybe(st.just(n), st.sampled_from([0, 4, -1, "x", 1.5]))),
           "seed": draw(maybe(st.integers(0, 1000), BAD_SEED, p_bad=0.1)),
           "budget": draw(maybe(st.integers(1, 2000), BAD_BUDGET)),
           "oracle": oracle}
    if draw(st.booleans()):
        cfg["cases"] = draw(maybe(st.lists(audit_case(orders), min_size=1,
                                           max_size=2)))
    if "cases" not in cfg or rarely(draw):
        cfg["identities"] = draw(maybe(st.lists(
            st.sampled_from(IDENTITY_IDS), min_size=1, max_size=2,
            unique=True)))
        cfg["configs_per_identity"] = draw(maybe(
            st.just(1), st.sampled_from([0, -1, None, "x", [1], 1.5])))
    return with_unknown(draw, drop_some(draw, cfg))


@st.composite
def sets_config(draw):
    cfg = {"parameter_sets": draw(maybe(st.lists(parameter_set(), min_size=1,
                                                  max_size=2)))}
    return with_unknown(draw, drop_some(draw, cfg))


@st.composite
def scaling_config(draw):
    # orders 1 and 2: the n = 3 slice constant is calibrated by Monte
    # Carlo at a budget of 2e6, which no test should pay for
    params = draw(st.one_of(
        parameter_set(orders=(1, 2)),
        st.sampled_from([{"n": 2, "p": 2, "q": 2, "alpha": [0, 0],
                          "beta": [0, 0], "a": [0, 0], "b": [0, 0],
                          "c": [3, 3]},
                         {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
                          "a": [0], "b": [0], "c": [2]}])))
    n = params.get("n") if params.get("n") in (1, 2) else 1
    cfg = {"params": params,
           "l": draw(maybe(st.lists(st.floats(-1.0, 3.0), min_size=n,
                                    max_size=n))),
           "r": draw(maybe(st.lists(st.floats(0.5, 6.0), min_size=n,
                                    max_size=n))),
           "budget": draw(maybe(st.integers(1, 2000), BAD_BUDGET)),
           "seed": draw(maybe(st.integers(0, 1000), BAD_SEED, p_bad=0.1))}
    # bad grids: junk, a repeated point (no slope) or an infinite one
    bad_grid = junk_or(st.floats(0.25, 8.0).flatmap(
        lambda x: st.sampled_from([[x, x], [x, x, x], [x, math.inf],
                                   [math.inf, x, 2 * x]])))
    optional = {"R_grid": maybe(st.lists(st.floats(0.25, 8.0), min_size=2,
                                         max_size=3), bad_grid, p_bad=0.2),
                "R_base": maybe(st.lists(st.floats(0.25, 4.0), min_size=n,
                                         max_size=n)),
                "coordinates": maybe(st.lists(st.integers(0, n - 1),
                                              max_size=n, unique=True))}
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    return with_unknown(draw, drop_some(draw, cfg))


def run_main(command: str, cfg) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(path),
                       "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


CONFIGS = st.one_of(
    st.tuples(st.just("audit"), audit_config()),
    st.tuples(st.just("audit"), audit_config()),
    st.tuples(st.sampled_from(["classify", "witness"]), sets_config()),
    st.tuples(st.just("scaling"), scaling_config()),
    st.tuples(st.just("scaling"), scaling_config()),
    st.tuples(st.sampled_from(["audit", "classify", "witness", "scaling"]),
              JUNK))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(CONFIGS)
def test_any_config_exits_0_1_or_2_and_names_a_rejected_field(command_cfg):
    command, cfg = command_cfg
    rc, err = run_main(command, cfg)
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error: config field '"), err
