"""Property test of the CLI contract: any config gives exit 0, 1 or 2.

Configs for all four commands are generated from the keys each command
reads, with valid, wrongly typed and out-of-range values (infinite vector
entries, repeated or infinite grid points, negative seeds, case orders
outside 1..3 with params and point sized to match, empty or repeated
scaling coordinates, empty case and identity lists among them), plus
unknown keys.  Classify and witness parameter sets also draw finite
entries of +-1e308, whose products overflow.  Whatever the config,
``main`` must return 0, 1 or 2 without raising, and a rejected config
(exit 2) must name the field it rejects.  A run that writes its reports
records its wall time and peak memory in run_meta.json.  Budgets stay at or below 2,000,
so every run is cheap.
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


def heads(flips: int):
    """True when ``flips`` booleans all come up True.  Hypothesis draws
    either value of a boolean about equally often, where it would favour
    the early entries of a long ``sampled_from``."""
    return st.tuples(*[st.booleans()] * flips).map(all)


def maybe(valid, bad=JUNK, flips=4):
    """Mostly ``valid``; when ``flips`` booleans all come up True a wrongly
    typed or out-of-range value.  Over the 400 examples below that is 5 %
    of draws at 4 flips, 14 % at 3 and 21 % at 2 (2**-flips is 6, 12.5
    and 25 %)."""
    return heads(flips).flatmap(lambda b: bad if b else valid)


def rarely(draw) -> bool:
    """True in about 5 % of draws (4 flips)."""
    return draw(heads(4))


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


def one_entry(n, value):
    """An n-vector with one entry at +value or -value."""
    return vector(n).flatmap(lambda v: st.sampled_from(
        [v[:k] + [sign * value] + v[k + 1:]
         for k in range(n) for sign in (1, -1)]))


def bad_vector(n):
    """Junk, or an n-vector with one infinite entry."""
    return junk_or(one_entry(n, math.inf))


# seeds that are not a usable stream key: junk, or negative
BAD_SEED = junk_or(st.integers(-1000, -1))


@st.composite
def parameter_set(draw, orders=(1, 2, 3), huge=False):
    """A parameter set; with ``huge``, half of them hold a finite +-1e308
    entry in one vector."""
    n = draw(st.sampled_from(orders))
    p = draw(st.floats(1.05, 3.0))
    obj = {"n": draw(maybe(st.just(n))),
           "p": draw(maybe(st.just(p))),
           "q": draw(maybe(st.floats(p, 4.0)))}
    c = st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n)
    for name, valid in (("alpha", vector(n)), ("beta", vector(n)),
                        ("a", vector(n)), ("b", vector(n)), ("c", c)):
        obj[name] = draw(maybe(valid, bad_vector(n)))
    if huge and draw(st.booleans()):
        name = draw(st.sampled_from(["alpha", "beta", "a", "b", "c"]))
        obj[name] = draw(one_entry(n, 1e308))
    return with_unknown(draw, drop_some(draw, obj))


def emptied(obj):
    """``obj`` with every list in it emptied."""
    if isinstance(obj, dict):
        return {k: emptied(v) for k, v in obj.items()}
    return [] if isinstance(obj, list) else obj


@st.composite
def audit_case(draw, orders):
    ident = draw(st.sampled_from(IDENTITY_IDS))
    order = draw(st.sampled_from(orders))
    if draw(st.booleans()) and draw(st.booleans()):
        # an unsupported order, with params and point sized for it; half of
        # them 0, whose empty params and point no range check may index
        order = draw(st.one_of(st.just(0),
                               st.sampled_from([-1, 4, 1.5, True])))
    cn = max(int(order), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    params = {k: v.tolist() for k, v in random_params(ident, cn, rng).items()}
    if rarely(draw):  # out of range, or wrongly typed
        key = draw(st.sampled_from(sorted(params)))
        params[key] = draw(st.one_of(vector(cn), bad_vector(cn)))
    point = get_identity(ident).point.payload(random_point(ident, cn, rng))
    if order < 1:
        params, point = emptied(params), emptied(point)
    case = {"identity": draw(maybe(st.just(ident))),
            "n": draw(maybe(st.just(order))),
            "params": params,
            "point": draw(maybe(st.just(json.loads(json.dumps(point))),
                                flips=3))}
    case = with_unknown(draw, drop_some(draw, case))
    return draw(maybe(st.just(case)))


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
           "seed": draw(maybe(st.integers(0, 1000), BAD_SEED, flips=3)),
           "budget": draw(maybe(st.integers(1, 2000), BAD_BUDGET)),
           "oracle": oracle}
    if draw(st.booleans()):
        cfg["cases"] = draw(maybe(st.lists(audit_case(orders), min_size=1,
                                           max_size=2), junk_or(st.just([])), flips=3))
    if "cases" not in cfg or rarely(draw):
        cfg["identities"] = draw(maybe(st.lists(
            st.sampled_from(IDENTITY_IDS), min_size=1, max_size=2,
            unique=True), junk_or(st.just([])), flips=3))
        cfg["configs_per_identity"] = draw(maybe(
            st.just(1), st.sampled_from([0, -1, None, "x", [1], 1.5])))
    return with_unknown(draw, drop_some(draw, cfg))


@st.composite
def sets_config(draw):
    cfg = {"parameter_sets": draw(maybe(st.lists(parameter_set(huge=True),
                                                  min_size=1, max_size=2)))}
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
           "seed": draw(maybe(st.integers(0, 1000), BAD_SEED, flips=3))}
    # bad grids: junk, a repeated point (no slope) or an infinite one
    bad_grid = junk_or(st.floats(0.25, 8.0).flatmap(
        lambda x: st.sampled_from([[x, x], [x, x, x], [x, math.inf],
                                   [math.inf, x, 2 * x]])))
    optional = {"R_grid": maybe(st.lists(st.floats(0.25, 8.0), min_size=2,
                                         max_size=3), bad_grid, flips=2),
                "R_base": maybe(st.lists(st.floats(0.25, 4.0), min_size=n,
                                         max_size=n)),
                "coordinates": maybe(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True),
                    junk_or(st.one_of(st.just([]), st.integers(0, n - 1).map(
                        lambda j: [j, j]))))}
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    return with_unknown(draw, drop_some(draw, cfg))


def run_main(command: str, cfg) -> tuple[int, str, dict | None]:
    """Exit code, stderr and run_meta.json (None if not written) of a run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(path),
                       "--out", str(Path(tmp) / "out")])
        meta = Path(tmp) / "out" / "run_meta.json"
        meta = json.loads(meta.read_text()) if meta.exists() else None
    return rc, err.getvalue(), meta


CONFIGS = st.one_of(
    st.tuples(st.just("audit"), audit_config()),
    st.tuples(st.just("audit"), audit_config()),
    st.tuples(st.sampled_from(["classify", "witness"]), sets_config()),
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
    rc, err, meta = run_main(command, cfg)
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error: config field '"), err
    if meta is not None:
        assert meta["command"] == command and meta["wall_s"] >= 0.0
        assert meta["peak_rss_mb"] > 0.0
