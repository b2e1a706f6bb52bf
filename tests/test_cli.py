import csv
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import conetube
from conetube.cli import _audit_case, main
from conetube.identities import (IDENTITY_IDS, get_identity, random_params,
                                 random_point)
from conetube.reporting import AUDIT_COLUMNS, SCALING_COLUMNS, point_json


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(args):
    return main(args)


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # start-up time: no command and no quadrature needs scipy, whose
    # import alone costs more than a small run; it is a test dependency
    param_set = {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
                 "a": [0, 0], "b": [0, 0], "c": [3, 3]}
    configs = {
        "audit": [{"n": 1, "seed": 1, "configs_per_identity": 1},
                  {"n": 2, "seed": 1, "budget": 2000, "oracle": "mc",
                   "configs_per_identity": 1}],
        "scaling": [{"params": param_set, "l": [2, 2], "r": [4, 4],
                     "R_grid": [1, 2], "budget": 2000, "seed": 1}],
        "classify": [{"parameter_sets": [param_set]}],
        "witness": [{"parameter_sets": [param_set]}]}
    runs = []
    for command, cfgs in configs.items():
        for k, cfg in enumerate(cfgs):
            out = str(tmp_path / f"{command}{k}")
            runs.append([command, "--config",
                         write_cfg(tmp_path, f"{command}{k}.json", cfg),
                         "--out", out])
    code = textwrap.dedent("""
        import json, sys
        import numpy as np
        from conetube.cli import main
        from conetube.oracle import quad_iterated
        codes = [main(args) for args in json.loads(sys.argv[1])]
        quad_iterated("L23_1", {"s": [0.5, 0.5]}, np.array([1.0, 1.0, 0.0]))
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        print(json.dumps([codes, loaded]))
        """)
    src = str(Path(conetube.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src,
                              "CONETUBE_THREADS": "1"})
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert all(c in (0, 1) for c in codes), (codes, out.stderr)
    assert loaded == []


class TestAudit:
    def test_default_n1_suite_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a.json",
                        {"n": 1, "seed": 11, "budget": 60_000,
                         "configs_per_identity": 1})
        code = run(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "audit.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=2"
        rows = list(csv.reader(lines[1:]))
        assert tuple(rows[0]) == AUDIT_COLUMNS
        statuses = {r[-1] for r in rows[1:]}
        assert statuses <= {"CONFIRMED", "EXPONENT_CONFIRMED_CONSTANT_MISMATCH"}
        # every value cell parses, the complex ones included
        cells = [r[k] for r in rows[1:] for k in (4, 6)]  # lhs, rhs
        assert any("j" in cell for cell in cells)
        for cell in cells:
            complex(cell)
        details = json.loads((tmp_path / "out" / "audit_details.json")
                             .read_text())
        assert details["schema_version"] == 2
        assert details["summary"]["rows"] == 8
        # each row names the domain it integrated; dual-region companions
        # are recorded for the two kernel identities
        regions = {(d["identity"], d["region"]) for d in details["records"]}
        assert regions == {(i, get_identity(i).domain) for i in IDENTITY_IDS} \
            | {("L23_2", "dual"), ("COR1_2", "dual")}
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["command"] == "audit" and meta["threads"] >= 1
        assert 0.0 < meta["wall_s"] < 600.0 and meta["peak_rss_mb"] > 1.0
        assert set(meta["versions"]) == {"conetube", "python", "numpy"}

    @pytest.mark.parametrize("config", [{}, {"n": 1, "seed": 1}],
                             ids=["default", "seed-1"])
    def test_n1_quadrature_audit_has_no_mismatch(self, tmp_path, config):
        # every row by quadrature; the tube rows integrate u in closed form
        cfg = write_cfg(tmp_path, "a.json", config)
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "audit.csv").read_text().splitlines()
        statuses = [row[-1] for row in csv.reader(lines[2:])]
        assert len(statuses) == 24 and "MISMATCH" not in statuses

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.json",
                        {"n": 2, "seed": 3, "budget": 40_000,
                         "configs_per_identity": 1, "oracle": "mc",
                         "identities": ["L23_1", "L24", "L25"]})
        assert run(["audit", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert run(["audit", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        for name in ("audit.csv", "audit_details.json"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

    def test_records_do_not_depend_on_the_thread_count(self, tmp_path,
                                                       capsys, monkeypatch):
        # at two threads the cases run side by side: a lambda-scaled L23_2
        # row and its dual-region row must still come out byte for byte
        cfg = write_cfg(tmp_path, "a.json",
                        {"n": 2, "seed": 5, "budget": 100_000, "oracle": "mc",
                         "configs_per_identity": 1,
                         "identities": ["L23_1", "L23_2", "L24"]})
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CONETUBE_THREADS", threads)
            code = run(["audit", "--config", cfg,
                        "--out", str(tmp_path / "out")])
            runs.append((code, capsys.readouterr().out,
                         *((tmp_path / "out" / name).read_bytes()
                           for name in ("audit.csv", "audit_details.json"))))
        assert runs[0] == runs[1]
        details = json.loads(runs[0][3])
        assert any(d["scaling"] for d in details["records"])
        assert any(d["region"] == "dual" for d in details["records"])

    def test_integral_floats_read_as_integers(self, tmp_path):
        base = {"n": 2, "seed": 3, "budget": 2000, "configs_per_identity": 1,
                "oracle": "mc", "identities": ["L23_1"]}
        floats = {**base, "n": 2.0, "seed": 3.0, "budget": 2e3,
                  "configs_per_identity": 1.0}
        for name, payload in (("i", base), ("f", floats)):
            cfg = write_cfg(tmp_path, f"{name}.json", payload)
            assert run(["audit", "--config", cfg,
                        "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "i" / "audit.csv").read_bytes() == \
            (tmp_path / "f" / "audit.csv").read_bytes()

    def test_tiny_budget_warns_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a.json",
                        {"n": 2, "seed": 1, "budget": 16,
                         "configs_per_identity": 1, "oracle": "mc",
                         "identities": ["L27"]})
        code = run(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "inconclusive" in captured.err.lower()

    def test_explicit_cases(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.json", {
            "n": 1, "seed": 5, "budget": 50_000,
            "cases": [
                {"identity": "L24", "n": 1,
                 "params": {"r": [3.0], "eta": [1.0]}, "point": {"b": [1.0]}},
                {"identity": "L27", "n": 1,
                 "params": {"l": [0.0], "r": [4.0]},
                 "point": {"z": {"x": [0.0], "y": [1.0]}}},
            ]})
        code = run(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        details = json.loads((tmp_path / "out" / "audit_details.json")
                             .read_text())
        fitted = details["records"][0]["fitted_constant"]
        assert fitted == pytest.approx(0.5, rel=1e-8)

    def test_exit_one_on_structure_mismatch(self, tmp_path):
        # the slice identity's stated global exponent fails at n = 3, which
        # the audit must surface as a finding
        cfg = write_cfg(tmp_path, "a.json",
                        {"n": 3, "seed": 11, "budget": 400_000,
                         "configs_per_identity": 1, "oracle": "mc",
                         "identities": ["L25"]})
        code = run(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_bad_configs_exit_two(self, tmp_path, capsys):
        assert run(["audit", "--config", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "o")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["audit", "--config", str(bad),
                    "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, "c.json", {"n": 7})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, "d.json", {"identities": ["NOPE"]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, "e.json",
                        {"cases": [{"identity": "L24", "n": 1,
                                    "params": {"r": [3.0]},
                                    "point": {"b": [1.0]}}]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case, field", [
        ({"identity": "L27", "n": 1, "params": {"l": [0.0], "r": [4.0]},
          "point": {"z": {"x": [0.0]}}}, "cases[0].point"),
        ("L24", "cases[0]"),
        ({"identity": "L24", "n": 1, "params": {"r": [3.0], "eta": [1.0]},
          "point": {"b": ["one"]}}, "cases[0].point"),
        ({"identity": "L24", "n": 2,
          "params": {"r": [3.0, 3.0], "eta": [0.0, 0.0]},
          "point": {"b": [1.0, 1.0, 2.0]}}, "cases[0].point"),
    ], ids=["point-without-y", "case-as-string", "non-numeric-entry",
            "point-outside-cone"])
    def test_malformed_case_names_field(self, tmp_path, capsys, case, field):
        cfg = write_cfg(tmp_path, "f.json", {"cases": [case]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    def test_c4_range_inside_c7_range_does_not_abort(self, tmp_path, capsys):
        # the second L26 draw of the n = 1 audit at seed 1: r + l - eta lies
        # outside C4's range but inside C7's
        cfg = write_cfg(tmp_path, "g.json", {"n": 1, "seed": 1, "cases": [
            {"identity": "L26", "n": 1,
             "params": {"l": [-0.33173723737181066], "r": [0.8974422077487207],
                        "eta": [2.683782657815248]},
             "point": {"z": {"x": [-0.20922369131824364],
                             "y": [1.6262723691444845]},
                       "xi": {"x": [0.1806417480888342],
                              "y": [1.6518445156998967]}}}]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) in (0, 1)
        assert "error:" not in capsys.readouterr().err


    def test_zero_lhs_ends_in_one_error_line(self, tmp_path, capsys):
        # at r = 1e300 the L24 estimate underflows to 0, which the
        # lambda-test would divide by
        cfg = write_cfg(tmp_path, "z.json", {"n": 1, "budget": 2000, "cases": [
            {"identity": "L24", "params": {"r": [1e300], "eta": [0]},
             "point": {"b": [1.0]}}]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "L24" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_log_gamma_ends_in_one_error_line(self, tmp_path,
                                                          capsys):
        # at s = 1e308 the proposal's log-gamma normalizer overflows: every
        # weight is non-finite and the estimate is rejected
        cfg = write_cfg(tmp_path, "h.json", {
            "n": 2, "seed": 1, "budget": 1000, "cases": [
                {"identity": "L23_1", "params": {"s": [1e308, 1e308]},
                 "point": {"t": [1, 1, 0]}}]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e308, 1e20])
    def test_huge_params_by_quadrature_end_in_one_error_line(self, tmp_path,
                                                             capsys, s):
        # the n = 2 cone quadrature overflows in the integrand; its windows
        # stay finite (no array past the size limit at s = 1e308, where
        # log-gamma overflows) and the non-finite value is rejected
        cfg = write_cfg(tmp_path, "q.json", {
            "n": 2, "seed": 1, "budget": 1000, "oracle": "quad", "cases": [
                {"identity": "L23_1", "params": {"s": [s, s]},
                 "point": {"t": [1, 1, 0]}}]})
        assert run(["audit", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err and "Traceback" not in err


class TestPointRoundTrip:
    @pytest.mark.parametrize("ident", IDENTITY_IDS)
    def test_random_point_survives_report_and_parse(self, rng, ident):
        ddef = get_identity(ident)
        for n in (1, 2):
            params = random_params(ident, n, rng)
            point = random_point(ident, n, rng)
            case = {"identity": ident, "n": n,
                    "params": {k: v.tolist() for k, v in params.items()},
                    "point": json.loads(point_json(ident, point))}
            _, cn, _, parsed = _audit_case(0, case, 1)
            assert cn == n and ddef.point.order(parsed) == n
            assert point_json(ident, parsed) == point_json(ident, point)
            if isinstance(point, np.ndarray):
                assert np.array_equal(parsed, point)
            else:  # a TubePoint or a pair of them, compared by value
                assert parsed == point


class TestClassifyWitness:
    def config(self, tmp_path):
        return write_cfg(tmp_path, "sets.json", {"parameter_sets": [
            {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
             "a": [0, 0], "b": [0, 0], "c": [3, 3]},
            {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
             "a": [0, 0], "b": [0, 0], "c": [3, 3.5]},
        ]})

    def test_classify_verdicts(self, tmp_path):
        code = run(["classify", "--config", self.config(tmp_path),
                    "--out", str(tmp_path / "out")])
        assert code == 0
        data = json.loads((tmp_path / "out" / "verdicts.json").read_text())
        assert [v["verdict"] for v in data["verdicts"]] == \
            ["BOUNDED", "UNBOUNDED"]
        # full breakdown with margins rides along
        first = data["verdicts"][0]
        assert all("margin" in c for c in first["sufficient"])

    def test_classify_conflict_exits_one(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"parameter_sets": [
            {"n": 3, "p": 2, "q": 2, "alpha": [-1.5, 0, 0],
             "beta": [-2.5, 0, 0], "a": [0, 0, 0], "b": [0, 0, 0],
             "c": [3.5, 4, 4]}]})
        assert run(["classify", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 1

    def test_witness_file(self, tmp_path):
        code = run(["witness", "--config", self.config(tmp_path),
                    "--out", str(tmp_path / "out")])
        assert code == 1  # second set cannot construct
        data = json.loads((tmp_path / "out" / "witnesses.json").read_text())
        good, bad = data["witnesses"]
        assert good["ok"] and good["t"] == pytest.approx(0.5)
        assert not bad["ok"]

    def test_undefined_interval_written_as_null(self, tmp_path, capsys):
        # a zero c_j, or one so small that n / c_j overflows, leaves the
        # t-interval undefined; the file stays valid JSON and nothing is
        # warned (pytest captures warnings before capsys sees them, so any
        # warning is raised as an error here)
        cfg = write_cfg(tmp_path, "c0.json", {"parameter_sets": [
            {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
             "a": [0, 0], "b": [0, 0], "c": [0, 0]},
            {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
             "a": [0], "b": [0], "c": [1e-310]}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["witness", "--config", cfg,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ""

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = (tmp_path / "out" / "witnesses.json").read_text()
        entries = json.loads(text, parse_constant=reject)["witnesses"]
        assert len(entries) == 2
        for entry in entries:
            assert entry["t_interval"] == [None, None]
            assert not entry["ok"] and entry["error"]


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, code", [("classify", 0),
                                               ("witness", 1)])
    def test_huge_finite_entry_warns_nothing(self, tmp_path, capsys,
                                             command, code):
        # a * q overflows: the margin is written as null, the verdict stands
        cfg = write_cfg(tmp_path, "big.json", {"parameter_sets": [
            {"n": 1, "p": 1.5, "q": 2, "alpha": [0], "beta": [0],
             "a": [1e308], "b": [0], "c": [3]}]})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == ""
        if command == "classify":
            verdict, = json.loads((tmp_path / "out" / "verdicts.json")
                                  .read_text())["verdicts"]
            assert verdict["verdict"] == "UNBOUNDED"
            assert verdict["necessary"][0]["margin"] is None


class TestScaling:
    def test_csv_shape_and_slopes(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "params": {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
                       "a": [0], "b": [0], "c": [2]},
            "l": [0.5], "r": [3.0], "R_grid": [1, 2, 4],
            "budget": 40_000, "seed": 5})
        code = run(["scaling", "--config", cfg,
                    "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "scaling.csv").read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        assert tuple(rows[0]) == SCALING_COLUMNS
        assert len(rows) == 1 + 3  # one coordinate, three grid points
        slopes = json.loads((tmp_path / "out" / "scaling.json").read_text())
        assert slopes["slopes"][0]["f_analytic"] == pytest.approx(-1.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_norm_is_a_finding(self, tmp_path, capsys):
        # at R = 1e300 the f_R norm estimate underflows to 0.0
        cfg = write_cfg(tmp_path, "s.json", {
            "params": {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
                       "a": [0], "b": [0], "c": [2]},
            "l": [0.5], "r": [3], "R_grid": [1, 1e300], "budget": 1000})
        assert run(["scaling", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not positive" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_exponents_end_in_one_error_line(self, tmp_path,
                                                         capsys):
        cfg = write_cfg(tmp_path, "s.json", {
            "params": {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
                       "a": [0], "b": [0], "c": [3]},
            "l": [1e300], "r": [1e301], "budget": 1000})
        assert run(["scaling", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_point_grid_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "params": {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0],
                       "a": [0], "b": [0], "c": [2]},
            "l": [0.5], "r": [3.0], "R_grid": [1],
            "budget": 1000, "seed": 5})
        assert run(["scaling", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2


class TestBadConfigs:
    @pytest.mark.parametrize("command, patch, field", [
        ("classify", {"alpha": ["x", 0]}, "parameter_sets[0].alpha"),
        ("witness", {"alpha": ["x", 0]}, "parameter_sets[0].alpha"),
        ("scaling", {"R_grid": [1, "x"]}, "R_grid"),
        ("scaling", {"R_base": [1, "x"]}, "R_base"),
        ("scaling", {"coordinates": [5]}, "coordinates"),
        ("scaling", {"coordinates": 3}, "coordinates"),
        ("scaling", {"R_grid": [1, -2]}, "R_grid"),
        ("audit", {"identity": "L27", "n": 1,
                   "params": {"l": [0.2], "r": [0.5]},
                   "point": {"x": [0.0], "y": [1.0]}}, "cases[0].params"),
        # the f_R norm is infinite: r - l > n + 1 fails
        ("scaling", {"params": {"n": 1, "p": 2, "q": 2, "alpha": [0],
                                "beta": [0], "a": [0], "b": [0], "c": [2]},
                     "l": [0.5], "r": [1.2], "R_grid": [1, 2, 4],
                     "budget": 100_000, "seed": 5}, "l/r"),
        # the image norm is infinite: c + r - l > n + 1 (L26) fails
        ("scaling", {"params": {"n": 1, "p": 2, "q": 2, "alpha": [0],
                                "beta": [0], "a": [0], "b": [0], "c": [0.5]},
                     "l": [0.5], "r": [2.0]}, "l/r"),
        ("audit", {"n": 1, "budjet": 10}, "budjet"),
        ("audit", {"identity": "L24", "n": 1, "params": {"r": [3.0], "eta": [1.0]},
                   "point": {"b": [1.0]}, "seed": 3}, "cases[0].seed"),
        ("audit", {"identities": ["L24"], "cases": [
            {"identity": "L24", "n": 1, "params": {"r": [3.0], "eta": [1.0]},
             "point": {"b": [1.0]}}]}, "identities"),
        ("classify", {"gamma": [0, 0]}, "parameter_sets[0].gamma"),
        ("scaling", {"params": {"n": 2, "p": 2, "q": 2, "alpha": [0, 0],
                                "beta": [0, 0], "a": [0, 0], "b": [0, 0],
                                "c": [3, 3], "d": [0, 0]}}, "params.d"),
        ("scaling", {"R_gird": [1, 2]}, "R_gird"),
        ("audit", {"identity": "L24", "n": float("inf"),
                   "params": {"r": [3.0], "eta": [1.0]},
                   "point": {"b": [1.0]}}, "cases[0].n"),
        ("classify", {"alpha": [10**400, 0]}, "parameter_sets[0].alpha"),
        # one sample gives no error bar
        ("audit", {"n": 2, "budget": 1, "oracle": "mc"}, "budget"),
        ("scaling", {"budget": 1}, "budget"),
        # quadrature reaches the tube only at n = 1
        ("audit", {"n": 2, "oracle": "quad", "identities": ["L26", "L27"],
                   "configs_per_identity": 1}, "oracle"),
        # non-finite entries inside lists
        ("classify", {"alpha": [float("inf"), 0]}, "parameter_sets[0].alpha"),
        ("audit", {"identity": "L23_1", "n": 1,
                   "params": {"s": [float("inf")]}, "point": {"t": [1.0]}},
         "cases[0].params.s"),
        ("audit", {"identity": "L27", "n": 1,
                   "params": {"l": [0.2], "r": [float("inf")]},
                   "point": {"x": [0.0], "y": [1.0]}}, "cases[0].params.r"),
        ("audit", {"identity": "L27", "n": 1,
                   "params": {"l": [0.2], "r": [3.5]},
                   "point": {"x": [float("inf")], "y": [1.0]}},
         "cases[0].point"),
        ("scaling", {"R_grid": [1, float("inf")]}, "R_grid"),
        # a slope needs two distinct grid points
        ("scaling", {"R_grid": [1, 1]}, "R_grid"),
        ("audit", {"seed": -1, "configs_per_identity": 1,
                   "identities": ["L23_1"]}, "seed"),
        ("scaling", {"seed": -1}, "seed"),
        ("classify", {"q": float("inf")}, "parameter_sets[0].p/q"),
        # a case's order is read and checked like the top-level one
        ("audit", {"identity": "L23_1", "n": 0, "params": {"s": []},
                   "point": {"t": []}}, "cases[0].n"),
        ("audit", {"identity": "L23_1", "n": -1, "params": {"s": []},
                   "point": {"t": []}}, "cases[0].n"),
        ("audit", {"identity": "L23_1", "n": 4, "params": {"s": [0.0] * 4},
                   "point": {"t": [1.0] * 4 + [0.0] * 3}}, "cases[0].n"),
        # integer fields are not truncated
        ("audit", {"n": 1.5}, "n"),
        ("audit", {"n": True}, "n"),
        ("audit", {"n": 2, "oracle": "mc", "identities": ["L23_1"],
                   "configs_per_identity": 1, "budget": 1000.9}, "budget"),
        ("audit", {"n": 2, "oracle": "mc", "identities": ["L23_1"],
                   "configs_per_identity": 1, "seed": 2.5}, "seed"),
        ("audit", {"n": 2, "oracle": "mc", "identities": ["L23_1"],
                   "configs_per_identity": 1.7}, "configs_per_identity"),
        ("scaling", {"coordinates": []}, "coordinates"),
        # an empty selection is no run
        ("audit", {"cases": []}, "cases"),
        ("audit", {"identities": []}, "identities"),
        ("scaling", {"coordinates": [0, 0]}, "coordinates"),
        # a boolean is not a number, in a float field either
        ("classify", {"alpha": [True, 0]}, "parameter_sets[0].alpha"),
        ("classify", {"q": True}, "parameter_sets[0].q"),
        ("scaling", {"R_grid": [1, True, 4]}, "R_grid"),
        ("audit", {"identity": "L24", "n": 1,
                   "params": {"r": [3.0], "eta": [1.0]},
                   "point": {"b": [True]}}, "cases[0].point"),
        # nor is a string or null: every config number is a JSON number
        ("classify", {"p": "2"}, "parameter_sets[0].p"),
        ("classify", {"alpha": ["0", "0"]}, "parameter_sets[0].alpha"),
        ("audit", {"identity": "L24", "n": 1,
                   "params": {"r": ["3.0"], "eta": [1.0]},
                   "point": {"b": [1.0]}}, "cases[0].params.r"),
        ("audit", {"identity": "L24", "n": 1,
                   "params": {"r": [3.0], "eta": [1.0]},
                   "point": {"b": ["1.0"]}}, "cases[0].point"),
        ("classify", {"beta": [0, None]}, "parameter_sets[0].beta"),
        ("scaling", {"R_base": [1, None]}, "R_base"),
        ("audit", {"identity": "L24", "n": 1,
                   "params": {"r": [3.0], "eta": [None]},
                   "point": {"b": [1.0]}}, "cases[0].params.eta"),
        ("audit", {"identity": "L24", "n": 1,
                   "params": {"r": [3.0], "eta": [1.0]},
                   "point": {"b": [None]}}, "cases[0].point"),
    ], ids=["classify-alpha", "witness-alpha", "R_grid-entry", "R_base-entry",
            "coordinate-out-of-range", "coordinates-not-a-list",
            "R_grid-negative", "case-outside-range", "f-norm-infinite",
            "image-norm-infinite", "unknown-top-key", "unknown-case-key",
            "identities-beside-cases", "unknown-parameter-key",
            "unknown-params-key", "unknown-scaling-key", "infinite-case-order",
            "vector-entry-beyond-float", "audit-budget-one",
            "scaling-budget-one", "quad-n2-tube", "classify-alpha-infinite",
            "case-param-infinite", "case-kernel-param-infinite",
            "case-point-infinite", "R_grid-infinite", "R_grid-repeated",
            "audit-seed-negative", "scaling-seed-negative", "q-infinite",
            "case-order-zero", "case-order-negative", "case-order-four",
            "order-fractional", "order-boolean", "budget-fractional",
            "seed-fractional", "configs-fractional", "coordinates-empty",
            "cases-empty", "identities-empty",
            "coordinates-repeated", "alpha-boolean-entry", "q-boolean",
            "R_grid-boolean-entry", "case-point-boolean-entry", "p-string",
            "alpha-string-entries", "case-param-string", "case-point-string",
            "beta-null-entry", "R_base-null-entry", "case-param-null-entry",
            "case-point-null-entry"])
    def test_bad_config_names_field(self, tmp_path, capsys, command, patch,
                                    field):
        sets = {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
                "a": [0, 0], "b": [0, 0], "c": [3, 3]}
        if command == "audit":
            payload = {"cases": [patch]} if "identity" in patch else patch
        elif command == "scaling":
            payload = {"params": sets, "l": [2, 2], "r": [4, 4],
                       "budget": 1000, **patch}
        else:
            payload = {"parameter_sets": [{**sets, **patch}]}
        cfg = write_cfg(tmp_path, "bad.json", payload)
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*"))  # no report written

    @pytest.mark.parametrize("threads", ["two", "0", "-1"])
    def test_bad_thread_count_exits_two(self, tmp_path, capsys, monkeypatch,
                                        threads):
        monkeypatch.setenv("CONETUBE_THREADS", threads)
        cfg = write_cfg(tmp_path, "c.json", {"parameter_sets": [
            {"n": 1, "p": 2, "q": 2, "alpha": [0], "beta": [0], "a": [0],
             "b": [0], "c": [2]}]})
        assert run(["classify", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "config field 'CONETUBE_THREADS'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # read before any work

    @pytest.mark.parametrize("command, flag", [
        ("classify", "--seed"), ("classify", "--budget"), ("classify", "--n"),
        ("witness", "--seed"), ("scaling", "--n")])
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path,
                                                        command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", str(tmp_path / "c.json"), flag, "2",
                 "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
