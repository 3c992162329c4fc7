import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rp2quant.checks import (
    GRID_N_MIN,
    LMAX_MAX,
    RADIAL_NODES_MIN,
    REGISTRY,
    SUITES,
    SuiteConfig,
    _worst,
    check_rng,
    checks_for_suite,
)
from rp2quant import backend_name, checks, cli
from rp2quant.cli import (
    BLAS_THREAD_VARS,
    MARGIN_CLAMP,
    emit_report,
    main,
    render_report,
    run_suite,
)
from rp2quant.errors import ConfigError, RadialRangeError


def normalize_times(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    for c in out["checks"]:
        c["wall_time_ms"] = 0.0
    out["summary"]["total_ms"] = 0.0
    return out


class TestRegistry:
    def test_every_suite_nonempty(self):
        for suite in SUITES:
            assert checks_for_suite(suite)

    def test_names_unique(self):
        names = [c.name for c in REGISTRY]
        assert len(names) == len(set(names))

    def test_anchors_populated(self):
        assert all(c.anchor for c in REGISTRY)

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            checks_for_suite("nope")


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.lmax == 8 and cfg.grid_n == 1024 and cfg.radial_nodes == 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            SuiteConfig(lmax=0)
        with pytest.raises(ConfigError):
            SuiteConfig(grid_n=1000)
        with pytest.raises(ConfigError):
            SuiteConfig(samples=0)

    @pytest.mark.parametrize("values", [
        {"lmax": 8.0}, {"samples": 2.5}, {"radial_nodes": 64.5}, {"rng_seed": 1.5},
        {"grid_n": 1024.0}, {"lmax": "8"}, {"rng_seed": None},
        {"tol_overrides": {"not-a-check": 1.0}},
        {"tol_overrides": {"ccr-residual": "tiny"}}, {"tol_overrides": {"ccr-residual": "1e-9"}},
        {"tol_overrides": {"ccr-residual": None}}, {"tol_overrides": {"ccr-residual": math.nan}},
        {"tol_overrides": {"ccr-residual": math.inf}}, {"tol_overrides": {"ccr-residual": -1.0}},
        {"tol_overrides": {"ccr-residual": 0.0}},
    ], ids=repr)
    def test_rejects_what_the_harness_cannot_run(self, values):
        # non-integers (what operator.index refuses), unknown tolerance names, and
        # tolerances that are not positive finite numbers
        with pytest.raises(ConfigError):
            SuiteConfig(**values)

    def test_lmax_range_ends_where_the_module_grid_fits(self):
        assert SuiteConfig(lmax=30).lmax == 30
        for lmax in (0, LMAX_MAX + 1, LMAX_MAX + 2):
            with pytest.raises(ConfigError, match=rf"lmax must lie in \[1, {LMAX_MAX}\]"):
                SuiteConfig(lmax=lmax)

    def test_seed_range_is_the_streams_own(self, capsys):
        # a seed is one 64-bit word of check_rng's (seed, name tag) entropy; one
        # outside [0, 2**64) is refused, not folded onto another seed's stream
        assert SuiteConfig(rng_seed=2**64 - 1).rng_seed == 2**64 - 1
        for seed in (-1, 2**64, 2**65 + 3):
            with pytest.raises(ConfigError, match=r"rng_seed must lie in \[0, 2\*\*64\)"):
                SuiteConfig(rng_seed=seed)
            assert main(["groups", "--samples", "20", "--seed", str(seed)]) == 2
        assert "rng_seed must lie in" in capsys.readouterr().err

    def test_tolerance_overrides_are_stored_as_float(self):
        cfg = SuiteConfig(tol_overrides={"ccr-residual": np.float32(0.5), "spinor-homomorphism": 1})
        assert cfg.tol_overrides == {"ccr-residual": 0.5, "spinor-homomorphism": 1.0}
        assert all(type(t) is float for t in cfg.tol_overrides.values())

    def test_integer_likes_are_stored_as_int(self):
        cfg = SuiteConfig(lmax=np.int64(4), rng_seed=np.uint8(3),
                          tol_overrides={"spinor-homomorphism": 1e-3})
        assert (type(cfg.lmax), type(cfg.rng_seed)) == (int, int)
        assert (cfg.lmax, cfg.rng_seed) == (4, 3)

    def test_radial_floor_is_where_the_group_law_stops_raising(self):
        with pytest.raises(ConfigError):
            SuiteConfig(radial_nodes=RADIAL_NODES_MIN - 1)
        check = next(c for c in REGISTRY if c.name == "canonical-group-law")
        # one node fewer, past the config gate: the composed dilations reach the window ends
        below = SimpleNamespace(**{**asdict(SuiteConfig()), "radial_nodes": RADIAL_NODES_MIN - 1})
        with pytest.raises(RadialRangeError):
            check.fn(check_rng(0, check.name), below)
        at_floor = check.fn(check_rng(0, check.name), SuiteConfig(radial_nodes=RADIAL_NODES_MIN))
        assert math.isfinite(at_floor)

    def test_grid_floor_is_where_the_heisenberg_suite_passes(self):
        with pytest.raises(ConfigError, match="heisenberg"):
            SuiteConfig(grid_n=GRID_N_MIN // 2)
        # one power of two fewer, past the config gate: the packets' momentum tails
        # reach the grid's end and half the suite fails
        below = SimpleNamespace(**{**asdict(SuiteConfig()), "grid_n": GRID_N_MIN // 2})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # tail-mass warnings
            failed = {c.name for c in checks_for_suite("heisenberg")
                      if not c.fn(check_rng(0, c.name), below) <= c.tolerance}
        assert {"ccr-residual", "weyl-exchange-relation", "symmetrized-square-expansion"} <= failed
        for seed in range(5):
            assert all(r.passed for r in run_suite("heisenberg", SuiteConfig(grid_n=GRID_N_MIN,
                                                                             rng_seed=seed)))


class TestRunSuite:
    def test_groups_all_pass(self):
        results = run_suite("groups", SuiteConfig(rng_seed=3, samples=50))
        assert results and all(r.passed for r in results)

    def test_residuals_deterministic(self):
        cfg = SuiteConfig(rng_seed=11, samples=50)
        r1 = run_suite("classical", cfg)
        r2 = run_suite("classical", cfg)
        assert [(a.name, a.residual) for a in r1] == [(b.name, b.residual) for b in r2]

    def test_order_independent_streams(self):
        cfg = SuiteConfig(rng_seed=11, samples=50)
        sub = {r.name: r.residual for r in run_suite("groups", cfg)}
        full = {r.name: r.residual for r in run_suite("all", cfg)}
        for name, residual in sub.items():
            assert full[name] == residual

    def test_impossible_tolerance_fails(self):
        cfg = SuiteConfig(
            rng_seed=0, samples=20,
            tol_overrides={"spinor-homomorphism": 1e-30},
        )
        results = run_suite("groups", cfg)
        by_name = {r.name: r for r in results}
        assert not by_name["spinor-homomorphism"].passed


def _spoil_call(monkeypatch, name: str, call: int, spoil) -> list:
    """Patch ``checks.<name>`` so that its ``call``-th call returns ``spoil(result)``."""
    original, calls = getattr(checks, name), []

    def patched(*args, **kwargs):
        calls.append(name)
        out = original(*args, **kwargs)
        return spoil(out) if len(calls) == call else out

    monkeypatch.setattr(checks, name, patched)
    return calls


def _nan_at(index):
    def spoil(out):
        out = np.array(out)
        out[index] = np.nan
        return out

    return spoil


class TestWorstResidual:
    """A check's residual is the worst of what its body yields, and a NaN fails it."""

    def _run_alone(self, monkeypatch, name, cfg):
        check = next(c for c in REGISTRY if c.name == name)
        monkeypatch.setattr(cli, "checks_for_suite", lambda suite: [check])
        [result] = run_suite(check.suite, cfg)
        return result

    def _fails_with_nan(self, result):
        assert math.isnan(result.residual) and not result.passed and result.error is None

    def test_nan_in_a_loop_sample(self, monkeypatch):
        # the second of canonical-group-law's five group-law gaps is NaN
        calls = _spoil_call(monkeypatch, "check_group_law", 2, _nan_at(()))
        self._fails_with_nan(self._run_alone(monkeypatch, "canonical-group-law", SuiteConfig()))
        assert len(calls) == 5

    def test_nan_in_the_second_chunk(self, monkeypatch):
        # 4100 samples are chunks of 4096 and 4; the second chunk's rotation of
        # its second sample has a NaN entry
        calls = _spoil_call(monkeypatch, "spinor_map", 2, _nan_at((1, 2, 2)))
        result = self._run_alone(monkeypatch, "h-image-in-o2", SuiteConfig(samples=4100))
        self._fails_with_nan(result)
        assert len(calls) == 2

    def test_nan_in_the_second_part(self, monkeypatch):
        # frame-map-odd-unit yields the oddness gap, then the unit-norm gap
        calls = _spoil_call(monkeypatch, "_row_norms", 1, _nan_at(1))
        self._fails_with_nan(self._run_alone(monkeypatch, "frame-map-odd-unit", SuiteConfig()))
        assert len(calls) == 1

    def test_reduction(self):
        assert _worst(iter(())) == 0.0
        assert _worst([1e-16, np.array([[2e-16, 0.0]]), 5e-17]) == 2e-16
        assert math.isnan(_worst([np.array([np.nan, 1.0]), 2.0]))
        assert math.isnan(_worst([2.0, np.array([1.0, np.nan])]))

    def test_every_body_yields(self):
        for check in REGISTRY:
            assert inspect.isgeneratorfunction(check.fn.__wrapped__), check.name
        assert type(REGISTRY[0].fn(check_rng(0, REGISTRY[0].name), SuiteConfig())) is float


class TestReports:
    def _results(self):
        return run_suite("groups", SuiteConfig(rng_seed=5, samples=20))

    def test_json_schema(self):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        report = json.loads(render_report(self._results(), "json", cfg))
        assert set(report) == {"version", "env", "seed", "config", "checks", "summary"}
        assert report["seed"] == 5
        for c in report["checks"]:
            assert {"name", "residual", "tolerance", "passed",
                    "wall_time_ms", "paper_anchor"} <= set(c)
        s = report["summary"]
        assert s["total"] == s["passed"] + s["failed"] == len(report["checks"])

    def test_json_env_block(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = SuiteConfig(rng_seed=5, samples=20)
        env = json.loads(render_report(self._results(), "json", cfg))["env"]
        assert set(env) == {"backend", "numpy", "blas", "blas_threads_env", "cpu_count"}
        assert env["backend"] == backend_name() == "numpy"
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads_env"]["OMP_NUM_THREADS"] is None
        assert set(env["blas_threads_env"]) == set(BLAS_THREAD_VARS)
        assert json.loads(render_report([], "json", cfg))["env"] == env

    def test_json_deterministic_modulo_times(self):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        rep1 = json.loads(render_report(run_suite("groups", cfg), "json", cfg))
        rep2 = json.loads(render_report(run_suite("groups", cfg), "json", cfg))
        assert json.dumps(normalize_times(rep1), sort_keys=True) == json.dumps(
            normalize_times(rep2), sort_keys=True
        )

    def test_csv_rows(self, tmp_path):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        results = self._results()
        path = tmp_path / "report.csv"
        emit_report(results, "csv", path, cfg)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(results)
        assert all(row["paper_anchor"] for row in rows)

    def test_text_table(self):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        text = render_report(self._results(), "text", cfg)
        assert "[PASS]" in text and "checks passed" in text

    def test_errored_result_in_every_format(self):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        results = self._results()
        results[0] = replace(results[0], residual=math.nan, passed=False,
                             error="RadialRangeError: support reaches the boundary")
        report = json.loads(render_report(results, "json", cfg))
        assert report["checks"][0]["error"].startswith("RadialRangeError: ")
        assert all(c["error"] is None for c in report["checks"][1:])
        rows = list(csv.DictReader(io.StringIO(render_report(results, "csv", cfg))))
        assert len(rows) == len(results)
        assert rows[0]["error"].startswith("RadialRangeError: ")
        assert all(row["error"] == "" for row in rows[1:])
        assert "RadialRangeError: " in render_report(results, "text", cfg).splitlines()[0]

    def test_json_margin(self):
        cfg = SuiteConfig(rng_seed=5, samples=20)
        base = self._results()[0]
        cases = [(1e-14, 1e-12, -2.0), (2e-12, 1e-12, math.log10(2.0)),
                 (0.0, 1e-12, -MARGIN_CLAMP), (1e-300, 1.0, -MARGIN_CLAMP),
                 (1.0, 0.0, MARGIN_CLAMP), (math.inf, 1e-12, MARGIN_CLAMP),
                 (math.nan, 1e-12, None)]
        results = [replace(base, residual=r, tolerance=t) for r, t, _ in cases]
        report = json.loads(render_report(results, "json", cfg))
        for c, (_, _, want) in zip(report["checks"], cases):
            if want is None:
                assert c["margin"] is None
            else:
                assert c["margin"] == pytest.approx(want, abs=1e-12)
        # a real report: every check carries a finite margin, negative when it passes
        for c in json.loads(render_report(self._results(), "json", cfg))["checks"]:
            assert -MARGIN_CLAMP <= c["margin"] <= MARGIN_CLAMP
            assert (c["margin"] <= 0.0) == c["passed"]

    def test_empty_results(self):
        cfg = SuiteConfig()
        report = json.loads(render_report([], "json", cfg))
        assert report["summary"]["total"] == 0
        assert render_report([], "csv", cfg).startswith("name,")


class TestMainEntry:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = main(["groups", "--samples", "20", "--seed", "2",
                     "--format", "json", "--out", str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["summary"]["failed"] == 0

    def test_exit_one_on_failure(self, tmp_path):
        code = main(["groups", "--samples", "20",
                     "--tol", "spinor-homomorphism=1e-30",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 1

    def test_exit_two_on_bad_config(self):
        assert main(["groups", "--lmax", "0"]) == 2

    def test_exit_two_on_unwritable_out_before_any_check(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr("rp2quant.cli.run_suite", lambda *a: ran.append(a) or [])
        out = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["groups", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert ran == [] and not out.parent.exists()

    def test_odd_lmax_runs_bundles(self, tmp_path):
        # module maps need a grid of order lmax + 2 at odd lmax
        assert main(["bundles", "--lmax", "9", "--out", str(tmp_path / "r.txt")]) == 0

    @pytest.mark.parametrize("lmax", [31, 32])
    def test_exit_two_when_grid_order_exceeds_cap(self, lmax):
        assert main(["bundles", "--lmax", str(lmax)]) == 2

    def test_exit_two_on_unknown_tolerance_name(self):
        assert main(["groups", "--tol", "not-a-check=1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_exit_two_on_bad_tolerance_value(self, value, capsys):
        assert main(["heisenberg", "--tol", f"ccr-residual={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance for ccr-residual")

    def test_no_flags_report_the_dataclass_defaults(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["all", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        defaults = asdict(SuiteConfig())
        assert report["seed"] == defaults.pop("rng_seed")
        assert report["config"] == defaults

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "suite.cfg"
        cfgfile.write_text(
            "seed = 9\nsamples = 20\nformat = json\n"
            f"out = {tmp_path/'from_file.json'}\n"
            "tol.spinor-homomorphism = 1e-30\n"
        )
        # file alone: override makes the check fail
        assert main(["groups", "--config", str(cfgfile)]) == 1
        report = json.loads((tmp_path / "from_file.json").read_text())
        assert report["seed"] == 9
        # flag wins over the file value
        assert main(["groups", "--config", str(cfgfile),
                     "--tol", "spinor-homomorphism=1.0"]) == 0

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense-key = 3\n")
        assert main(["groups", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("line", ["lmax = abc", "seed = 1.5", "tol.spinor-homomorphism = tiny"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert main(["groups", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: config key")


    def test_raising_check_is_reported_as_failure(self, tmp_path, monkeypatch):
        # one registered check raises as a too narrow radial window makes it raise
        def narrow_window(rng, cfg):
            raise RadialRangeError("section support reaches the radial window boundary")

        patched = [replace(c, fn=narrow_window) if c.name == "canonical-group-law" else c
                   for c in REGISTRY]
        monkeypatch.setattr("rp2quant.checks.REGISTRY", patched)
        out = tmp_path / "r.json"
        assert main(["representation", "--format", "json", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            c.name for c in checks_for_suite("representation")]
        errored = [c for c in checks if c["error"] is not None]
        assert errored
        for c in errored:
            assert c["error"].startswith("RadialRangeError: ") and not c["passed"]
        assert all(c["error"] is None for c in checks if c["passed"])


# --tol values: positive finite numbers, and what SuiteConfig must refuse
VALID_TOLS = st.floats(min_value=1e-30, max_value=1e30).map(repr)
INVALID_TOLS = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1e-9", "tiny", ""])


def _usable_tolerance(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0


class TestConfigSpace:
    """Every accepted configuration runs to a full report; others exit 2.

    Each example also overrides the tolerance of one of the suite's checks:
    a usable value never turns a runnable configuration into exit 2 and
    shows in the report, and any other value exits 2.
    """

    @pytest.mark.parametrize("suite", ["representation", "bundles", "groups", "classical",
                                       "heisenberg"])
    @settings(max_examples=8, deadline=None)
    @given(
        lmax=st.integers(1, 8),
        radial_nodes=st.integers(8, 40),
        samples=st.integers(1, 20),
        grid_n=st.sampled_from([2**k for k in range(4, 12)]),
        pick=st.integers(0, 63),
        tol=st.one_of(VALID_TOLS, INVALID_TOLS),
    )
    # at least one runnable configuration with a usable and with an unusable override
    @example(lmax=2, radial_nodes=24, samples=3, grid_n=256, pick=1, tol="1e-06")
    @example(lmax=2, radial_nodes=24, samples=3, grid_n=256, pick=1, tol="nan")
    def test_report_or_exit_two(self, tmp_path_factory, suite, lmax, radial_nodes,
                                samples, grid_n, pick, tol):
        names = [c.name for c in checks_for_suite(suite)]
        name = names[pick % len(names)]
        out = tmp_path_factory.mktemp("report") / "r.json"
        code = main([suite, "--lmax", str(lmax), "--radial-nodes", str(radial_nodes),
                     "--samples", str(samples), "--grid-n", str(grid_n),
                     "--tol", f"{name}={tol}", "--format", "json", "--out", str(out)])
        assert code in (0, 1, 2)
        if not _usable_tolerance(tol):
            assert code == 2
            return
        if code == 2:
            # only the sizes can be at fault: without the override they are refused too
            with pytest.raises(ConfigError):
                SuiteConfig(lmax=lmax, radial_nodes=radial_nodes, samples=samples, grid_n=grid_n)
            return
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == names
        assert next(c for c in report["checks"] if c["name"] == name)["tolerance"] == float(tol)
        assert code == (0 if report["summary"]["failed"] == 0 else 1)


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "rp2quant.cli", "heisenberg",
             "--seed", "4", "--format", "csv",
             "--out", str(tmp_path / "h.csv")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert (tmp_path / "h.csv").exists()
