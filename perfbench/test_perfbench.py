"""Self-tests of the benchmark: the gate fails wrong results, the tracer
accounts time and restores the package, and a short run prints a result.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math

import pytest

import run
import workloads

run.use_checkout_source()

import numpy as np  # noqa: E402
import rp2quant  # noqa: E402
from rp2quant import checks, groups, representation  # noqa: E402


def test_gate_counts_a_wrong_result():
    gate = workloads.Gate()
    gate.record("ok", 1e-12, 1e-10)
    gate.record("exact", 0.0, 1e-10)
    assert gate.fail_frac == 0.0
    gate.record("wrong", 1e-6, 1e-10)
    gate.record("nan", math.nan, 1e-10)
    assert (gate.failed, gate.attempted) == (2, 4)
    assert gate.fail_frac == 0.5
    assert gate.worst_ratio == workloads.RATIO_CEIL


def test_zero_residual_has_a_finite_margin():
    gate = workloads.Gate()
    gate.record("exact", 0.0, 1e-10)
    gate.close_unit()
    assert gate.margin_max == math.log10(workloads.RATIO_FLOOR)
    assert gate.unit_worst == [workloads.RATIO_FLOOR]


def test_harness_unit_counts_failed_checks(monkeypatch):
    ok = checks.Check("ok", "groups", "anchor", 1e-10, lambda rng, cfg: 0.0)
    wrong = checks.Check("wrong", "groups", "anchor", 1e-10, lambda rng, cfg: 1.0)
    monkeypatch.setattr(checks, "REGISTRY", [ok, wrong])
    harness = workloads.Harness(lmax=8)
    harness.setup()
    gate = workloads.Gate()
    harness.unit(0, gate)
    assert (gate.failed, gate.attempted) == (1, 2)
    assert gate.worst_name == "wrong"


@pytest.fixture(scope="module")
def stream():
    wl = workloads.OperatorStream()
    wl.setup()
    return wl


def test_stream_step_passes_then_fails_a_wrong_operator(stream, monkeypatch):
    gate = workloads.Gate()
    stream.unit(1, gate)
    assert gate.attempted == len(workloads.OperatorStream.TOLERANCES)
    assert gate.fail_frac == 0.0

    original = representation.act_canonical

    def lossy(*args):
        out = original(*args)
        return representation.full_section_from_matrix(
            out.radial, out.matrix() * (1 - 1e-3), out.lmax, out.sector)

    monkeypatch.setattr(representation, "act_canonical", lossy)
    stream.unit(2, gate)
    assert gate.failed == 1
    assert gate.worst_name == "canonical-operator-unitarity"


def test_unit_that_raises_is_a_failure_not_a_drop():
    class Broken:
        def unit(self, seed, gate):
            raise RuntimeError("boom")

    gate = workloads.Gate()
    walls, cpus = run.run_units(Broken(), "broken", 0, gate, budget_s=0.0, first_index=0)
    assert len(walls) == len(cpus) == 1
    assert (gate.failed, gate.attempted) == (1, 1)


def test_tail_needs_ten_units_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    walls = [float(i) for i in range(30)]
    pct, value = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tracer_wraps_aliases_and_restores_them():
    import tracer as tracing

    original = groups.spinor_map
    assert checks.spinor_map is original and rp2quant.spinor_map is original
    init = groups.SU2Element.__init__
    check_fns = [c.fn for c in checks.REGISTRY]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert checks.spinor_map is not original
        assert rp2quant.spinor_map is checks.spinor_map is groups.spinor_map
        rng = np.random.default_rng(0)
        g = groups.random_su2(rng)
        with tr.unit_span(0):
            traced = [checks.spinor_map(g) for _ in range(5)]
            groups.SU2Element(1.0, 0.0) * g
    finally:
        tr.uninstall()
    assert groups.spinor_map is original and checks.spinor_map is original
    assert groups.SU2Element.__init__ is init
    assert [c.fn for c in checks.REGISTRY] == check_fns
    assert np.array_equal(traced[0], original(g))

    summary = tr.summarize([0])
    assert summary["groups.spinor_map.calls"] == 5
    assert summary["groups.objects"] == 2          # constructor + product
    assert 0 < summary["groups.spinor_map.self_s"]
    shares = sum(v for k, v in summary.items() if k.endswith(".share"))
    assert 0 < shares <= 1.0 + 1e-12


def test_short_run_prints_a_result(capsys):
    assert run.main(["--workload", "operator-stream-lmax32", "--seed", "3",
                     "--seconds", "0.5", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "unit_s_p50", "unit_s_tail", "unit_cpu_s_p50", "setup_s",
        "peak_rss_mb", "pass_frac", "resid_tol_ratio_mean"}
