"""The heisenberg suite and one operator-stream step under perfbench's tracer.

``perfbench/tracer.py`` counts the work of ``weyl_U`` by evaluating
``a == 0.0`` as a truth value, so a stacked call through the public, traced
``weyl_U`` raises under it.  The stacked checks reach the Weyl operators
through the private ``heisenberg._weyl_UV`` instead; this test loads the
tracer and the workloads from ``perfbench/`` as they are, installs the tracer
over the package, and requires every check and every stream residual to pass
without raising.
"""

import importlib.util
from pathlib import Path

from rp2quant.checks import SuiteConfig, checks_for_suite
from rp2quant.cli import run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_heisenberg_suite_and_stream_step_pass():
    tracer, workloads = _load("tracer"), _load("workloads")
    stream = workloads.OperatorStream()
    stream.setup()
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.unit_span(0):
            results = run_suite("heisenberg", SuiteConfig())
            gate = workloads.Gate()
            stream.unit(0, gate)
    finally:
        tr.uninstall()
    assert len(results) == len(checks_for_suite("heisenberg"))
    assert [(r.name, r.error) for r in results if not r.passed or r.error] == []
    assert (gate.failed, gate.attempted) == (0, len(workloads.OperatorStream.TOLERANCES))
    assert "heisenberg.check_weyl_relation" in tr.names     # the tracer did wrap the layer
