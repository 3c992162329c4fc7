"""Command-line harness running the verification suites and emitting reports.

Usage:
    rp2quant all --seed 1 --format json --out report.json
    rp2quant heisenberg --grid-n 2048 --tol ccr-residual=1e-9

Exit codes: 0 all checks passed, 1 at least one failure (a check that
raises is reported as a failure), 2 configuration error, or an ``--out``
path that cannot be written (refused before any check runs).  Fixed (seed,
config) reproduces every residual bit-for-bit; wall times are the only
volatile report fields.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from ._kernels import backend_name
from .checks import SUITES, SuiteConfig, check_rng, checks_for_suite
from .errors import ConfigError

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    residual: float
    tolerance: float
    passed: bool
    wall_time_ms: float
    paper_anchor: str
    error: str | None = None     # "<Type>: <message>" when the check raised


def run_suite(suite: str, cfg: SuiteConfig) -> list[CheckResult]:
    """Execute every check of the suite with per-check seeded RNG streams.

    A check that raises is reported as failed, with a NaN residual and the
    exception in ``error``; its traceback goes to stderr and the remaining
    checks still run.
    """
    results = []
    for check in checks_for_suite(suite):
        tol = cfg.tol_overrides.get(check.name, check.tolerance)
        rng = check_rng(cfg.rng_seed, check.name)
        error = None
        t0 = time.perf_counter()
        try:
            residual = float(check.fn(rng, cfg))
        except Exception as exc:
            traceback.print_exc()
            residual, error = math.nan, f"{type(exc).__name__}: {exc}"
        dt = (time.perf_counter() - t0) * 1e3
        results.append(
            CheckResult(
                name=check.name,
                suite=check.suite,
                residual=residual,
                tolerance=tol,
                passed=residual <= tol,
                wall_time_ms=dt,
                paper_anchor=check.anchor,
                error=error,
            )
        )
    return results


# |margin| cap, as perfbench clamps residual/tolerance to [1e-30, 1e30]: a
# zero residual reads MARGIN_CLAMP decades below its bound
MARGIN_CLAMP = 30.0


def _margin(residual: float, tolerance: float) -> float | None:
    """log10(residual / tolerance), clamped to ±MARGIN_CLAMP; None for a NaN residual.

    Negative when the check passes with room to spare: -2 is two decades
    under the bound.  A zero residual reads -MARGIN_CLAMP, and a positive
    residual against a tolerance ≤ 0 reads +MARGIN_CLAMP.
    """
    if math.isnan(residual):
        return None
    if residual <= 0.0:
        return -MARGIN_CLAMP
    if tolerance <= 0.0:
        return MARGIN_CLAMP
    return min(max(math.log10(residual / tolerance), -MARGIN_CLAMP), MARGIN_CLAMP)


# environment variables that size the BLAS thread pool
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Where the checks run: backend, numpy and its BLAS, BLAS threads, CPU count.

    The BLAS entry is numpy's build record; the thread entry is each of
    BLAS_THREAD_VARS as set in the environment (None when unset).  Every field
    is fixed for one machine and environment, so reports of one config stay
    identical.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": backend_name(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def render_report(results: list[CheckResult], fmt: str, cfg: SuiteConfig) -> str:
    if fmt == "json":
        payload = {
            "version": __version__,
            "env": environment(),
            "seed": cfg.rng_seed,
            "config": {
                "lmax": cfg.lmax,
                "grid_n": cfg.grid_n,
                "radial_nodes": cfg.radial_nodes,
                "samples": cfg.samples,
                "tol_overrides": dict(sorted(cfg.tol_overrides.items())),
            },
            "checks": [
                {**asdict(r), "margin": _margin(r.residual, r.tolerance)} for r in results
            ],
            "summary": {
                "passed": sum(r.passed for r in results),
                "failed": sum(not r.passed for r in results),
                "total": len(results),
                "total_ms": sum(r.wall_time_ms for r in results),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["name", "suite", "residual", "tolerance", "passed",
             "wall_time_ms", "paper_anchor", "error"]
        )
        for r in results:
            writer.writerow(
                [r.name, r.suite, f"{r.residual:.17g}", f"{r.tolerance:.17g}",
                 r.passed, f"{r.wall_time_ms:.3f}", r.paper_anchor, r.error or ""]
            )
        return buf.getvalue()
    lines = []
    width = max((len(r.name) for r in results), default=10)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{mark}] {r.name:<{width}}  residual {r.residual:11.4e}  "
            f"tol {r.tolerance:8.1e}  {r.wall_time_ms:9.2f} ms"
            + (f"  {r.error}" if r.error else "")
        )
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def emit_report(results: list[CheckResult], fmt: str, path, cfg: SuiteConfig) -> None:
    """Write the rendered report to a file path, or stdout when path is None."""
    text = render_report(results, fmt, cfg)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_tol(items) -> dict:
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return overrides


def _config_value(kind, key: str, value: str):
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {value!r}") from exc


def _read_config_file(path) -> dict:
    """key=value per line; '#' comments; tol.NAME=VALUE for overrides."""
    values: dict = {"tol_overrides": {}}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key.startswith("tol."):
                values["tol_overrides"][key[4:]] = _config_value(float, key, value)
            elif key in ("lmax", "grid_n", "radial_nodes", "samples", "seed"):
                values[key] = _config_value(int, key, value)
            elif key in ("format", "out"):
                values[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rp2quant",
        description="Run the numerical verification suites and emit a report.",
    )
    parser.add_argument("suite", choices=SUITES + ("all",))
    parser.add_argument("--lmax", type=int, default=None)
    parser.add_argument("--grid-n", type=int, default=None)
    parser.add_argument("--radial-nodes", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--tol", action="append", metavar="NAME=VALUE",
        help="override one check tolerance (repeatable)",
    )
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    parser.add_argument("--config", default=None, help="key=value config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = _read_config_file(args.config) if args.config else {}
        tol = dict(file_values.get("tol_overrides", {}))
        tol.update(_parse_tol(args.tol))

        def pick(flag, key, default=None):
            if flag is not None:
                return flag
            return file_values.get(key, default)

        # only the values that were set: SuiteConfig holds the defaults
        given = {"lmax": pick(args.lmax, "lmax"), "grid_n": pick(args.grid_n, "grid_n"),
                 "radial_nodes": pick(args.radial_nodes, "radial_nodes"),
                 "samples": pick(args.samples, "samples"), "rng_seed": pick(args.seed, "seed")}
        cfg = SuiteConfig(**{k: v for k, v in given.items() if v is not None},
                          tol_overrides=tol)
        fmt = pick(args.format, "format", "text")
        if fmt not in FORMATS:
            raise ConfigError(f"unknown format {fmt!r}")
        out = pick(args.out, "out")
        if out is not None:
            open(out, "a").close()      # an unwritable report path is refused before any check runs
        results = run_suite(args.suite, cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(results, fmt, out, cfg)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
