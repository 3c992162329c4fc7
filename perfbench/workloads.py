"""The benchmark's workloads and the correctness gate every unit passes through.

A workload is a `setup()` that imports rp2quant and builds what every unit
shares, plus a `unit()` that does one unit of work from its own master seed
and feeds every residual to a `Gate`.  rp2quant is imported inside `setup()`
on purpose: set-up time includes the import, as it does for a user.
"""

import math
import traceback

# Floor for residual/tolerance ratios, so a zero residual has a finite log10.
RATIO_FLOOR = 1e-30
# Ceiling for a residual that is NaN/inf or a unit that raised.
RATIO_CEIL = 1e30


class Gate:
    """Counts verifications, failures and the worst residual/tolerance ratio,
    over the whole run and per unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = RATIO_FLOOR
        self.worst_name = None
        self.unit_worst: list[float] = []     # one entry per closed unit
        self._open_worst = RATIO_FLOOR

    def record(self, name: str, residual: float, tolerance: float, passed=None) -> None:
        if passed is None:
            passed = residual <= tolerance
        ratio = residual / tolerance
        if not math.isfinite(ratio):
            ratio = RATIO_CEIL
        ratio = min(max(ratio, RATIO_FLOOR), RATIO_CEIL)
        self.attempted += 1
        self.failed += 0 if passed else 1
        self._open_worst = max(self._open_worst, ratio)
        if ratio >= self.worst_ratio:
            self.worst_ratio, self.worst_name = ratio, name

    def close_unit(self) -> None:
        self.unit_worst.append(self._open_worst)
        self._open_worst = RATIO_FLOOR

    def error(self, name: str, exc: BaseException) -> None:
        """A unit that raised counts as one failed verification."""
        traceback.print_exception(exc)
        self.record(f"{name}: {type(exc).__name__}", math.inf, 1.0, passed=False)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def margin_max(self) -> float:
        """Worst log10(residual / tolerance) seen."""
        return math.log10(self.worst_ratio)


# ------------------------------------------------------------- harness

class Harness:
    """`run_suite("all")` at the shipped defaults except for lmax."""

    def __init__(self, lmax: int):
        self.lmax = lmax

    def setup(self) -> None:
        # The harness builds its grids and bases lazily inside the first
        # report, as `rp2quant all` does on every invocation.
        from rp2quant.checks import SuiteConfig
        from rp2quant.cli import run_suite

        self.run_suite, self.SuiteConfig = run_suite, SuiteConfig

    def unit(self, seed: int, gate: Gate) -> None:
        cfg = self.SuiteConfig(lmax=self.lmax, rng_seed=seed)
        for r in self.run_suite("all", cfg):
            gate.record(r.name, r.residual, r.tolerance, passed=r.passed)


# ------------------------------------------------------ operator stream

class OperatorStream:
    """One step applies each operator layer at lmax 32 to fresh inputs.

    The canonical element (w, g, λ) and the odd table are drawn the way the
    harness's canonical-operator ensemble draws them (|w| = 0.0025,
    λ ∈ e^{±0.13}, content up to l = 4), and each result is held to the
    tolerance of the harness check that verifies the same identity.
    """

    LMAX = 32
    RADIAL_NODES = 64
    PACKET_N = 65536
    TOLERANCES = (
        "canonical-operator-unitarity",
        "rotation-unitarity",
        "analyze-evaluate-roundtrip",
        "weyl-exchange-relation",
        "representation-homomorphism",
        "operator-unitarity",
    )

    def setup(self) -> None:
        import numpy as np
        import rp2quant
        from rp2quant import classical, groups, heisenberg, harmonics, representation
        from rp2quant.checks import checks_for_suite

        tol = {c.name: c.tolerance for c in checks_for_suite("all")}
        self.tol = {name: tol[name] for name in self.TOLERANCES}
        self.np, self.classical, self.groups, self.heisenberg = np, classical, groups, heisenberg
        self.harmonics, self.representation = harmonics, representation
        self.grid = rp2quant.build_quadrature(self.LMAX)
        self.grid.basis(self.LMAX)
        self.radial = representation.log_uniform_grid(0.0625, 32.0, self.RADIAL_NODES)
        u = np.log(self.radial.nodes)
        self.profile = np.exp(-((u - 0.347) ** 2) / (2 * 0.4**2))
        self.psi = heisenberg.gaussian_packet(self.PACKET_N, 20.0, 0.4, 1.0, 0.6)

    def unit(self, seed: int, gate: Gate) -> None:
        np, hz, hm, rep = self.np, self.heisenberg, self.harmonics, self.representation
        rng = np.random.default_rng(seed)
        lmax, grid, psi, tol = self.LMAX, self.grid, self.psi, self.tol

        c = np.array(hm.random_coeffs(lmax, "odd", rng).c)
        c[25:] = 0.0
        c /= np.linalg.norm(c)
        fs = rep.separable_section(self.radial, self.profile, hm.HarmonicCoeffs(lmax, "odd", c))
        cm = self.classical.w_matrix(rng.normal(size=5))
        cm *= 0.0025 / np.linalg.norm(cm)
        w = self.classical.WFunctional(cm, rng.normal() * 0.05)
        g = self.groups.random_su2(rng)
        lam = float(np.exp(rng.uniform(-0.13, 0.13)))
        out = rep.act_canonical(w, g, lam, fs, grid)
        gate.record("canonical-operator-unitarity",
                    abs(out.norm() - fs.norm()) / fs.norm(),
                    tol["canonical-operator-unitarity"])

        a = hm.random_coeffs(lmax, "odd", rng)
        rotated = hm.rotate_coeffs(g, a, grid)
        gate.record("rotation-unitarity", abs(rotated.norm() - a.norm()),
                    tol["rotation-unitarity"])
        back = hm.analyze(np.asarray(hm.evaluate(a, grid.nodes)), lmax, grid)
        gate.record("analyze-evaluate-roundtrip",
                    float(np.linalg.norm(back.c - a.c) / a.norm()),
                    tol["analyze-evaluate-roundtrip"])

        gate.record("weyl-exchange-relation",
                    hz.check_weyl_relation(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3), psi),
                    tol["weyl-exchange-relation"])
        e1, e2 = (hz.HeisenbergElement(rng.uniform(-1, 1, 1), rng.uniform(-2, 2, 1), rng.normal())
                  for _ in range(2))
        lhs = hz.rep_heisenberg(e1, hz.rep_heisenberg(e2, psi))
        rhs = hz.rep_heisenberg(hz.heisenberg_product(e1, e2), psi)
        gate.record("representation-homomorphism",
                    float(np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(psi.values)),
                    tol["representation-homomorphism"])
        gate.record("operator-unitarity", abs(lhs.norm() - psi.norm()),
                    tol["operator-unitarity"])


WORKLOADS = {
    "harness-default": lambda: Harness(lmax=8),
    "harness-lmax16": lambda: Harness(lmax=16),
    "operator-stream-lmax32": OperatorStream,
}
