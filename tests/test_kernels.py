import importlib
import math
import pkgutil

import numpy as np
import pytest
from scipy.special import sph_harm_y

import rp2quant
from rp2quant._kernels import (
    _m_major_rows,
    _phase,
    _recurrence_tables,
    backend_name,
    ylm_basis,
    ylm_synthesize,
)
from rp2quant.harmonics import _ladder_tables, _odd_degree_mask, _s2_eigvecs
from rp2quant.manifold import _ring_tables, build_quadrature
from rp2quant.representation import FD_STEP, _fd_rows, log_uniform_grid


def random_points(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def random_tables(rng, lmax, *lead):
    k = (lmax + 1) ** 2
    return rng.normal(size=lead + (k,)) + 1j * rng.normal(size=lead + (k,))


def frozen_ylm_basis(xyz, lmax):
    """``ylm_basis`` as written before the recurrence moved into a shared helper."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    n = xyz.shape[0]
    diag, raise_, two_a, two_b = _recurrence_tables(lmax)

    ct = xyz[:, 2]
    st = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])

    out = np.zeros((n, (lmax + 1) * (lmax + 1)), dtype=np.complex128)
    plm = np.zeros((lmax + 1, n))
    pmm = np.full(n, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(lmax + 1):
        if m > 0:
            pmm = diag[m] * st * pmm
        plm[m] = pmm
        if m + 1 <= lmax:
            plm[m + 1] = raise_[m] * ct * plm[m]
        for l in range(m + 2, lmax + 1):
            plm[l] = two_a[l, m] * (ct * plm[l - 1] - two_b[l, m] * plm[l - 2])
        phase = np.exp(1j * m * phi)
        sign = -1.0 if m % 2 else 1.0
        for l in range(m, lmax + 1):
            y = plm[l] * phase
            out[:, l * l + l + m] = y
            if m > 0:
                out[:, l * l + l - m] = sign * np.conj(y)
    return out


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


class TestNumpyPath:
    def test_against_scipy(self, rng):
        pts = random_points(rng, 40)
        theta = np.arccos(pts[:, 2])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        basis = ylm_basis(pts, 10)
        for l in range(11):
            for m in range(-l, l + 1):
                ref = sph_harm_y(l, m, theta, phi)
                assert np.max(np.abs(basis[:, l * l + l + m] - ref)) < 1e-12

    def test_poles(self):
        basis = ylm_basis(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), 3)
        # only m = 0 survives at the poles
        for l in range(4):
            for m in range(-l, l + 1):
                col = basis[:, l * l + l + m]
                if m != 0:
                    assert np.max(np.abs(col)) == 0.0

    def test_backend_name(self):
        # perfbench/run.py records it among the machine facts
        assert backend_name() == "numpy"

    @pytest.mark.parametrize("lmax", [0, 1, 2, 7, 16, 32])
    def test_bitwise_equal_to_frozen_body(self, rng, lmax):
        pts = np.vstack([random_points(rng, 61), POLES, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]])
        assert ylm_basis(pts, lmax).tobytes() == frozen_ylm_basis(pts, lmax).tobytes()

    def test_phase_gives_the_bits_of_complex_exp(self, rng):
        # act_canonical's e^{-i r w} kept its bits when it moved to _phase
        x = np.concatenate([rng.normal(size=1000) * 10.0 ** rng.integers(-8, 6, 1000),
                            [0.0, -0.0, 5e-324, np.pi, 1e300]])
        assert _phase(-x).tobytes() == np.exp(-1j * x).tobytes()
        assert _phase(x[x != 0]).tobytes() == np.exp(1j * x[x != 0]).tobytes()


class TestSynthesize:
    @pytest.mark.parametrize("lmax", range(33))
    def test_matches_basis_matmul(self, rng, lmax):
        pts = np.vstack([random_points(rng, 50), POLES])
        c = random_tables(rng, lmax, 3)
        want = c @ ylm_basis(pts, lmax).T
        assert relative_error(ylm_synthesize(pts, lmax, c), want) <= 1e-13

    @pytest.mark.parametrize("lmax", [0, 1, 5, 32])
    def test_poles(self, rng, lmax):
        c = random_tables(rng, lmax)
        want = ylm_basis(POLES, lmax) @ c
        got = ylm_synthesize(POLES, lmax, c)
        assert got.shape == (2,)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_single_point(self, rng):
        x = random_points(rng, 1)
        c = random_tables(rng, 6)
        got = ylm_synthesize(x, 6, c)
        assert got.shape == (1,)
        assert relative_error(got, ylm_basis(x, 6) @ c) <= 1e-13

    @pytest.mark.parametrize("lmax", [3, 16, 24])
    def test_per_stack_points_equal_single_calls(self, rng, lmax):
        # one table per point set: each row gets the bits of its own call
        pts = np.stack([random_points(rng, 40) for _ in range(4)])
        c = random_tables(rng, lmax, 4)
        got = ylm_synthesize(pts, lmax, c)
        assert got.shape == (4, 40)
        for k in range(4):
            single = ylm_synthesize(pts[k], lmax, c[k])
            assert single.tobytes() == got[k].tobytes()
            assert relative_error(got[k], ylm_basis(pts[k], lmax) @ c[k]) <= 1e-13

    def test_stacks_of_tables_at_shared_points(self, rng):
        pts = random_points(rng, 30)
        c = random_tables(rng, 8, 2, 3)
        got = ylm_synthesize(pts, 8, c)
        assert got.shape == (2, 3, 30)
        assert relative_error(got, c @ ylm_basis(pts, 8).T) <= 1e-13

    def test_shared_and_stacked_points_agree(self, rng):
        pts = random_points(rng, 30)
        c = random_tables(rng, 12, 5)
        shared = ylm_synthesize(pts, 12, c)
        stacked = ylm_synthesize(np.broadcast_to(pts, (5, 30, 3)), 12, c)
        one_table = ylm_synthesize(np.broadcast_to(pts, (5, 30, 3)), 12, c[0])
        assert relative_error(stacked, shared) <= 1e-13
        assert relative_error(one_table, np.broadcast_to(shared[0], (5, 30))) <= 1e-13

    def test_rejects_bad_shapes(self, rng):
        c = random_tables(rng, 4)
        with pytest.raises(ValueError):
            ylm_synthesize(random_points(rng, 5), 5, c)
        with pytest.raises(ValueError):
            ylm_synthesize(np.array([0.0, 0.0, 1.0]), 4, c)
        with pytest.raises(ValueError):
            ylm_synthesize(np.zeros((5, 2)), 4, c)


# Every memoized table, as a tuple of arrays: the package hands out the same
# arrays to every caller, and every equal grid, so none of them may be writable.
MEMOS = {
    "recurrence tables": lambda grid: _recurrence_tables(8),
    "m-major rows": lambda grid: _m_major_rows(8),
    "odd-degree mask": lambda grid: (_odd_degree_mask(8),),
    "ladder tables": lambda grid: _ladder_tables(8),
    "S2 eigenvectors": lambda grid: (_s2_eigvecs(5),),
    "ring tables": lambda grid: _ring_tables(grid.lmax_exact, 8),
    "antipode": lambda grid: (grid.antipode,),
    "dense basis": lambda grid: (grid.basis(8),),
    "nodes and weights": lambda grid: (grid.nodes, grid.weights),
    "radial nodes": lambda grid: (log_uniform_grid(0.0625, 32.0, 64).nodes,),
    "FD rows": lambda grid: (_fd_rows(FD_STEP),),
}


@pytest.mark.parametrize("name", MEMOS)
def test_memoized_arrays_are_shared_and_read_only(grid8, name):
    arrays, again = MEMOS[name](grid8), MEMOS[name](build_quadrature(8))
    assert all(a is b for a, b in zip(arrays, again, strict=True))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def _module_arrays():
    """(module.name, array) for every top-level array and tuple of arrays in rp2quant."""
    for info in pkgutil.iter_modules(rp2quant.__path__):
        if info.name == "__main__":                 # running it would start the CLI
            continue
        module = importlib.import_module(f"rp2quant.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, np.ndarray):
                yield f"{info.name}.{name}", obj
            elif isinstance(obj, tuple) and obj and all(isinstance(a, np.ndarray) for a in obj):
                yield from ((f"{info.name}.{name}[{k}]", a) for k, a in enumerate(obj))


def test_module_constant_arrays_are_read_only():
    found = dict(_module_arrays())
    assert "groups.PAULI[0]" in found and "harmonics._ARG_SIGNS" in found
    assert [name for name, a in found.items() if a.flags.writeable] == []
