import numpy as np
from scipy.special import sph_harm_y

from rp2quant._kernels import backend_name, ylm_basis


def random_points(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


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
