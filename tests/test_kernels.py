import numpy as np
import pytest
from scipy.integrate import quad

from localquant import (
    Dataset,
    DimensionMismatch,
    Kernel,
    LocalizationSpec,
    localization_weights,
)

ALL_KERNELS = list(Kernel)


def scalar_weight(kernel: Kernel, x0, x, h):
    """Brute-force product weight for one row, all in plain Python."""
    w = 1.0
    for x0j, xj, hj in zip(x0, x, h):
        w *= kernel.evaluate((x0j - xj) / hj)
    return w


def test_triangular_values():
    assert Kernel.TRIANGULAR.evaluate(0.0) == 1.0
    assert Kernel.TRIANGULAR.evaluate(1.5) == 0.0
    assert Kernel.TRIANGULAR.evaluate(0.25) == 0.75


def test_biweight_peak():
    # (15/16) (1 - 0)^2
    assert Kernel.BIWEIGHT.evaluate(0.0) == 0.9375
    assert Kernel.BIWEIGHT.max_value == 0.9375


def test_kernel_max_values():
    assert Kernel.TRIANGULAR.max_value == 1.0
    assert Kernel.UNIFORM.max_value == 0.5
    assert abs(Kernel.GAUSSIAN.max_value - 0.3989422804014327 / (2 * 0.9999997133484281 - 1)) < 1e-12


def test_product_kernel_max():
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.0, 0.0], [1.0, 1.0])
    assert spec.kernel_max == 1.0
    spec2 = LocalizationSpec(Kernel.BIWEIGHT, [0.0, 0.0], [1.0, 1.0])
    assert spec2.kernel_max == 0.9375**2


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=[k.value for k in ALL_KERNELS])
def test_bounds_and_symmetry(kernel):
    rng = np.random.default_rng(11)
    u = rng.uniform(-6, 6, size=500)
    vals = kernel.evaluate(u)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= kernel.max_value + 1e-15)
    assert np.allclose(vals, kernel.evaluate(-u), rtol=0, atol=0)
    assert kernel.evaluate(0.0) == kernel.max_value


# LocalizationSpec(kernel, zeros(d), ones(d)).kernel_max for d = 1..13, as float.hex:
# QR accepts row i with probability w_i / kernel_max, so these bits reach every QR output
KERNEL_MAX_HEX = {
    Kernel.TRIANGULAR: ["0x1.0000000000000p+0"] * 13,
    Kernel.BIWEIGHT: [
        "0x1.e000000000000p-1", "0x1.c200000000000p-1", "0x1.a5e0000000000p-1",
        "0x1.8b82000000000p-1", "0x1.72c9e00000000p-1", "0x1.5b9d420000000p-1",
        "0x1.45e36de000000p-1", "0x1.3185370200000p-1", "0x1.1e6ce391e0000p-1",
        "0x1.0c861558c2000p-1", "0x1.f77b68066bc00p-2", "0x1.d803b18605040p-2",
        "0x1.ba83766da4b3cp-2",
    ],
    Kernel.UNIFORM: [f"0x1.0000000000000p-{d}" for d in range(1, 14)],
    Kernel.GAUSSIAN: [
        "0x1.988462968e944p-2", "0x1.45f31f5adbd9ap-3", "0x1.0412046dde9d7p-4",
        "0x1.9f0334813c8b0p-6", "0x1.4b21dc942c1f9p-7", "0x1.08349a43cbb6cp-8",
        "0x1.a59c76bb1ca6ep-10", "0x1.5065b222a40b7p-11", "0x1.0c6804f1ea38dp-12",
        "0x1.ac5094e1c65bfp-14", "0x1.55bef5e3aba7ap-15", "0x1.10ac88fadca96p-16",
        "0x1.b31ffc48da6dap-18",
    ],
}


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=[k.value for k in ALL_KERNELS])
def test_kernel_max_bits_and_bound(kernel):
    got = [LocalizationSpec(kernel, np.zeros(d), np.ones(d)).kernel_max.hex() for d in range(1, 14)]
    assert got == KERNEL_MAX_HEX[kernel]
    u = np.linspace(-6.0, 6.0, 120_001)  # includes u = 0 and both support ends
    assert np.all(kernel.evaluate(u) <= kernel.max_value)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=[k.value for k in ALL_KERNELS])
def test_integrates_to_one(kernel):
    r = kernel.support_radius
    total, _ = quad(lambda u: kernel.evaluate(u), -r, r, points=[0.0], limit=200)
    assert abs(total - 1.0) < 1e-6


def test_weight_at_center_is_one():
    data = Dataset(covariates=[[0.5]], responses=[2.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    ws = localization_weights(data, spec)
    assert ws.weights[0] == 1.0
    assert ws.responses[0] == 2.0


def test_weight_outside_support_is_zero():
    data = Dataset(covariates=[[0.9]], responses=[2.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    ws = localization_weights(data, spec)
    assert ws.weights[0] == 0.0


def test_weight_hand_evaluated():
    # (1 - |0.05/0.1|)_+ = 0.5, cross-checked against the scalar evaluator
    data = Dataset(covariates=[[0.45]], responses=[0.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    ws = localization_weights(data, spec)
    assert ws.weights[0] == pytest.approx(0.5, rel=1e-15)
    assert ws.weights[0] == scalar_weight(Kernel.TRIANGULAR, [0.5], [0.45], [0.1])


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=[k.value for k in ALL_KERNELS])
def test_multivariate_weights_match_scalar_evaluator(kernel):
    rng = np.random.default_rng(202)
    n, d = 40, 3
    x = rng.uniform(0, 1, size=(n, d))
    y = rng.normal(size=n)
    data = Dataset(covariates=x, responses=y)
    center = [0.4, 0.6, 0.5]
    bw = [0.3, 0.2, 0.5]
    ws = localization_weights(data, LocalizationSpec(kernel, center, bw))
    for i in range(n):
        expect = scalar_weight(kernel, center, x[i], bw)
        assert ws.weights[i] == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, size=(30, 3))
    y = rng.normal(size=30)
    center = np.array([0.2, 0.5, 0.8])
    bw = np.array([0.3, 0.4, 0.5])
    perm = [2, 0, 1]
    w1 = localization_weights(
        Dataset(x, y), LocalizationSpec(Kernel.BIWEIGHT, center, bw)
    ).weights
    w2 = localization_weights(
        Dataset(x[:, perm], y), LocalizationSpec(Kernel.BIWEIGHT, center[perm], bw[perm])
    ).weights
    assert np.allclose(w1, w2, rtol=1e-15)


def test_row_order_preserved():
    x = np.array([[0.5], [0.45], [0.55]])
    y = np.array([1.0, 2.0, 3.0])
    ws = localization_weights(Dataset(x, y), LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1]))
    assert np.array_equal(ws.responses, y)
    assert ws.weights[0] == 1.0
    assert ws.weights[1] == pytest.approx(0.5, rel=1e-15)
    assert ws.weights[2] == pytest.approx(0.5, rel=1e-15)


def test_dimension_mismatch():
    data = Dataset(covariates=[[0.5, 0.5]], responses=[1.0])
    with pytest.raises(DimensionMismatch):
        localization_weights(data, LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1]))


def test_gaussian_truncated_support():
    data = Dataset(covariates=[[0.5 + 4.99 * 0.1], [0.5 + 5.01 * 0.1]], responses=[0.0, 0.0])
    ws = localization_weights(data, LocalizationSpec(Kernel.GAUSSIAN, [0.5], [0.1]))
    assert ws.weights[0] > 0.0
    assert ws.weights[1] == 0.0


def test_subnormal_weights_flush_to_zero():
    # ten near-edge biweight factors multiply to ~1e-310, which must flush
    # to exactly 0 rather than linger as a subnormal
    d = 10
    u_edge = 1.0 - 2e-16
    per_dim = Kernel.BIWEIGHT.evaluate(u_edge)
    assert 0.0 < per_dim**d < 1e-300
    data = Dataset(covariates=[[u_edge] * d], responses=[0.0])
    spec = LocalizationSpec(Kernel.BIWEIGHT, [0.0] * d, [1.0] * d)
    ws = localization_weights(data, spec)
    assert ws.weights[0] == 0.0


@pytest.mark.parametrize("center, bandwidths, message", [
    ([], [], "at least one dimension"),
    ([[0.5]], [[0.1]], "1-dimensional"),
])
def test_spec_needs_one_dimension_or_more(center, bandwidths, message):
    with pytest.raises(ValueError, match=message):
        LocalizationSpec(Kernel.TRIANGULAR, center, bandwidths)


def test_spec_validation():
    with pytest.raises(ValueError):
        LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.0])
    with pytest.raises(ValueError):
        LocalizationSpec(Kernel.TRIANGULAR, [0.5, 0.5], [0.1])
    with pytest.raises(ValueError):
        Kernel.from_name("epanechnikov")
    assert Kernel.from_name(" Gaussian ") is Kernel.GAUSSIAN
