"""Input checks of the containers in `localquant.base`."""

import math

import numpy as np
import pytest

from localquant import Dataset, IntervalResult, QuantileSpec, Replicates


@pytest.mark.parametrize("make, message", [
    (lambda: Dataset(np.zeros((2, 1, 1)), [1.0, 2.0]), "must be 2-dimensional"),
    (lambda: Dataset([[0.1], [0.2]], [1.0]), "same number of rows"),
    (lambda: Dataset(np.zeros((0, 1)), []), "at least one row"),
    (lambda: Replicates(np.zeros((2, 3, 1)), np.zeros((2, 4))), "must be"),
    (lambda: QuantileSpec(1.0, 0.1, 0.05), "p must lie"),
    (lambda: QuantileSpec(0.5, 1.5, 0.05), "alpha must lie"),
    (lambda: QuantileSpec(0.5, 0.1, 0.2), "alpha1 must lie"),
    (lambda: IntervalResult(0.0, 1.0, "XY", 1.0), "unknown method tag"),
    (lambda: IntervalResult(math.nan, 1.0, "QR", 1.0), "cannot be NaN"),
    (lambda: IntervalResult(1.0, 0.0, "QR", 1.0), "out of order"),
    (lambda: IntervalResult(-math.inf, 1.0, "WQ", 1.0), "finite endpoints"),
], ids=["dataset-3d", "dataset-rows", "dataset-empty", "replicates-shapes", "spec-p",
        "spec-alpha", "spec-alpha1", "result-method", "result-nan", "result-order",
        "result-wq-infinite"])
def test_base_rejects_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_one_dimensional_covariates_are_one_column():
    data = Dataset([0.3, 0.1, 0.2], [1.0, 2.0, 3.0])
    assert data.covariates.shape == (3, 1) and data.dim == 1 and data.x_names == ("x0",)


def test_interval_width():
    assert IntervalResult(-1.0, 2.5, "WQ", 3.0).width == 3.5
    assert IntervalResult(-math.inf, 2.5, "QR", 3.0).width == math.inf
