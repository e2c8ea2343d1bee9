import numpy as np
import pytest

from hessprec.data import (
    gen_blobs,
    gen_classification,
    gen_regression,
    read_dataset,
    train_test_split,
    write_csv,
    write_dataset,
)
from hessprec.problems import raw_monomials


class TestGenerators:
    def test_regression_shapes_and_determinism(self):
        X, y = gen_regression(0, 100, input_dim=4, n_features=10, noise=0.1)
        assert X.shape == (100, 4) and y.shape == (100,)
        X2, y2 = gen_regression(0, 100, input_dim=4, n_features=10, noise=0.1)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)
        X3, _ = gen_regression(1, 100, input_dim=4, n_features=10, noise=0.1)
        assert not np.array_equal(X, X3)

    def test_regression_truth_in_monomial_span(self):
        X, y = gen_regression(3, 500, input_dim=3, n_features=9, noise=0.0)
        feats = raw_monomials(X, 9)
        coef, *_ = np.linalg.lstsq(feats, y, rcond=None)
        np.testing.assert_allclose(feats @ coef, y, atol=1e-10)

    def test_regression_signal_dim_restricts_support(self):
        X, y = gen_regression(4, 400, input_dim=3, n_features=9, noise=0.0,
                              signal_dim=4)
        feats = raw_monomials(X, 9)
        coef, *_ = np.linalg.lstsq(feats[:, :4], y, rcond=None)
        np.testing.assert_allclose(feats[:, :4] @ coef, y, atol=1e-10)
        full, *_ = np.linalg.lstsq(feats, y, rcond=None)
        np.testing.assert_allclose(full[4:], 0.0, atol=1e-8)

    def test_regression_equal_coef_magnitudes(self):
        X, y = gen_regression(6, 600, input_dim=3, n_features=9, noise=0.0,
                              signal_dim=4, equal_coef=True)
        feats = raw_monomials(X, 9)
        coef, *_ = np.linalg.lstsq(feats[:, :4], y, rcond=None)
        np.testing.assert_allclose(np.abs(coef), 0.5, atol=1e-8)
        # signs still come from the seed's draw, so both appear in general
        _, y2 = gen_regression(6, 600, input_dim=3, n_features=9, noise=0.0,
                               signal_dim=4)
        assert not np.allclose(y, y2)

    def test_regression_signal_dim_out_of_range(self):
        with pytest.raises(ValueError):
            gen_regression(0, 50, input_dim=3, n_features=9, signal_dim=10)
        with pytest.raises(ValueError):
            gen_regression(0, 50, input_dim=3, n_features=9, signal_dim=0)

    def test_regression_noise_is_relative(self):
        X, clean = gen_regression(5, 2000, input_dim=3, n_features=9, noise=0.0)
        _, noisy = gen_regression(5, 2000, input_dim=3, n_features=9, noise=0.5)
        resid = noisy - clean
        assert 0.3 * np.std(clean) < np.std(resid) < 0.8 * np.std(clean)

    def test_classification_labels(self):
        X, labels = gen_classification(0, 300, input_dim=6, separation=3.0)
        assert X.shape == (300, 6)
        assert set(np.unique(labels)) == {-1.0, 1.0}
        # class-conditional means separated along the true direction
        gap = X[labels == 1].mean(axis=0) - X[labels == -1].mean(axis=0)
        assert np.linalg.norm(gap) == pytest.approx(3.0, rel=0.25)

    def test_blobs_labels(self):
        X, labels = gen_blobs(0, 400, input_dim=5, n_classes=7, separation=3.0)
        assert X.shape == (400, 5)
        assert labels.dtype.kind == "i"
        assert set(np.unique(labels)) == set(range(7))


class TestDatasetIo:
    def test_float_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        path = tmp_path / "data.csv"
        write_dataset(path, X, y)
        X2, y2 = read_dataset(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)

    def test_integer_targets_written_as_ints(self, tmp_path):
        X = np.ones((3, 2))
        labels = np.array([0, 2, 1])
        path = tmp_path / "labels.csv"
        write_dataset(path, X, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,target"
        assert lines[1].endswith(",0")
        _, back = read_dataset(path)
        np.testing.assert_array_equal(back.astype(int), labels)

    def test_written_bytes(self, tmp_path):
        # features and float targets in round-trip %.17g, integral targets as integers
        path = tmp_path / "golden.csv"
        write_dataset(path, np.array([[0.1, -2.0], [1e-20, 3.5]]), np.array([2.0, 0.25]))
        assert path.read_bytes() == (b"x0,x1,target\n"
                                     b"0.10000000000000001,-2,2\n"
                                     b"9.9999999999999995e-21,3.5,0.25\n")

    def test_write_csv_cell_rule(self, tmp_path):
        # strings as they are, integers as digits, any other number as repr(float(x))
        path = tmp_path / "cells.csv"
        write_csv(path, ("a", "b", "c", "d", "e", "f", "g", "h"),
                  [(7, np.int64(-42), 0.1, np.float64(1e-20), float("nan"), float("inf"),
                    -0.0, "sgd[lr=0.1]")])
        assert path.read_bytes() == (b"a,b,c,d,e,f,g,h\n"
                                     b"7,-42,0.1,1e-20,nan,inf,-0.0,sgd[lr=0.1]\n")

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("target\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="at least one feature"):
            read_dataset(path)


class TestTrainTestSplit:
    def test_partition_properties(self):
        tr, te = train_test_split(100, 0.2, seed=0)
        assert len(tr) == 80 and len(te) == 20
        assert np.all(np.diff(tr) > 0) and np.all(np.diff(te) > 0)
        assert set(tr) | set(te) == set(range(100))
        assert set(tr) & set(te) == set()

    def test_deterministic_and_seed_dependent(self):
        tr1, te1 = train_test_split(50, 0.3, seed=4)
        tr2, te2 = train_test_split(50, 0.3, seed=4)
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(te1, te2)
        tr3, _ = train_test_split(50, 0.3, seed=5)
        assert not np.array_equal(tr1, tr3)

    def test_zero_fraction(self):
        tr, te = train_test_split(10, 0.0, seed=0)
        assert len(te) == 0 and len(tr) == 10

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(10, 1.0, seed=0)
