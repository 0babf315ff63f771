import json
import math
import tracemalloc

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    DimensionMismatch,
    GaussianProcessModel,
    ModelConfigError,
    NonMonotone,
    PoissonKernel,
    RateNotFinite,
    SeparableFieldModel,
    White,
)
from entrospec import sampling, smb
from entrospec.cli import EXIT_OK, main
from entrospec.gaussian_model import LOG_2PI
from entrospec.sampling import (
    ensemble_residuals,
    ensemble_streams,
    log_derivative,
    sample_field,
    sample_paths,
    standard_normals,
)
from entrospec.toeplitz import _FACTOR_BLOCK
from entrospec.smb import (
    expected_log_derivative,
    information_at,
    smb2d_experiment,
    smb_experiment,
)

from conftest import ARC_GAP


def innovation_average(model, X):
    """(1/(n-1)) sum of the squared normalized innovations of the one path
    in X at orders 1..n-1; it tends to 1 along Gaussian paths."""
    n = X.shape[1]
    e = ensemble_residuals(model, X)[0]
    return float(np.mean(e[1:] ** 2 / model.factorization(n).sigma2[1:n]))


class TestInformationPath:
    def test_matches_exact_block_density(self, zoo):
        # two routes to I_n: incremental innovations vs direct -log rho_n
        for model in zoo.values():
            X = sample_paths(model, 64, [5])
            path = information_at(model, X, range(1, 65))[0]
            for n in (1, 2, 17, 64):
                direct = -model.log_block_density(X[0, :n])
                assert abs(path[n - 1] - direct) <= 1e-8

    def test_deterministic_zero_path(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        path = information_at(model, np.zeros((1, 16)), range(1, 17))[0]
        fact = model.factorization(16)
        want = 0.5 * np.cumsum(np.log(2 * np.pi * fact.sigma2[:16]))
        assert np.allclose(path, want, atol=1e-12)

    def test_transformed_path_adds_jacobian(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 32, [9])
        dphi = lambda x: 1 + 0.1 * np.cos(x)
        base = information_at(model, X, range(1, 33))[0]
        trans = information_at(model, X, range(1, 33), dphi)[0]
        assert np.allclose(trans - base, np.cumsum(log_derivative(dphi, X[0])), atol=1e-12)

    def test_innovation_average_near_one(self):
        model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
        X = sample_paths(model, 10000, [17])
        assert innovation_average(model, X) == pytest.approx(1.0, abs=0.06)

    def test_innovation_average_zero_path(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert innovation_average(model, np.zeros((1, 64))) == 0.0

    @pytest.mark.parametrize("grid", [[0, 4], [4, 9], [9], []])
    def test_grid_outside_paths_raises(self, grid):
        model = GaussianProcessModel(PoissonKernel(0.5))
        X = sample_paths(model, 8, [1, 2])
        with pytest.raises(DimensionMismatch):
            information_at(model, X, grid)
        with pytest.raises(DimensionMismatch):
            information_at(model, X[0], [4])


class TestExpectedLogDerivative:
    def test_constant_derivative(self):
        assert expected_log_derivative(lambda x: 3.0 * np.ones_like(x), 1.0) == pytest.approx(
            math.log(3.0), abs=1e-12
        )

    def test_frozen_oracle_value(self):
        # E[log(1 + 0.1 cos X)], X ~ N(0,1): quadrature oracle frozen once
        got = expected_log_derivative(lambda x: 1 + 0.1 * np.cos(x), 1.0)
        assert got == pytest.approx(0.05795692528396653, abs=1e-10)

    def test_monte_carlo_cross_check(self):
        z = standard_normals(ensemble_streams(31, 1)[0], 400000)
        mc = float(np.mean(np.log(1 + 0.1 * np.cos(z))))
        exact = expected_log_derivative(lambda x: 1 + 0.1 * np.cos(x), 1.0)
        assert mc == pytest.approx(exact, abs=5e-4)

    @pytest.mark.parametrize("dphi", [lambda x: 2 * x, lambda x: np.maximum(x, 0.0)])
    def test_nonpositive_derivative_raises(self, dphi):
        # phi' < 0 at some nodes gave nan, and phi' = 0 gave -inf, with
        # only RuntimeWarnings
        with pytest.raises(NonMonotone):
            expected_log_derivative(dphi, 1.0)


# both public experiments, through the driver they share
EXPERIMENTS = {
    "1d": lambda grid, m, seed: smb_experiment(
        GaussianProcessModel(AutoRegressive([0.5], 0.75)), grid, m, seed
    ),
    "2d": lambda grid, m, seed: smb2d_experiment(
        SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0)), grid, m, seed
    ),
}


class TestEnsembleDriver:
    @pytest.mark.parametrize("dims", sorted(EXPERIMENTS))
    def test_statistics_are_column_reductions(self, dims):
        # each n's mean and sd reduce a C-ordered (ensemble x grid) array
        # down a column, in one summation order for both dimensions (numpy
        # would sum a transposed copy along its contiguous axis, pairwise)
        rep = EXPERIMENTS[dims]([4, 16, 64], 200, 5)
        values = np.column_stack(rep.values_by_n)
        assert np.array_equal(rep.means, values.mean(axis=0))
        assert np.array_equal(rep.sds, values.std(axis=0, ddof=1))

    @pytest.mark.parametrize("dims", sorted(EXPERIMENTS))
    def test_empty_ensemble_raises(self, dims):
        # NaN means and all_passed False, with only RuntimeWarnings
        with pytest.raises(ModelConfigError):
            EXPERIMENTS[dims]([4, 8], 0, 1)

    @pytest.mark.parametrize("dims", sorted(EXPERIMENTS))
    def test_empty_grid_raises(self, dims):
        # an IndexError from the grid's last entry
        with pytest.raises(DimensionMismatch):
            EXPERIMENTS[dims]([], 4, 1)


class TestSmbExperiment:
    def test_unbiased_and_concentrating(self):
        model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
        rep = smb_experiment(model, [64, 256, 1024], 200, base_seed=20240817)
        assert rep.all_passed
        # variance law: sd within [0.5, 2] x 1/sqrt(2n)
        assert np.all(rep.sds >= 0.5 * rep.theoretical_sd)
        assert np.all(rep.sds <= 2.0 * rep.theoretical_sd)
        assert np.all(np.diff(rep.sds) < 0.0)

    def test_white_model_exact_rate(self):
        model = GaussianProcessModel(White(1.0))
        rep = smb_experiment(model, [16, 64], 100, base_seed=3)
        assert rep.se_exact == pytest.approx(model.entropy_rate(), abs=1e-14)
        assert np.allclose(rep.hn_over_n, rep.se_exact, atol=1e-12)
        assert rep.all_passed

    def test_deterministic_given_seed(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        a = smb_experiment(model, [32], 64, base_seed=11)
        b = smb_experiment(model, [32], 64, base_seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.sds, b.sds)

    def test_ensemble_slices_do_not_change_results(self, monkeypatch):
        # slices of 7 streams, one of them partial, against a single slice
        model = GaussianProcessModel(PoissonKernel(0.5))
        transform = (lambda x: x + 0.1 * np.sin(x), lambda x: 1 + 0.1 * np.cos(x))
        whole = smb_experiment(model, [16, 64], 30, base_seed=4, transform=transform)
        monkeypatch.setattr(smb, "_ENSEMBLE_SLICE", 7)
        sliced = smb_experiment(model, [16, 64], 30, base_seed=4, transform=transform)
        assert np.allclose(sliced.means, whole.means, rtol=0, atol=1e-13)
        assert np.allclose(sliced.sds, whole.sds, rtol=0, atol=1e-13)

    @staticmethod
    def _whole_matrix_values(model, grid, m, base, transform, slice_size):
        # the increments of the full residual matrix of each slice, summed by
        # one cumsum along the path
        n_max = grid[-1]
        sigma2 = model.factorization(n_max).sigma2[:n_max]
        streams = ensemble_streams(base, m)
        values = np.empty((m, len(grid)))
        for i0 in range(0, m, slice_size):
            X = sample_paths(model, n_max, streams[i0 : i0 + slice_size])
            inc = ensemble_residuals(model, X)
            inc *= inc
            inc /= sigma2
            inc += LOG_2PI + np.log(sigma2)
            inc *= 0.5
            if transform is not None:
                inc += log_derivative(transform[1], X)
            np.cumsum(inc, axis=1, out=inc)
            for col, n in enumerate(grid):
                values[i0 : i0 + len(X), col] = inc[:, n - 1] / n
        return values

    @pytest.mark.parametrize("slice_size", [None, 7])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_values_match_whole_residual_matrix(self, monkeypatch, transformed, slice_size):
        # block-by-block scoring, grid points on and across the block seams
        model = GaussianProcessModel(AutoRegressive([0.5, -0.2], 1.0))
        transform = (lambda x: x + 0.1 * np.sin(x), lambda x: 1 + 0.1 * np.cos(x))
        transform = transform if transformed else None
        grid = [1, 16, _FACTOR_BLOCK, _FACTOR_BLOCK + 1, 2 * _FACTOR_BLOCK + 5]
        if slice_size is not None:
            monkeypatch.setattr(smb, "_ENSEMBLE_SLICE", slice_size)
        rep = smb_experiment(model, grid, 30, base_seed=6, transform=transform)
        want = self._whole_matrix_values(model, grid, 30, 6, transform, smb._ENSEMBLE_SLICE)
        for col, got in enumerate(rep.values_by_n):
            assert got.tolist() == want[:, col].tolist()
        assert np.array_equal(rep.means, want.mean(axis=0))

    def test_working_set_is_the_paths(self):
        # the benchmark's size: the paths X, 6.55 MB, and block-sized
        # buffers; an M x n residual matrix beside X would pass 2 X.nbytes
        model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
        n, m = 4096, 200
        tracemalloc.start()
        try:
            smb_experiment(model, [64, 256, 1024, n], m, base_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * m * n * 8

    def test_transformed_experiment(self):
        model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
        phi = lambda x: x + 0.1 * np.sin(x)
        dphi = lambda x: 1 + 0.1 * np.cos(x)
        rep = smb_experiment(model, [256, 1024], 150, base_seed=8, transform=(phi, dphi))
        shift = expected_log_derivative(dphi, model.r0)
        assert rep.se_exact == pytest.approx(model.entropy_rate() + shift, abs=1e-10)
        assert rep.all_passed

    def test_nonmonotone_transform_raises(self):
        # phi = x^2 has phi' = 2x < 0 on about half the coordinates; the
        # means were NaN with only a RuntimeWarning
        model = GaussianProcessModel(PoissonKernel(0.5))
        with pytest.raises(NonMonotone):
            smb_experiment(model, [16, 32], 20, base_seed=3, transform=(np.square, lambda x: 2 * x))

    def test_degenerate_rate_raises(self):
        model = GaussianProcessModel(ARC_GAP)
        with pytest.raises(RateNotFinite):
            smb_experiment(model, [16], 8, base_seed=0)

    def test_report_names_levinson_fallback(self):
        # no nonnegative circulant embedding of this AR(2) at n = 16
        model = GaussianProcessModel(AutoRegressive([1.6, -0.9], 1.0))
        rep = smb_experiment(model, [8, 16], 32, base_seed=2)
        assert rep.sampler == "cholesky"

    def test_report_serialization(self, capsys):
        model = GaussianProcessModel(PoissonKernel(0.5))
        rep = smb_experiment(model, [16, 32], 64, base_seed=2)
        argv = ["smb", "--model", "poisson:0.5", "--n", "16,32", "--m", "64", "--seed", "2"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == 1
        assert data["n_grid"] == [16, 32]
        assert data["sampler"] == "circulant"
        assert data["all_passed"] == rep.all_passed
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,mean,sd,se_exact,hn_over_n,theoretical_sd,pass"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == rep.means[0]


class TestSmb2d:
    def test_information_field_matches_density(self):
        # the one field of a one-field ensemble is drawn from the base seed's stream 0
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        got = smb2d_experiment(fm, [8], 1, base_seed=3).values_by_n[0][0]
        x = sample_field(fm, 8, ensemble_streams(3, 1))
        want = -fm.log_block_density_2d(x, [8])[0, 0] / 64
        assert got == pytest.approx(want, abs=1e-12)

    def test_unbiased_and_concentrating(self):
        fm = SeparableFieldModel(PoissonKernel(0.5), PoissonKernel(0.5))
        rep = smb2d_experiment(fm, [16, 32, 64], 50, base_seed=20240817)
        assert rep.all_passed
        mad = rep.mean_abs_deviation()
        assert np.all(np.diff(mad) < 0.0)

    def test_values_match_per_field_loop(self):
        # one field per seed at the largest n, scored on its leading blocks,
        # against the size-n block density of the contiguous leading n x n
        # block of one single-stream sample_field per stream
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        grid, m, base = [16, 64, 128], 70, 5
        rep = smb2d_experiment(fm, grid, m, base_seed=base)
        fields = [sample_field(fm, grid[-1], [s]) for s in ensemble_streams(base, m)]
        for n, got in zip(grid, rep.values_by_n):
            want = [
                -fm.log_block_density_2d(np.ascontiguousarray(x[:, :n, :n]), [n])[0, 0] / (n * n)
                for x in fields
            ]
            assert got.tolist() == want

    def test_one_draw_per_seed_scored_through_the_class(self, monkeypatch):
        # every n of the grid is scored from one draw per seed at the largest
        # n, through SeparableFieldModel.kronecker_quadratic_form
        normals, forms = [], []
        draw = sampling._normals_into
        score = SeparableFieldModel.kronecker_quadratic_form

        def counted_draw(out, *args, **kwargs):
            normals.append(out.size)
            return draw(out, *args, **kwargs)

        def counted_score(self, X, *args, **kwargs):
            forms.append(np.shape(X))
            return score(self, X, *args, **kwargs)

        monkeypatch.setattr(sampling, "_normals_into", counted_draw)
        monkeypatch.setattr(SeparableFieldModel, "kronecker_quadratic_form", counted_score)
        fm = SeparableFieldModel(PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0))
        rep = smb2d_experiment(fm, [16, 32, 64, 128], 3, base_seed=8)
        assert sum(normals) == 3 * 128 * 128
        assert forms == [(1, 128, 128)] * 3
        assert [len(v) for v in rep.values_by_n] == [3] * 4

    def test_driver_draws_stacks_of_cache_size(self, monkeypatch):
        # at n_max = 8 a draw holds 2**14 // 64 = 256 fields: 600 streams take
        # two full stacks and a partial one
        stacks = []
        draw = sampling.sample_field

        def counted_draw(fm, n, streams):
            stacks.append((n, len(streams)))
            return draw(fm, n, streams)

        monkeypatch.setattr(sampling, "sample_field", counted_draw)
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        smb2d_experiment(fm, [4, 8], 600, base_seed=2)
        assert stacks == [(8, 256), (8, 256), (8, 88)]

    def test_streams_derived_once(self, monkeypatch):
        # at n_max = 128 each field is its own draw; the driver derives the
        # streams of the whole ensemble once, and the draws take them as given
        calls = []
        mix = sampling._stream_seeds

        def counted_mix(*args):
            calls.append(1)
            return mix(*args)

        monkeypatch.setattr(sampling, "_stream_seeds", counted_mix)
        fm = SeparableFieldModel(PoissonKernel(0.5), White(1.0))
        counts = []
        for m in (1, 200):
            calls.clear()
            smb2d_experiment(fm, [16, 128], m, base_seed=0)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_white_field_rate(self):
        fm = SeparableFieldModel(White(1.0), White(1.0))
        rep = smb2d_experiment(fm, [8, 16], 40, base_seed=1)
        assert rep.se_exact == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-12)
        assert rep.all_passed
        assert rep.sampler == "cholesky"
