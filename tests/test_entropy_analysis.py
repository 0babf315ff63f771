import json
import math

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    GaussianProcessModel,
    MovingAverage,
    PoissonKernel,
    RateNotFinite,
    White,
)
from entrospec.cli import EXIT_OK, main
from entrospec.entropy_analysis import (
    EntropyReport,
    block_mutual_information,
    dyadic_decomposition,
    markov_defect,
    relative_entropy,
    relative_entropy_rate,
)

from conftest import ARC_GAP, dense_cov


def degenerate_model():
    return GaussianProcessModel(ARC_GAP)


class TestKLDivergences:
    def test_white_unit_is_zero(self):
        model = GaussianProcessModel(White(1.0))
        for n in (1, 5, 30):
            assert relative_entropy(model, n, 1.0) == pytest.approx(0.0, abs=1e-14)
            assert relative_entropy(model, n, model.r0) == pytest.approx(0.0, abs=1e-14)

    def test_white_scaled(self):
        model = GaussianProcessModel(White(4.0))
        # per-coordinate KL(N(0,4) || N(0,1)) = (1/2)(4 - 1 - log 4)
        want = 0.5 * (4.0 - 1.0 - math.log(4.0))
        assert relative_entropy(model, 7, 1.0) == pytest.approx(7 * want, abs=1e-12)
        assert relative_entropy(model, 7, model.r0) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_pair_closed_form(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert relative_entropy(model, 2, 1.0) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-12
        )
        assert relative_entropy(model, 2, model.r0) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-12
        )

    def test_oracle_dense_formula(self, zoo):
        # direct trace/logdet/solve evaluation of the Gaussian KL formula
        for model in zoo.values():
            for n in (1, 3, 9, 40):
                R = dense_cov(model, n)
                sign, logdet = np.linalg.slogdet(R)
                want = 0.5 * (np.trace(R) - n - logdet)
                assert relative_entropy(model, n, 1.0) == pytest.approx(
                    want, abs=1e-9
                )
                want_p = 0.5 * (n * math.log(R[0, 0]) - logdet)
                assert relative_entropy(model, n, model.r0) == pytest.approx(
                    want_p, abs=1e-9
                )

    def test_nonnegative_and_monotone(self, zoo):
        for model in zoo.values():
            kls = [relative_entropy(model, n, model.r0) for n in range(1, 33)]
            assert all(k >= -1e-12 for k in kls)
            assert np.all(np.diff(kls) >= -1e-12)

    def test_normalized_kl_limit(self, zoo):
        # (1/n) KL(block || standard) -> pinsker rate
        for model in zoo.values():
            lim = relative_entropy_rate(model, 1.0)
            assert abs(relative_entropy(model, 4096, 1.0) / 4096 - lim) < 1e-3

    # a level that is neither 1 nor r(0) exercises every term of the formula
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_off_level_dense_formula(self, zoo, n):
        c = 2.5
        for model in zoo.values():
            R = dense_cov(model, n)
            _, logdet = np.linalg.slogdet(R)
            want = 0.5 * (np.trace(R) / c - n - logdet + n * math.log(c))
            assert relative_entropy(model, n, c) == pytest.approx(want, rel=1e-10)

    def test_off_level_rate_limit(self, zoo):
        for model in zoo.values():
            lim = relative_entropy_rate(model, 2.5)
            assert abs(relative_entropy(model, 4096, 2.5) / 4096 - lim) < 1e-3

    def test_degenerate_rate_is_infinite(self):
        # int log f = -inf: every level's rate is +inf, with no branch for it
        model = degenerate_model()
        for c in (1.0, model.r0, 2.5):
            assert relative_entropy_rate(model, c) == math.inf


class TestMutualInformation:
    def test_white_zero(self):
        model = GaussianProcessModel(White(1.0))
        assert block_mutual_information(model, 8, 8) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self, zoo):
        for model in zoo.values():
            for n, p in [(1, 2), (3, 17), (8, 64)]:
                assert block_mutual_information(model, n, p) == pytest.approx(
                    block_mutual_information(model, p, n), abs=1e-12
                )

    def test_nonnegative_and_monotone_in_each_block(self, zoo):
        for model in zoo.values():
            prev = 0.0
            for n in (1, 2, 4, 8, 16, 32):
                cur = block_mutual_information(model, n, n)
                assert cur >= prev - 1e-12
                prev = cur

    def test_poisson_pair_value(self):
        # I(1,1) = -(1/2) log(1 - r(1)^2)
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert block_mutual_information(model, 1, 1) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-12
        )

    def test_entropy_difference_identity(self, zoo):
        # I(n,p) = H_n + H_p - H_{n+p}
        for model in zoo.values():
            for n in (1, 5, 16):
                for p in (2, 7, 16):
                    want = (
                        model.block_entropy(n)
                        + model.block_entropy(p)
                        - model.block_entropy(n + p)
                    )
                    assert block_mutual_information(model, n, p) == pytest.approx(
                        want, abs=1e-12
                    )

    def test_stability_gap_identity(self, zoo):
        # H_n/n - H_2n/(2n) = I(n, n)/(2n)
        for model in zoo.values():
            for n in (1, 4, 16):
                gap = model.block_entropy(n) / n - model.block_entropy(2 * n) / (2 * n)
                want = block_mutual_information(model, n, n) / (2 * n)
                assert gap == pytest.approx(want, abs=1e-12)

    def test_mi_saturates_for_finite_memory(self):
        # MA(1): I(n, p) is controlled by the single boundary lag
        model = GaussianProcessModel(MovingAverage([1.0, 0.5]))
        v64 = block_mutual_information(model, 64, 64)
        v128 = block_mutual_information(model, 128, 128)
        assert abs(v64 - v128) < 1e-10


class TestMemoryCriteria:
    def test_markov_defect_ar1_order1_zero(self):
        model = GaussianProcessModel(AutoRegressive([0.5], 0.75))
        assert markov_defect(model, 1) <= 1e-10

    def test_markov_defect_ar2(self):
        model = GaussianProcessModel(AutoRegressive([0.5, -0.2], 1.0))
        assert markov_defect(model, 1) > 1e-4
        assert markov_defect(model, 2) <= 1e-10
        assert markov_defect(model, 5) <= 1e-10

    def test_markov_defect_ma1_value(self):
        # (1/2) log(sigma2_1 / exp(int log f)) = (1/2) log(0.84/0.8) = (1/2) log 1.05
        model = GaussianProcessModel(MovingAverage([1.0, 0.5]))
        assert markov_defect(model, 1) == pytest.approx(
            0.5 * math.log(1.05), abs=1e-9
        )
        assert 0.5 * math.log(1.05) == pytest.approx(0.024395082084716024, abs=1e-15)

    def test_markov_defect_decreasing(self, zoo):
        for model in zoo.values():
            d = [markov_defect(model, p) for p in range(1, 12)]
            assert all(x >= -1e-12 for x in d)
            assert np.all(np.diff(d) <= 1e-12)

    # the independence defect H_1 - Se is the Markov defect of order 0
    def test_independence_defect_white_zero(self):
        assert markov_defect(GaussianProcessModel(White(4.0)), 0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_independence_defect_poisson(self):
        model = GaussianProcessModel(PoissonKernel(0.5))
        assert markov_defect(model, 0) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-12
        )

    def test_independence_dominates_markov(self, zoo):
        for model in zoo.values():
            assert markov_defect(model, 0) >= markov_defect(model, 1) - 1e-12

    def test_matching_covariances_do_not_imply_equal_defects(self):
        # two densities sharing r(0), r(1) but different memory structure
        ma = GaussianProcessModel(MovingAverage([1.0, 0.5]))  # r = 1.25, 0.5, 0, ...
        ar = GaussianProcessModel(PoissonKernel(0.4).scaled(1.25))  # r = 1.25, 0.5, 0.2, ...
        assert ma.r0 == pytest.approx(ar.r0, abs=1e-12)
        assert ma.autocovariance(1)[1] == pytest.approx(ar.autocovariance(1)[1], abs=1e-12)
        assert markov_defect(ma, 1) > 1e-3
        assert markov_defect(ar, 1) <= 1e-10

    def test_degenerate_raises(self):
        model = degenerate_model()
        with pytest.raises(RateNotFinite):
            markov_defect(model, 1)
        with pytest.raises(RateNotFinite):
            markov_defect(model, 0)
        assert relative_entropy_rate(model, 1.0) == math.inf


class TestDyadicDecomposition:
    def test_white_all_zero(self):
        model = GaussianProcessModel(White(1.0))
        terms, se_rec, residual = dyadic_decomposition(model, 6)
        assert np.all(terms == 0.0)
        assert residual <= 1e-14
        assert se_rec == pytest.approx(model.entropy_rate(), abs=1e-14)

    def test_residual_shrinks_with_level(self, zoo):
        model = zoo["ar2"]
        _, _, r4 = dyadic_decomposition(model, 4)
        _, _, r10 = dyadic_decomposition(model, 10)
        assert r10 < r4
        assert r10 < 1e-4

    def test_terms_match_mi(self, zoo):
        model = zoo["poisson05"]
        terms, _, _ = dyadic_decomposition(model, 5)
        for p in range(6):
            assert terms[p] == pytest.approx(
                block_mutual_information(model, 2**p, 2**p), abs=1e-12
            )

    def test_degenerate_raises(self):
        with pytest.raises(RateNotFinite):
            dyadic_decomposition(degenerate_model(), 3)


class TestEntropyReport:
    def test_build_and_serialize(self, zoo, capsys):
        # poisson:0.5 is zoo["poisson05"]
        argv = ["report", "--model", "poisson:0.5", "--n", "1,2,8,32"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["n_grid"] == [1, 2, 8, 32]
        assert data["se"] == pytest.approx(zoo["poisson05"].entropy_rate())
        assert data["dyadic_residual"] < 1e-3
        assert main(argv) == EXIT_OK
        csv, mi_csv = capsys.readouterr().out.split("\n\n")
        assert csv.splitlines()[0] == "n,H_n,H_n_over_n,KL_gauss,KL_prod"
        assert len(csv.splitlines()) == 5
        assert len(mi_csv.splitlines()) == 1 + 16

    def test_report_deterministic(self, capsys):
        argv = ["report", "--model", "ma:1,0.5", "--n", "1,4,16", "--format", "json"]
        assert main(argv) == EXIT_OK
        a = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        b = capsys.readouterr().out
        assert a == b
