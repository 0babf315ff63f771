import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from entrospec import (
    AutoRegressive,
    GaussianProcessModel,
    ModelConfigError,
    MovingAverage,
    PoissonKernel,
    PowerSingular,
    SeparableFieldModel,
    White,
)
from entrospec.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _rate_values, main
from entrospec.modelspec import (
    density_from_string,
    load_model_file,
    model_from_config,
    model_from_string,
)

from conftest import package_env


SCHEMA_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "model_schema.md"


def schema_doc_configs():
    """Every JSON document in the json code blocks of the schema doc."""
    decoder = json.JSONDecoder()
    configs = []
    for block in re.findall(r"```json\n(.*?)```", SCHEMA_DOC.read_text(), re.S):
        pos = 0
        while True:
            # the index of the next non-blank character
            pos = len(block) - len(block[pos:].lstrip())
            if pos == len(block):
                break
            cfg, pos = decoder.raw_decode(block, pos)
            configs.append(cfg)
    return configs


def schema_doc_strings():
    """The inline model strings of the schema doc's "Examples:" paragraph."""
    paragraph = SCHEMA_DOC.read_text().split("Examples:", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([^`]+)`", paragraph)


@pytest.fixture
def field_file(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(
        json.dumps(
            {
                "kind": "separable",
                "factor_a": {"kind": "poisson", "r": 0.5},
                "factor_b": {"kind": "poisson", "r": 0.5},
            }
        )
    )
    return str(path)


class TestModelStrings:
    def test_white(self):
        d = density_from_string("white:2.0")
        assert isinstance(d, White)
        assert d.eval(0.0) == 2.0

    def test_poisson(self):
        assert isinstance(density_from_string("poisson:0.5"), PoissonKernel)

    def test_ma(self):
        d = density_from_string("ma:1,0.5")
        assert isinstance(d, MovingAverage)
        assert list(d.coeffs) == [1.0, 0.5]

    def test_ar(self):
        d = density_from_string("ar:0.5,-0.2:1.0")
        assert isinstance(d, AutoRegressive)
        assert list(d.coeffs) == [0.5, -0.2]
        assert d.innovation_variance == 1.0

    def test_power_singular(self):
        d = density_from_string("power_singular:0.3,1.0")
        assert isinstance(d, PowerSingular)
        assert d.alpha == 0.3

    def test_unknown_kind(self):
        with pytest.raises(ModelConfigError):
            density_from_string("brownian:1")

    def test_bad_numbers(self):
        with pytest.raises(ModelConfigError):
            density_from_string("poisson:abc")

    # (model string, its kind): too few or too many parameters for the kind
    WRONG_COUNTS = [
        ("power_singular:", "power_singular"),
        ("power_singular:0.3,1,2", "power_singular"),
        ("poisson:", "poisson"),
        ("poisson:0.5,1", "poisson"),
        ("ar:0.5:", "ar"),
        ("ar:0.5:1,2", "ar"),
        ("white:1,2", "white"),
    ]

    @pytest.mark.parametrize("text, kind", WRONG_COUNTS)
    def test_wrong_parameter_count(self, text, kind, capsys):
        with pytest.raises(ModelConfigError, match=kind):
            density_from_string(text)
        assert main(["rate", "--model", text]) == EXIT_CONFIG
        assert kind in capsys.readouterr().err


class TestModelConfigs:
    def test_nested_config(self):
        model = model_from_config(
            {
                "kind": "filter",
                "symbol": [1.0, -0.5],
                "base": {"kind": "poisson", "r": 0.5},
            }
        )
        assert isinstance(model, GaussianProcessModel)
        assert model.entropy_rate() == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 0.75), abs=1e-9
        )

    def test_sum_config(self):
        model = model_from_config(
            {
                "kind": "sum",
                "terms": [{"kind": "white", "level": 1.0}, {"kind": "poisson", "r": 0.5}],
            }
        )
        assert model.r0 == pytest.approx(2.0, abs=1e-12)

    def test_scaled_config(self):
        model = model_from_config(
            {"kind": "scaled", "factor": 2.0, "base": {"kind": "white", "level": 1.0}}
        )
        assert model.r0 == pytest.approx(2.0, abs=1e-12)

    def test_fourier_table_config(self):
        model = model_from_config(
            {"kind": "fourier_table", "covariances": [1.0] + [0.0] * 32}
        )
        assert model.log_det(8) == pytest.approx(0.0, abs=1e-12)

    def test_separable_config(self, field_file):
        model = load_model_file(field_file)
        assert isinstance(model, SeparableFieldModel)

    def test_missing_kind(self):
        with pytest.raises(ModelConfigError):
            model_from_config({"r": 0.5})

    def test_bad_params(self):
        with pytest.raises(ModelConfigError):
            model_from_config({"kind": "poisson"})

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelConfigError):
            load_model_file(str(path))


class TestSchemaDoc:
    """docs/model_schema.md goes through the parser, so it cannot drift."""

    KINDS = {
        "white", "poisson", "ma", "ar", "power_singular", "fourier_table", "gap",
        "scaled", "sum", "filter", "separable",
    }

    def test_documents_every_kind(self):
        assert {cfg["kind"] for cfg in schema_doc_configs()} == self.KINDS

    @pytest.mark.parametrize("cfg", schema_doc_configs(), ids=lambda cfg: cfg["kind"])
    def test_json_example_parses(self, cfg):
        se, _, r0, _ = _rate_values(model_from_config(cfg))
        assert r0 > 0.0
        assert se < math.inf

    @pytest.mark.parametrize("text", schema_doc_strings())
    def test_inline_example_parses(self, text):
        assert model_from_string(text).describe().startswith(text.partition(":")[0])

    def test_inline_examples_found(self):
        assert "white:" in schema_doc_strings()
        assert model_from_string("white:").density.level == 1.0


class TestNonFiniteParameters:
    INLINE = [
        "white:nan", "white:inf", "poisson:-inf", "ma:1,inf", "ma:nan,1",
        "ar:0.5:nan", "ar:0.5:inf", "ar:nan:1", "power_singular:0.3,inf",
        "power_singular:nan",
    ]
    # JSON's NaN and Infinity literals, a number that overflows to inf, and
    # integers past the float range, whose float() raises OverflowError
    CONFIGS = [
        '{"kind": "white", "level": 1' + "0" * 400 + "}",
        '{"kind": "ma", "coeffs": [1, -1' + "0" * 400 + "]}",
        '{"kind": "white", "level": NaN}',
        '{"kind": "poisson", "r": -Infinity}',
        '{"kind": "ma", "coeffs": [1, 1e999]}',
        '{"kind": "ar", "coeffs": [0.5], "innovation_variance": Infinity}',
        '{"kind": "power_singular", "alpha": 0.3, "scale": NaN}',
        '{"kind": "fourier_table", "covariances": [1.0, NaN, 0.0]}',
        '{"kind": "scaled", "factor": Infinity, "base": {"kind": "white"}}',
        '{"kind": "sum", "terms": [{"kind": "white"}, {"kind": "poisson", "r": NaN}]}',
        '{"kind": "filter", "symbol": [1, NaN], "base": {"kind": "white"}}',
        '{"kind": "separable", "factor_a": {"kind": "white"},'
        ' "factor_b": {"kind": "white", "level": Infinity}}',
    ]

    @pytest.mark.parametrize("text", INLINE)
    def test_inline_is_config_error(self, text, capsys):
        assert main(["rate", "--model", text]) == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", CONFIGS)
    def test_json_is_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main(["rate", "--model-file", str(path)]) == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err


class TestJsonParameterTypes:
    # a list field given as a string would be read one character at a time,
    # and a boolean or a numeric string would pass as a number
    CONFIGS = [
        ('{"kind": "ma", "coeffs": "12"}', "coeffs"),
        ('{"kind": "fourier_table", "covariances": "21"}', "covariances"),
        ('{"kind": "ar", "coeffs": "5", "innovation_variance": 1}', "coeffs"),
        ('{"kind": "filter", "symbol": "1", "base": {"kind": "white"}}', "symbol"),
        ('{"kind": "white", "level": true}', "level"),
        ('{"kind": "poisson", "r": "0.5"}', "r"),
        ('{"kind": "ma", "coeffs": [1, false]}', "coeffs"),
        ('{"kind": "scaled", "factor": "2", "base": {"kind": "white"}}', "factor"),
        ('{"kind": "gap", "fraction": null}', "fraction"),
        ('{"kind": "separable", "factor_a": {"kind": "white"},'
         ' "factor_b": {"kind": "poisson", "r": [0.5]}}', "r"),
    ]

    @pytest.mark.parametrize("text,name", CONFIGS)
    def test_json_is_config_error(self, text, name, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main(["rate", "--model-file", str(path)]) == EXIT_CONFIG
        assert f"field {name!r}" in capsys.readouterr().err


class TestMaxEntropyGap:
    @pytest.mark.parametrize("level", [0.25, 1.0, 4.0])
    def test_white_noise_has_no_gap(self, level):
        assert abs(_rate_values(GaussianProcessModel(White(level)))[3]) <= 1e-12

    def test_is_max_entropy_minus_rate(self):
        # 0.5 log(2 pi e r0) - Se, and >= 0 for a correlated model
        model = model_from_string("ar:0.5:0.75")
        se, _, r0, gap = _rate_values(model)
        assert gap == pytest.approx(0.5 * math.log(2 * math.pi * math.e * r0) - se, abs=1e-12)
        assert gap == pytest.approx(0.5 * math.log(1.0 / 0.75), abs=1e-12)

    def test_scaled_model_keeps_base_gap(self):
        base = {"kind": "ma", "coeffs": [1.0, 0.5]}
        scaled = model_from_config({"kind": "scaled", "factor": 3.0, "base": base})
        got = _rate_values(scaled)[3]
        assert got == pytest.approx(_rate_values(model_from_config(base))[3], abs=1e-12)

    def test_separable_field(self, tmp_path, capsys):
        # 0.5 (log r0 - s_a - s_b), the sum of the factors' gaps
        fa, fb = PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0)
        field = SeparableFieldModel(fa, fb)
        se, _, r0, gap = _rate_values(field)
        assert gap == pytest.approx(0.5 * math.log(2 * math.pi * math.e * r0) - se, abs=1e-12)
        factors = [_rate_values(GaussianProcessModel(d))[3] for d in (fa, fb)]
        assert gap == pytest.approx(sum(factors), abs=1e-12)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field.to_config()))
        assert main(["rate", "--model-file", str(path)]) == EXIT_OK
        assert f"max_entropy_gap = {gap:.7f}" in capsys.readouterr().out


class TestCliExitCodes:
    def test_rate_ok(self, capsys):
        assert main(["rate", "--model", "poisson:0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Se = " in out
        assert "szego_integral = -0.2876821" in out

    def test_rate_field(self, capsys, field_file):
        assert main(["rate", "--model-file", field_file]) == EXIT_OK
        assert "szego_integral = -0.5753641" in capsys.readouterr().out

    def test_rate_sum_with_small_power_exponent(self, tmp_path, capsys):
        # uniform grids stall above the 1e-10 tolerance on the cusp of power_singular:0.1
        path = tmp_path / "sum.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "sum",
                    "terms": [
                        {"kind": "poisson", "r": 0.5},
                        {"kind": "power_singular", "alpha": 0.1},
                    ],
                }
            )
        )
        assert main(["rate", "--model-file", str(path)]) == EXIT_OK
        assert "szego_integral = 0.6537755" in capsys.readouterr().out

    def test_rate_sum_with_gap(self, tmp_path, capsys):
        # the log-density jumps at t = pi/4: int log f = (3/4) log 2 in closed form
        path = tmp_path / "gap_sum.json"
        terms = [{"kind": "gap", "fraction": 0.25}, {"kind": "white"}]
        path.write_text(json.dumps({"kind": "sum", "terms": terms}))
        assert main(["rate", "--model-file", str(path)]) == EXIT_OK
        assert f"szego_integral = {0.75 * math.log(2.0):.7f}" in capsys.readouterr().out

    def test_undecodable_model_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["rate", "--model-file", str(path)]) == EXIT_CONFIG
        assert "cannot read model file" in capsys.readouterr().err

    def test_unwritable_out_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.txt"
        assert main(["rate", "--model", "poisson:0.5", "--out", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_config_error_unknown_model(self):
        assert main(["rate", "--model", "nope:1"]) == EXIT_CONFIG

    def test_config_error_no_model(self):
        assert main(["rate"]) == EXIT_CONFIG

    def test_config_error_bad_flag(self):
        assert main(["rate", "--frequency", "1"]) == EXIT_CONFIG

    def test_config_error_field_where_1d_needed(self, field_file):
        assert main(["report", "--model-file", field_file, "--n", "1,2"]) == EXIT_CONFIG

    def test_numerical_error_degenerate_predict(self, tmp_path, arc_gap_coeffs, capsys):
        # the arc gap's own coefficients, as a table, fail Levinson at order
        # 150; as the gap density they reach the -inf Szego integral
        path = tmp_path / "degenerate.json"
        path.write_text(
            json.dumps({"kind": "fourier_table", "covariances": arc_gap_coeffs.tolist()})
        )
        code = main(["predict", "--model-file", str(path), "--n", "16"])
        assert code == EXIT_NUMERICAL
        assert "at order 150" in capsys.readouterr().err
        path.write_text(json.dumps({"kind": "gap", "fraction": 0.25, "level": 4.0 / 3.0}))
        assert main(["predict", "--model-file", str(path), "--n", "16"]) == EXIT_NUMERICAL
        assert "-inf" in capsys.readouterr().err
        for fraction in (0.25, 0.5):
            path.write_text(json.dumps({"kind": "gap", "fraction": fraction}))
            assert main(["rate", "--model-file", str(path)]) == EXIT_OK
            out = capsys.readouterr().out
            assert "Se = -inf" in out and "szego_integral = -inf" in out

    def test_table_of_poisson_is_exact(self, tmp_path, capsys):
        # its maximum-entropy extension is poisson:0.9 itself: log(1 - 0.81)
        path = tmp_path / "table.json"
        covariances = PoissonKernel(0.9).autocovariance(64).tolist()
        path.write_text(json.dumps({"kind": "fourier_table", "covariances": covariances}))
        assert main(["rate", "--model-file", str(path)]) == EXIT_OK
        assert "szego_integral = -1.6607312" in capsys.readouterr().out
        assert main(["predict", "--model-file", str(path), "--n", "100"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 101
        # the last delta_n, past the table: sigma2_n is sigma2_inf
        assert abs(float(lines[-1].split(",")[2])) <= 1e-15

    # r(1..20) = 0.99 fails at order 21, [1, 1, 1, ...] at order 1, when the
    # table is factored as it is read
    NOT_POSITIVE_DEFINITE = {
        "ramp": [1.0] + [0.99] * 20 + [0.0] * 44,
        "ones": [1.0, 1.0, 1.0] + [0.0] * 62,
    }

    @pytest.mark.parametrize("table", sorted(NOT_POSITIVE_DEFINITE))
    @pytest.mark.parametrize(
        "command", [["rate"], ["filter", "--symbol", "1,-0.5"], ["report"]], ids=lambda c: c[0]
    )
    def test_not_positive_definite_table_is_numerical_error(self, table, command, tmp_path):
        path = tmp_path / "table.json"
        covariances = self.NOT_POSITIVE_DEFINITE[table]
        path.write_text(json.dumps({"kind": "fourier_table", "covariances": covariances}))
        assert main(command + ["--model-file", str(path)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "argv",
        [
            ["smb", "--model", "poisson:0.5", "--n", "0,4", "--m", "4"],
            ["report", "--model", "poisson:0.5", "--n", "0,2"],
            ["smb", "--model", "poisson:0.5", "--n", "4", "--m", "0"],
            ["predict", "--model", "poisson:0.5", "--n", "0"],
        ],
    )
    def test_config_error_nonpositive_sizes(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_config_error_smb2d_empty_ensemble(self, field_file, capsys):
        argv = ["smb2d", "--model-file", field_file, "--n", "4", "--m", "0"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_single_draw_sds_match_1d_and_2d(self, field_file, capsys):
        # one draw: ddof 0 in both experiments, so sds are 0, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (
                ["smb", "--model", "poisson:0.5"],
                ["smb2d", "--model-file", field_file],
            ):
                code = main(argv + ["--n", "4,8", "--m", "1", "--format", "json"])
                assert code == EXIT_OK
                assert json.loads(capsys.readouterr().out)["sds"] == [0.0, 0.0]

    def test_assert_failure_exit(self, capsys):
        # single-draw ensemble with a seed known to land outside the band
        code = main(
            [
                "smb",
                "--model",
                "poisson:0.5",
                "--n",
                "1",
                "--m",
                "1",
                "--seed",
                "4",
                "--assert",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_ASSERT

    def test_assert_pass_exit(self, capsys):
        code = main(
            [
                "smb",
                "--model",
                "poisson:0.5",
                "--n",
                "64,256",
                "--m",
                "100",
                "--seed",
                "7",
                "--assert",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK


class TestCliOutputs:
    def test_report_csv(self, capsys):
        assert main(["report", "--model", "poisson:0.5", "--n", "1,2,4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,H_n,H_n_over_n,KL_gauss,KL_prod"
        assert "n,p,mutual_information" in out

    def test_report_json(self, capsys):
        assert (
            main(["report", "--model", "poisson:0.5", "--n", "1,2", "--format", "json"])
            == EXIT_OK
        )
        data = json.loads(capsys.readouterr().out)
        assert data["n_grid"] == [1, 2]

    def test_out_file_and_rerun_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["smb", "--model", "poisson:0.5", "--n", "16,32", "--m", "32", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_smb2d_runs(self, capsys, field_file):
        code = main(
            [
                "smb2d",
                "--model-file",
                field_file,
                "--n",
                "8,16",
                "--m",
                "20",
                "--seed",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == 2

    def test_predict_csv(self, capsys):
        assert main(["predict", "--model", "ar:0.5:0.75", "--n", "8"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,sigma2_n,delta_n,S_N,T_N"
        assert len(lines) == 9

    def test_filter_identity(self, capsys):
        assert (
            main(["filter", "--model", "poisson:0.5", "--symbol", "1,-0.5"]) == EXIT_OK
        )
        out = capsys.readouterr().out
        residual = float(out.split("identity_residual = ")[1])
        assert residual < 1e-6

    def test_zero_symbol_is_config_error(self, capsys):
        argv = ["filter", "--model", "poisson:0.5", "--symbol", "0,0"]
        assert main(argv) == EXIT_CONFIG
        assert "identically zero" in capsys.readouterr().err

    # an empty field inside a list is a typo, not a number to drop
    EMPTY_FIELDS = {
        "ma": ["rate", "--model", "ma:1,,0.5"],
        "ar": ["rate", "--model", "ar:0.5,,0.2:1"],
        "symbol": ["filter", "--model", "poisson:0.5", "--symbol", "1,,-0.5"],
        "n_grid": ["report", "--model", "poisson:0.5", "--n", "1,,4"],
    }

    @pytest.mark.parametrize("argv", EMPTY_FIELDS.values(), ids=EMPTY_FIELDS.keys())
    def test_empty_list_field_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol", ["inf", "1e999", "1,x", "", "nan,1"])
    def test_filter_bad_symbol_is_config_error(self, symbol, capsys):
        argv = ["filter", "--model", "poisson:0.5", "--symbol", symbol]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    TEXT_COMMANDS = {
        "rate": ["rate", "--model", "poisson:0.5"],
        "filter": ["filter", "--model", "poisson:0.5", "--symbol", "1,-0.5"],
    }

    @pytest.mark.parametrize("argv", TEXT_COMMANDS.values(), ids=TEXT_COMMANDS.keys())
    def test_out_file_takes_the_text(self, argv, tmp_path, capsys):
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        path = tmp_path / "out.txt"
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_text() == printed

    @pytest.mark.parametrize("argv", TEXT_COMMANDS.values(), ids=TEXT_COMMANDS.keys())
    def test_format_is_not_an_option(self, argv):
        # only report, smb, smb2d and predict read --format
        assert main(argv + ["--format", "json"]) == EXIT_CONFIG

    def test_workers_flag_matches_serial(self, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w4.csv"
        base = ["smb", "--model", "ar:0.5:0.75", "--n", "64", "--m", "64", "--seed", "2"]
        assert main(base + ["--workers", "1", "--out", str(a)]) == EXIT_OK
        assert main(base + ["--workers", "4", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestImport:
    def test_benchmark_tracer_installs(self, field_file):
        # the benchmark's tracer looks its hooks up by name, and its run
        # record reads entrospec.kernels; a deleted name fails here, a hook
        # that breaks under wrapping fails the traced commands, and a CLI
        # that went round a wrapped layer records no span for it
        import json
        import os
        import subprocess
        import sys
        import textwrap

        bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "entrobench")
        code = textwrap.dedent(
            f"""
            import json, sys
            sys.path.insert(0, {bench!r})
            import tracer
            spans = tracer.Tracer()
            tracer.install(spans)
            from entrospec import cli, kernels
            rcs = [
                cli.main(["smb", "--model", "poisson:0.5", "--n", "8,16", "--m", "4"]),
                cli.main(["predict", "--model", "poisson:0.5", "--n", "16"]),
                cli.main(["smb2d", "--model-file", {field_file!r}, "--n", "4,8", "--m", "3"]),
                # no nonnegative circulant embedding: the Cholesky fallback
                cli.main(["smb", "--model", "ar:1.8,-0.9:1", "--n", "4,8", "--m", "3"]),
            ]
            print(json.dumps([kernels.BACKEND, rcs, sorted({{s[0] for s in spans.spans}})]))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        backend, rcs, names = json.loads(out.stdout.splitlines()[-1])
        assert backend == "python"
        assert rcs == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        for name in (
            "spectral.autocovariance",
            "toeplitz.levinson",
            "sampling.sample_paths",
            "smb.experiment",
            "field2d.cholesky",
            "field2d.quadratic_form",
        ):
            assert name in names

    def test_cli_import_leaves_scipy_out(self):
        import subprocess
        import sys

        # scipy is test-only, and entrospec.kernels only names the backend
        code = (
            "import entrospec.cli, sys; "
            "print(sorted({'scipy', 'entrospec.kernels'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
