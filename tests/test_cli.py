import errno
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import shlex
import shutil
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
from entrospec import entropy_analysis, prediction, smb
from entrospec.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from entrospec.modelspec import (
    _KINDS,
    density_from_string,
    load_model_file,
    model_from_config,
    model_from_string,
)

from conftest import package_env


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_DOC = REPO_ROOT / "docs" / "model_schema.md"
README = REPO_ROOT / "README.md"


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


def max_entropy_gap(model) -> float:
    """`rate`'s max_entropy_gap: the rate of D(P || white:r0)."""
    return entropy_analysis.relative_entropy_rate(model, model.r0)


THREE_TERM_SUM = {"kind": "sum", "terms": [
    {"kind": "poisson", "r": 0.5},
    {"kind": "ar", "coeffs": [0.5, -0.2], "innovation_variance": 1},
    {"kind": "power_singular", "alpha": 0.3},
]}


def model_args(model, tmp_path) -> list:
    """--model for an inline string, --model-file for a JSON object, which
    is written under tmp_path."""
    if isinstance(model, str):
        return ["--model", model]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    return ["--model-file", str(path)]


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

    # parameters whose shortest repr has 17 significant digits
    FULL_DIGITS = [
        White(1234567.8901234567),
        PoissonKernel(0.12345678901234568),
        MovingAverage([1.0000000000000002, -0.33333333333333326]),
        AutoRegressive([0.30000000000000004, -0.19999999999999998], 1.0000000000000002),
        PowerSingular(0.30000000000000004, 1.2345678901234566e-07),
    ]

    @pytest.mark.parametrize("density", FULL_DIGITS, ids=lambda d: type(d).__name__)
    def test_id_keeps_every_digit(self, density):
        assert density_from_string(density.describe()) == density


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

    def test_sum_of_three_matches_nested_sum(self):
        # the terms are added left to right, as in (a + b) + c, bit for bit
        flat = model_from_config(THREE_TERM_SUM)
        a, b, c = PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0), PowerSingular(0.3)
        nested = GaussianProcessModel((a + b) + c)
        t = np.linspace(-math.pi, math.pi, 101)
        assert np.array_equal(flat.density.eval(t), nested.density.eval(t))
        assert np.array_equal(flat.autocovariance(4096), nested.autocovariance(4096))
        assert flat.log_det(4096) == nested.log_det(4096)
        assert flat.szego_integral() == nested.szego_integral()

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


def model_objects(cfg):
    """cfg and every model object nested in it, at any depth."""
    if isinstance(cfg, list):
        return [obj for item in cfg for obj in model_objects(item)]
    if not isinstance(cfg, dict):
        return []
    return [cfg] + [obj for value in cfg.values() for obj in model_objects(value)]


class TestSchemaDoc:
    """docs/model_schema.md goes through the parser, so it cannot drift."""

    def test_documents_every_kind(self):
        assert {cfg["kind"] for cfg in schema_doc_configs()} == set(_KINDS)

    def test_documents_every_field(self):
        # the JSON examples together name every field of every kind
        named = {kind: set() for kind in _KINDS}
        for cfg in schema_doc_configs():
            for obj in model_objects(cfg):
                named[obj["kind"]].update(obj.keys() - {"kind"})
        assert named == {kind: set(fields) for kind, (_, fields) in _KINDS.items()}

    @pytest.mark.parametrize("cfg", schema_doc_configs(), ids=lambda cfg: cfg["kind"])
    def test_json_example_parses(self, cfg):
        model = model_from_config(cfg)
        assert model.r0 > 0.0
        assert model.entropy_rate() < math.inf
        assert max_entropy_gap(model) >= 0.0

    @pytest.mark.parametrize("text", schema_doc_strings())
    def test_inline_example_parses(self, text):
        assert model_from_string(text).describe().startswith(text.partition(":")[0])

    def test_inline_examples_found(self):
        assert "white:" in schema_doc_strings()
        assert model_from_string("white:").density.level == 1.0


def readme_block(heading: str, lang: str) -> str:
    """The first code block in lang under the README's heading."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


class TestReadme:
    """The README's examples run as written, so they cannot drift."""

    def test_cli_examples_run(self, tmp_path, monkeypatch, capsys):
        commands = [
            shlex.split(line)
            for line in readme_block("## CLI", "sh").splitlines()
            if line.startswith("entrospec ")
        ]
        assert [argv[1] for argv in commands] == [
            "rate", "report", "smb", "smb2d", "predict", "filter",
        ]
        shutil.copy(REPO_ROOT / "entrobench" / "models" / "separable_poisson_ar2.json",
                    tmp_path / "field.json")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == EXIT_OK, argv
        capsys.readouterr()

    def test_library_example_runs(self, capsys):
        namespace = {}
        exec(readme_block("## Library example", "python"), namespace)
        assert capsys.readouterr().out.startswith("1.2750974969787823\n")
        assert namespace["report"].all_passed


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
        # a nested model that is not an object
        ('{"kind": "sum", "terms": "ab"}', "terms"),
        ('{"kind": "sum", "terms": {"kind": "white"}}', "terms"),
        ('{"kind": "sum", "terms": [{"kind": "white"}]}', "terms"),
        ('{"kind": "scaled", "factor": 2, "base": "white"}', "base"),
        ('{"kind": "filter", "symbol": [1], "base": [{"kind": "white"}]}', "base"),
        ('{"kind": "separable", "factor_a": "white", "factor_b": {"kind": "white"}}', "factor_a"),
        ('{"kind": "separable", "factor_a": {"kind": "white"}, "factor_b": 1}', "factor_b"),
    ]

    @pytest.mark.parametrize("text,name", CONFIGS)
    def test_json_is_config_error(self, text, name, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main(["rate", "--model-file", str(path)]) == EXIT_CONFIG
        assert f"field {name!r}" in capsys.readouterr().err


class TestUnknownFields:
    # a misspelled or stray field was dropped, and its default used, with exit 0
    # (model, the stray field, the kind of the object that holds it)
    CONFIGS = {
        "power_singular": ({"kind": "power_singular", "alpha": 0.3, "scal": 4},
                           "scal", "power_singular"),
        "gap": ({"kind": "gap", "fraction": 0.25, "levle": 2}, "levle", "gap"),
        "separable": ({"kind": "separable", "factor_a": {"kind": "white"},
                       "factor_b": {"kind": "white"}, "factor_c": {"kind": "white"}},
                      "factor_c", "separable"),
        "sum-term": ({"kind": "sum", "terms": [{"kind": "white"},
                                               {"kind": "poisson", "r": 0.5, "s": 1}]},
                     "s", "poisson"),
    }

    @pytest.mark.parametrize("cfg, name, kind", CONFIGS.values(), ids=CONFIGS.keys())
    def test_is_config_error(self, cfg, name, kind, tmp_path, capsys):
        assert main(["rate"] + model_args(cfg, tmp_path)) == EXIT_CONFIG
        message = f"unknown field {name!r} for kind {kind!r}"
        assert capsys.readouterr() == ("", f"config error: {message}\n")


class TestMaxEntropyGap:
    @pytest.mark.parametrize("level", [0.25, 1.0, 4.0])
    def test_white_noise_has_no_gap(self, level):
        assert abs(max_entropy_gap(GaussianProcessModel(White(level)))) <= 1e-12

    def test_is_max_entropy_minus_rate(self):
        # 0.5 log(2 pi e r0) - Se, and >= 0 for a correlated model
        model = model_from_string("ar:0.5:0.75")
        se, r0, gap = model.entropy_rate(), model.r0, max_entropy_gap(model)
        assert gap == pytest.approx(0.5 * math.log(2 * math.pi * math.e * r0) - se, abs=1e-12)
        assert gap == pytest.approx(0.5 * math.log(1.0 / 0.75), abs=1e-12)

    def test_scaled_model_keeps_base_gap(self):
        base = {"kind": "ma", "coeffs": [1.0, 0.5]}
        scaled = model_from_config({"kind": "scaled", "factor": 3.0, "base": base})
        got = max_entropy_gap(scaled)
        assert got == pytest.approx(max_entropy_gap(model_from_config(base)), abs=1e-12)

    def test_separable_field(self, tmp_path, capsys):
        # 0.5 (log r0 - s_a - s_b), the sum of the factors' gaps
        fa, fb = PoissonKernel(0.5), AutoRegressive([0.5, -0.2], 1.0)
        field = SeparableFieldModel(fa, fb)
        se, r0, gap = field.entropy_rate(), field.r0, max_entropy_gap(field)
        assert gap == pytest.approx(0.5 * math.log(2 * math.pi * math.e * r0) - se, abs=1e-12)
        factors = [max_entropy_gap(GaussianProcessModel(d)) for d in (fa, fb)]
        assert gap == pytest.approx(sum(factors), abs=1e-12)
        path = tmp_path / "field.json"
        config = {
            "kind": "separable",
            "factor_a": {"kind": "poisson", "r": 0.5},
            "factor_b": {"kind": "ar", "coeffs": [0.5, -0.2], "innovation_variance": 1.0},
        }
        path.write_text(json.dumps(config))
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

    @pytest.mark.parametrize("argv", [
        ["rate", "--model", "white:1"],
        ["report", "--model", "poisson:0.5", "--n", "1,2"],
    ], ids=["rate", "report"])
    def test_failed_out_write_is_config_error(self, argv, monkeypatch, capsys):
        # a full disk fails the write or the close, after the open succeeded
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("entrospec.cli.open", lambda *a, **k: FullDisk(), raising=False)
        assert main(argv + ["--out", "out.txt"]) == EXIT_CONFIG
        assert "cannot write output file out.txt" in capsys.readouterr().err

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

    GAP = {"kind": "gap", "fraction": 0.25}
    POISSON = {"kind": "poisson", "r": 0.5}

    @pytest.mark.parametrize("model", [
        GAP,
        {"kind": "scaled", "factor": 2, "base": GAP},
        {"kind": "filter", "symbol": [1, 0.5], "base": GAP},
        {"kind": "separable", "factor_a": GAP, "factor_b": POISSON},
        {"kind": "sum", "terms": [GAP, {"kind": "gap", "fraction": 0.5}]},
    ], ids=["gap", "scaled", "filter", "separable", "sum"])
    def test_rate_of_degenerate_model(self, model, tmp_path, capsys):
        # -inf passes through the model algebra; the gap to white noise is +inf
        assert main(["rate"] + model_args(model, tmp_path)) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["Se = -inf", "szego_integral = -inf"]
        assert lines[3] == "max_entropy_gap = inf"

    def test_filter_of_degenerate_model(self, tmp_path, capsys):
        argv = ["filter", "--symbol", "1,0.5"] + model_args(self.GAP, tmp_path)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "Se_base = -inf\n"
            "Se_filtered = -inf\n"
            "log_gain_integral = 0.0000000\n"
            "identity_residual = n/a\n"
        )

    def test_gap_sum_reads_as_one_gap(self, tmp_path, capsys):
        # gaps on |t| <= pi/4 and |t| <= pi/2 vanish together on |t| <= pi/4
        gap_sum = {"kind": "sum", "terms": [self.GAP, {"kind": "gap", "fraction": 0.5}]}
        for argv in (["filter", "--symbol", "1,0.5"], ["report", "--n", "1,2"],
                     ["predict", "--n", "4"], ["smb", "--n", "4", "--m", "2"]):
            outputs = []
            for model in (self.GAP, gap_sum):
                code = main(argv + model_args(model, tmp_path))
                out, err = capsys.readouterr()
                # smb names the model in its message
                outputs.append((code, out, err.replace("sum(gap:0.25,1,gap:0.5,1)", "gap:0.25,1")))
            assert outputs[0] == outputs[1], argv

    @pytest.mark.parametrize("model", ["white:1", "power_singular:0.3"])
    def test_filter_with_root_on_circle(self, model, capsys):
        # 1 - z + z^2 vanishes at t = +-pi/3, a panel end of the quadrature
        assert main(["filter", "--model", model, "--symbol", "1,-1,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "log_gain_integral = 0.0000000" in out
        residual = out.splitlines()[3].split(" = ")[1]
        assert float(residual) <= 1e-12

    # every input check of the densities, the model parser and the CLI
    INPUT_ERRORS = [
        (["rate"], "white:0", "white level must be positive"),
        (["rate"], "white:-1", "white level must be positive"),
        (["rate"], "poisson:1", "Poisson kernel needs |r| < 1"),
        (["rate"], "poisson:-1.5", "Poisson kernel needs |r| < 1"),
        (["rate"], "ar:1:1", "AR coefficients are not stable (pole on/outside the disc)"),
        (["rate"], "ar:0.5:0", "innovation variance must be positive"),
        (["rate"], "ar:0.5:-1", "innovation variance must be positive"),
        (["rate"], "ar:1", "ar needs 'ar:c1,...,cp:s2'"),
        (["rate"], "power_singular:0.5", "power-singular exponent must be in (0, 1/2)"),
        (["rate"], "power_singular:0", "power-singular exponent must be in (0, 1/2)"),
        (["rate"], "power_singular:0.3,0", "scale must be positive"),
        (["rate"], {"kind": "gap", "fraction": 0}, "gap fraction must be in (0, 1)"),
        (["rate"], {"kind": "gap", "fraction": 1}, "gap fraction must be in (0, 1)"),
        (["rate"], {"kind": "gap", "fraction": 0.25, "level": 0}, "gap level must be positive"),
        (["rate"], {"kind": "scaled", "factor": 0, "base": {"kind": "white"}},
         "scale factor must be positive"),
        (["rate"], {"kind": "separable", "factor_a": {"kind": "white"}},
         "separable model missing 'factor_b'"),
        (["rate"], {"kind": "nope"}, "unknown model kind 'nope'"),
        (["report", "--n", "4,2"], "poisson:0.5",
         "n-grid must be strictly increasing and nonempty"),
        (["smb2d", "--n", "4", "--m", "2"], "poisson:0.5",
         "smb2d needs a separable field model (--model-file)"),
        (["rate"], {"kind": ["poisson"], "r": 0.5}, "unknown model kind ['poisson']"),
        (["rate"], {"kind": "poisson"}, "poisson model missing 'r'"),
        (["rate"], {"kind": "scaled", "factor": 2, "base": {
            "kind": "separable", "factor_a": {"kind": "white"}, "factor_b": {"kind": "white"}}},
         "field 'base' must be a density model object, got {'kind': 'separable', "
         "'factor_a': {'kind': 'white'}, 'factor_b': {'kind': 'white'}}"),
    ]

    @pytest.mark.parametrize("command, model, message", INPUT_ERRORS)
    def test_input_check_is_config_error(self, command, model, message, tmp_path, capsys):
        assert main(command + model_args(model, tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    # every 1-D command, with small arguments
    COMMANDS = {
        "rate": ["rate"],
        "report": ["report", "--n", "1,2,8"],
        "filter": ["filter", "--symbol", "1,0.5"],
        "smb": ["smb", "--n", "4,16", "--m", "20"],
        "predict": ["predict", "--n", "16"],
    }

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    def test_overflowing_covariance_is_numerical_error(self, command, capsys):
        # the symbol's autocorrelation overflows, so r(0) is nan; a numpy
        # RuntimeWarning on the way would fail the test (pytest's filterwarnings)
        assert main(command + ["--model", "ma:1e308,1e308"]) == EXIT_NUMERICAL
        assert capsys.readouterr() == (
            "", "numerical error: autocovariance of ma:1e+308,1e+308: r(0) = nan\n"
        )

    NESTED = {
        "scaled-chain": '{"kind": "scaled", "factor": 2, "base": ' * 600
        + '{"kind": "white"}' + "}" * 600,
        "deep-json": "[" * 1200 + "]" * 1200,
    }

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize("text", NESTED.values(), ids=NESTED.keys())
    def test_nested_model_file_is_config_error(self, text, command, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text(text)
        assert main(command + ["--model-file", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_deep_scaled_chain_loads(self, tmp_path, capsys):
        # two frames per level: 400 levels fit under the default recursion
        # limit with room for the test runner's own frames
        cfg = {"kind": "white"}
        for _ in range(400):
            cfg = {"kind": "scaled", "factor": 1, "base": cfg}
        assert main(["rate"] + model_args(cfg, tmp_path)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2] == "r0 = 1.0000000"

    # a sum file is two levels deep however many terms it lists
    WIDE_SUM = json.dumps({"kind": "sum", "terms": [{"kind": "white"}] * 1200})

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    def test_wide_sum_answers_every_command(self, command, tmp_path, capsys):
        path = tmp_path / "sum.json"
        path.write_text(self.WIDE_SUM)
        assert main(command + ["--model-file", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_wide_sum_rate(self, tmp_path, capsys):
        path = tmp_path / "sum.json"
        path.write_text(self.WIDE_SUM)
        assert main(["rate", "--model-file", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"Se = {0.5 * math.log(2 * math.pi * math.e * 1200):.7f}"
        assert lines[2] == "r0 = 1200.0000000"

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

    @pytest.mark.parametrize("model, name", [
        ({"kind": "scaled", "factor": 2, "base": {"kind": "poisson", "r": 0.5}},
         "scaled(2,poisson:0.5)"),
        ({"kind": "filter", "symbol": [1, -0.5], "base": {"kind": "poisson", "r": 0.5}},
         "filter([1,-0.5],poisson:0.5)"),
        (THREE_TERM_SUM, "sum(poisson:0.5,ar:0.5,-0.2:1,power_singular:0.3,1)"),
    ], ids=["scaled", "filter", "sum"])
    def test_report_json_names_model(self, model, name, tmp_path, capsys):
        argv = ["report", "--n", "1,2", "--format", "json"] + model_args(model, tmp_path)
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["model"] == name

    def test_predict_scaled_keeps_strong_szego_sums(self, tmp_path, capsys):
        # T_N sums the log-density's Fourier coefficients, which scaling leaves alone
        scaled = {"kind": "scaled", "factor": 2, "base": {"kind": "poisson", "r": 0.5}}
        columns = []
        for args in (model_args(scaled, tmp_path), ["--model", "poisson:0.5"]):
            assert main(["predict", "--n", "16"] + args) == EXIT_OK
            columns.append([line.split(",")[4] for line in capsys.readouterr().out.splitlines()])
        assert columns[0] == columns[1]

    def test_zero_symbol_is_config_error(self, capsys):
        # a zero filter symbol, given as a filter or as MA coefficients
        for argv in (
            ["filter", "--model", "poisson:0.5", "--symbol", "0,0"],
            ["rate", "--model", "ma:0,0"],
        ):
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

    # a JSON object ends without a newline, which stdout and the file both add
    OUT_COMMANDS = {
        **TEXT_COMMANDS,
        "report-json": ["report", "--model", "poisson:0.5", "--n", "1,2", "--format", "json"],
        "smb-json": ["smb", "--model", "poisson:0.5", "--n", "4,8", "--m", "8", "--format", "json"],
        "predict-json": ["predict", "--model", "poisson:0.5", "--n", "4", "--format", "json"],
    }

    @pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
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
        # --workers is accepted and ignored: it is neither used nor recorded
        a = tmp_path / "w1.json"
        b = tmp_path / "w4.json"
        base = ["smb", "--model", "ar:0.5:0.75", "--n", "64", "--m", "64", "--seed", "2",
                "--format", "json"]
        assert main(base + ["--workers", "1", "--out", str(a)]) == EXIT_OK
        assert main(base + ["--workers", "4", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "workers" not in json.loads(a.read_text())


def _workloads():
    """entrobench/workloads.py, the benchmark's commands and checks."""
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO_ROOT / "entrobench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestBenchmarkCommands:
    def test_workloads_pass_their_checks(self, monkeypatch, capsys):
        # every command line of the benchmark's workloads, with the checks
        # the benchmark applies to its output; an option the CLI dropped
        # exits 3 here
        monkeypatch.chdir(REPO_ROOT)
        failed = []
        for name, workload in _workloads().WORKLOADS.items():
            for label, argv in workload.commands(0):
                rc = main(argv)
                checks = workload.check(label, rc, capsys.readouterr().out)
                failed += [(name, check) for check, passed, _ in checks if not passed]
        assert failed == []

    def test_filter_check_catches_a_wrong_law(self, monkeypatch, capsys):
        # a wrong int log|g| (log|lead| alone, -log 2 here where the law has
        # 0) in both the closed-form rate and the printed shift: the residual
        # still shows it, since it comes from the quadrature rate of |g|^2 f
        def lead_only(coeffs):
            return math.log(abs(coeffs[-1]))

        monkeypatch.setattr("entrospec.spectral.log_abs_symbol_integral", lead_only)
        monkeypatch.setattr("entrospec.cli.log_abs_symbol_integral", lead_only)
        argv = ["filter", "--model", "power_singular:0.3", "--symbol", "1,-0.5", "--workers", "1"]
        rc = main(argv)
        workload = _workloads().WORKLOADS["exact-long-memory"]
        checks = workload.check("filter-ps0.3", rc, capsys.readouterr().out)
        failed = [name for name, passed, _ in checks if not passed]
        assert failed == ["filter-ps0.3/identity_residual"]


def _csv_table(text):
    header, *rows = text.splitlines()
    return header, [row.split(",") for row in rows]


def _assert_columns(rows, columns):
    """Column j of the parsed rows is columns[j]: an int column as the ints'
    text, a float column as floats that read back bit for bit."""
    assert all(len(row) == len(columns) for row in rows)
    for j, values in enumerate(columns):
        cells = [row[j] for row in rows]
        assert len(cells) == len(values)
        if np.asarray(values).dtype.kind in "iu":
            assert cells == [str(v) for v in values]
        else:
            assert [float(c) for c in cells] == list(values)


class TestOutputContract:
    """The pinned CSV headers and JSON key order of every table command, and
    every value it writes equal to the library's for the same call."""

    SMB_KEYS = [
        "model", "dims", "n_grid", "means", "sds", "se_exact", "hn_over_n", "theoretical_sd",
        "ensemble_size", "base_seed", "sampler", "pass", "all_passed",
    ]
    REPORT_KEYS = [
        "model", "se", "r0", "n_grid", "H_n", "KL_gauss", "KL_prod", "markov_defects",
        "independence_defect", "pinsker_rate", "dyadic_terms", "dyadic_residual",
    ]
    PREDICT_KEYS = ["model", "sigma2_inf", "S_N", "T_N", "N"]

    def output(self, argv, capsys):
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", ["smb", "smb2d"])
    def test_smb(self, command, field_file, capsys):
        if command == "smb":
            source = ["--model", "ar:1.8,-0.9:1"]
            rep = smb.smb_experiment(model_from_string("ar:1.8,-0.9:1"), [4, 8, 16], 30, 6)
        else:
            source = ["--model-file", field_file]
            rep = smb.smb2d_experiment(load_model_file(field_file), [4, 8, 16], 30, 6)
        argv = [command, *source, "--n", "4,8,16", "--m", "30", "--seed", "6"]

        header, rows = _csv_table(self.output(argv, capsys))
        assert header == "n,mean,sd,se_exact,hn_over_n,theoretical_sd,pass"
        _assert_columns(rows, [
            rep.n_grid, rep.means, rep.sds, [rep.se_exact] * 3, rep.hn_over_n,
            rep.theoretical_sd, [int(p) for p in rep.passed],
        ])

        data = json.loads(self.output(argv + ["--format", "json"], capsys))
        assert list(data) == self.SMB_KEYS
        assert data == {
            "model": rep.model_id, "dims": rep.dims, "n_grid": rep.n_grid,
            "means": list(rep.means), "sds": list(rep.sds), "se_exact": rep.se_exact,
            "hn_over_n": list(rep.hn_over_n), "theoretical_sd": list(rep.theoretical_sd),
            "ensemble_size": 30, "base_seed": 6, "sampler": rep.sampler,
            "pass": [bool(p) for p in rep.passed], "all_passed": rep.all_passed,
        }

    @pytest.mark.parametrize("model", ["power_singular:0.3", "ma:1,0.9"])
    def test_report(self, model, capsys):
        grid = [1, 2, 8, 64]
        rep = entropy_analysis.EntropyReport.build(model_from_string(model), grid)
        mi = entropy_analysis.mutual_information_table(model_from_string(model), grid)
        argv = ["report", "--model", model, "--n", "1,2,8,64"]

        table, mi_table = self.output(argv, capsys).split("\n\n")
        header, rows = _csv_table(table)
        assert header == "n,H_n,H_n_over_n,KL_gauss,KL_prod"
        _assert_columns(rows, [
            grid, rep.h_n, [h / n for h, n in zip(rep.h_n, grid)], rep.kl_gauss, rep.kl_prod,
        ])
        header, rows = _csv_table(mi_table)
        assert header == "n,p,mutual_information"
        _assert_columns(rows, [
            [n for n in grid for p in grid],
            [p for n in grid for p in grid],
            [mi[i, j] for i in range(4) for j in range(4)],
        ])

        data = json.loads(self.output(argv + ["--format", "json"], capsys))
        assert list(data) == self.REPORT_KEYS
        assert data == {
            "model": rep.model_id, "se": rep.se, "r0": rep.r0, "n_grid": grid,
            "H_n": list(rep.h_n), "KL_gauss": list(rep.kl_gauss), "KL_prod": list(rep.kl_prod),
            "markov_defects": list(rep.markov_defects),
            "independence_defect": rep.independence, "pinsker_rate": rep.pinsker,
            "dyadic_terms": list(rep.dyadic_terms), "dyadic_residual": rep.dyadic_residual,
        }

    def test_predict(self, capsys):
        diag = prediction.prediction_gap_series(model_from_string("power_singular:0.3"), 40)
        argv = ["predict", "--model", "power_singular:0.3", "--n", "40"]

        header, rows = _csv_table(self.output(argv, capsys))
        assert header == "n,sigma2_n,delta_n,S_N,T_N"
        _assert_columns(rows, [
            list(range(1, 41)), diag.sigma2, diag.delta, diag.gap_partial_sums,
            diag.strong_szego_partial_sums,
        ])

        data = json.loads(self.output(argv + ["--format", "json"], capsys))
        assert list(data) == self.PREDICT_KEYS
        assert data == {
            "model": diag.model_id, "sigma2_inf": diag.sigma2_inf,
            "S_N": diag.gap_partial_sums[-1], "T_N": diag.strong_szego_partial_sums[-1],
            "N": 40,
        }


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
            before = len(spans.spans)
            # a report extends its model's factorization request by request
            rcs.append(cli.main(["report", "--model", "poisson:0.5", "--n", "1,4,16"]))
            report = sorted({{s[0] for s in spans.spans[before:]}})
            print(json.dumps([kernels.BACKEND, rcs, sorted({{s[0] for s in spans.spans}}), report]))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        backend, rcs, names, report = json.loads(out.stdout.splitlines()[-1])
        assert backend == "python"
        assert rcs == [EXIT_OK] * 5
        assert "toeplitz.levinson" in report
        for name in (
            "spectral.autocovariance",
            "toeplitz.levinson",
            "sampling.sample_paths",
            "sampling.sample_field",
            "smb.experiment",
            "field2d.cholesky",
            "field2d.quadratic_form",
        ):
            assert name in names

    def test_cli_import_leaves_scipy_out(self):
        import subprocess
        import sys

        # scipy is test-only, entrospec.kernels only names the backend, and
        # numpy.random adds about 6 MB of RSS that the package never uses
        code = (
            "import entrospec.cli, sys; "
            "print(sorted({'scipy', 'numpy.random', 'entrospec.kernels'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
