"""Experiment runner, emission, and CLI checks."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from retxdist import cli, experiment as E, mc, oracle
from retxdist.asym import ApproxParams, exact_integer_ccdf
from retxdist.dists import SlowVaryGammaDoc
from retxdist.errors import (ConfigInvalid, CouplingInvalid, NonConvergence,
                             QuadratureFailure, UnknownPreset)


def minimal_config(**overrides):
    raw = {
        "name": "smoke",
        "model": {"channel": {"family": "exponential", "rate": 1.0},
                  "doc": {"family": "exponential", "rate": 2.0},
                  "bound": 1.0},
        "samples": 1000,
        "seed": 5,
        "grid": {"n_min": 1, "n_max": 10},
        "curves": ["mc"],
    }
    raw.update(overrides)
    return raw


class TestPresets:
    def test_names(self):
        assert E.preset_names() == ["example1a", "example1b", "example2",
                                    "example3", "example4"]

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            E.preset("example99")

    def test_example3_alpha(self):
        assert E.preset("example3").alpha == 4.0

    def test_example4_bounds_and_ell(self):
        cfg = E.preset("example4")
        assert cfg.bounds == (2.0, 3.0, 4.0)
        assert isinstance(cfg.ell, SlowVaryGammaDoc)

    def test_example2_transition_heuristics(self):
        cfg = E.preset("example2")
        for label, channel, doc, bound in cfg.cases():
            model = E.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
            from retxdist.asym import transition_point
            n_h = transition_point(ApproxParams.from_model(model)).n_heuristic
            assert n_h == pytest.approx(2.0 * math.e ** bound, rel=1e-15)

    def test_example1b_index(self):
        cfg = E.preset("example1b")
        assert cfg.alpha == 0.5
        assert cfg.channel.rate == 2.0 and cfg.doc_base.rate == 1.0

    def test_all_presets_pass_coupling(self):
        from retxdist.dists import CouplingMode, validate_coupling
        for name in E.preset_names():
            cfg = E.preset(name)
            for label, channel, doc, bound in cfg.cases():
                model = E.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
                if model.mode is CouplingMode.PARAMETRIC:
                    assert validate_coupling(model).max_residual <= 0.05, \
                        (name, label)


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        cfg = E.parse_config(minimal_config())
        assert cfg.alpha == 2.0          # inferred from the exponential pair
        clone = E.parse_config(cfg.to_dict())
        assert clone.alpha == cfg.alpha
        assert clone.bounds == cfg.bounds
        assert clone.curves == cfg.curves

    def test_left_out_keys_take_the_dataclass_defaults(self):
        raw = {"model": minimal_config()["model"]}
        cfg = E.parse_config(raw)
        want = E.ExperimentConfig(name="experiment", channel=cfg.channel,
                                  doc_base=cfg.doc_base, bounds=(1.0,), alpha=2.0)
        assert cfg == want and cfg.grid == E.GridSpec()
        raw["grid"] = {"n_max": 30}
        assert E.parse_config(raw).grid == E.GridSpec(n_max=30)
        # null is left out too, in the top level, the grid and a law block
        raw.update(name=None, alpha=None, seed=None, output=None, samples=None,
                   grid={"n_min": None, "n_max": 30},
                   ell={"kind": "log_power", "coeff": 1.0, "exponent": 1.0, "x_min": None})
        cfg = E.parse_config(raw)
        assert (cfg.name, cfg.alpha, cfg.seed, cfg.output_prefix, cfg.samples) == \
            ("experiment", 2.0, want.seed, None, want.samples)
        assert cfg.grid == E.GridSpec(n_max=30) and cfg.ell.x_min == math.e

    def test_a_left_out_doc_block_is_derived(self):
        channel = {"family": "exponential", "rate": 1.0}
        cfg = E.parse_config(minimal_config(
            model={"channel": channel, "bound": 1.0}, alpha=2.0,
            variants=[{"label": "v", "channel": channel}]))
        assert cfg.doc_base is None and cfg.variants[0].doc_base is None

    @pytest.mark.parametrize("name", E.preset_names() + ["derived-exp", "derived-weibull"])
    def test_to_dict_reads_back_equal(self, perfbench, name):
        workloads = perfbench("workloads")
        derived = {c["name"]: c for c in (workloads.DERIVED_EXPONENTIAL,
                                          workloads.DERIVED_WEIBULL)}
        cfg = E.parse_config(derived[name]) if name in derived else E.preset(name)
        assert E.parse_config(cfg.to_dict()) == cfg
        assert E.parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_to_dict_writes_output_and_format(self):
        cfg = E.parse_config(minimal_config(output="out/x", format="json"))
        assert cfg.to_dict()["output"] == "out/x" and cfg.to_dict()["format"] == "json"
        assert E.parse_config(cfg.to_dict()) == cfg
        assert "output" not in E.parse_config(minimal_config()).to_dict()

    def test_weibull_alpha_inference(self):
        raw = minimal_config()
        raw["model"] = {"channel": {"family": "weibull", "index": 2.0, "scale": 2.0},
                        "doc": {"family": "weibull", "index": 2.0, "scale": 1.0},
                        "bound": 8.0}
        assert E.parse_config(raw).alpha == 4.0

    def test_rejections(self):
        cases = [
            minimal_config(samples=10),                         # too few samples
            minimal_config(confidence=0.4),
            minimal_config(curves=["mc", "bogus"]),
            minimal_config(grid={"n_min": 0, "n_max": 5}),
            minimal_config(extra_key=1),
            minimal_config(format="xml"),
        ]
        for raw in cases:
            with pytest.raises(ConfigInvalid):
                E.parse_config(raw)
        bad_model = minimal_config()
        bad_model["model"] = {"channel": {"family": "exponential", "rate": 1.0},
                              "doc": {"derived": True}, "bound": 1.0}
        with pytest.raises(ConfigInvalid):
            E.parse_config(bad_model)    # derived needs explicit alpha

    @pytest.mark.parametrize("key, value, want", [
        ("skip_coupling_check", "false", ConfigInvalid),
        ("skip_coupling_check", 1, ConfigInvalid),
        ("seed", 3.9, ConfigInvalid),
        ("seed", math.inf, ConfigInvalid),
        ("seed", "3", ConfigInvalid),
        ("seed", 10**400, ConfigInvalid),
        ("samples", 2500.7, ConfigInvalid),
        ("workers", True, ConfigInvalid),
        ("grid.n_max", 30.9, ConfigInvalid),
        ("grid.points_per_decade", 2.5, ConfigInvalid),
        ("alpha", True, ConfigInvalid),
        ("alpha", "2", ConfigInvalid),
        ("confidence", "0.9", ConfigInvalid),
        ("model.bound", "1.5", ConfigInvalid),
        ("model.bound", [1.0, False], ConfigInvalid),
        ("model.channel.rate", True, ConfigInvalid),
        ("model.doc.rate", "2", ConfigInvalid),
        ("ell.exponent", None, ConfigInvalid),
        ("ell.x_min", "3", ConfigInvalid),
        ("name", True, ConfigInvalid),
        ("name", 3, ConfigInvalid),
        ("output", 3, ConfigInvalid),
        ("output", ["out"], ConfigInvalid),
        ("format", 1, ConfigInvalid),
        ("variants[0].label", 5, ConfigInvalid),
        ("variants[0].label", None, ConfigInvalid),
        ("skip_coupling_check", True, True),
        ("name", "run", "run"),
        ("seed", 3.0, 3),
        ("samples", 2500, 2500),
        ("workers", 2.0, 2),
        ("grid.n_max", 30.0, 30),
        ("grid.points_per_decade", 2, 2),
        ("alpha", 2, 2.0),
        ("confidence", 0.9, 0.9),
    ])
    def test_numbers_and_flags_are_strict(self, tmp_path, capsys, key, value, want):
        # an int may come as an integral float, a float as an int; nothing
        # else converts, and a rejected value is named by its key
        raw = minimal_config(ell={"kind": "log_power", "coeff": 1.0, "exponent": 1.0},
                             variants=[{"label": "v", "channel": {"family": "exponential",
                                                                  "rate": 1.0}}])
        *blocks, leaf = key.split(".")
        block = raw
        for name in blocks:
            name, _, index = name.partition("[")
            block = block[name][int(index[:-1])] if index else block[name]
        block[leaf] = value
        if want is ConfigInvalid:
            with pytest.raises(ConfigInvalid, match=f"^{re.escape(key)}: "):
                E.parse_config(raw)
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))
            assert cli.main(["validate", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {key}: ")
            return
        cfg = E.parse_config(raw)
        got = getattr(cfg.grid if blocks else cfg, leaf)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("raw", [
        minimal_config(variants=[{"label": "v", "doc": None,
                                  "channel": {"family": "exponential", "rate": 1.0}}]),
        minimal_config(ell=None),
        minimal_config(model={"channel": {"family": "exponential", "rate": 1.0},
                              "doc": [1], "bound": 1.0}),
        minimal_config(grid=None),
        minimal_config(model={"channel": {"family": "cauchy", "scale": 1.0},
                              "bound": 1.0}),
        minimal_config(model={"channel": {"rate": 1.0}, "bound": 1.0}),
        minimal_config(ell={"kind": "nope"}),
        minimal_config(ell={"kind": "log_power", "coeff": None, "exponent": 1.0}),
    ], ids=["variant-doc-null", "ell-null", "doc-list", "grid-null", "unknown-family",
            "no-family", "unknown-kind", "required-field-null"])
    def test_malformed_blocks_are_config_errors(self, tmp_path, capsys, raw):
        with pytest.raises(ConfigInvalid):
            E.parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("key, raw", [
        ("ell.xmin", minimal_config(ell={"kind": "log_power", "coeff": 1, "exponent": 1,
                                         "xmin": 50})),
        ("ell.coeff", minimal_config(ell={"kind": "one", "coeff": 1})),
        ("model.channel.rat", minimal_config(model={
            "channel": {"family": "exponential", "rate": 1, "rat": 5}, "bound": 1.0})),
        ("model.doc.scale", minimal_config(model={
            "channel": {"family": "exponential", "rate": 1},
            "doc": {"family": "exponential", "rate": 2, "scale": 1}, "bound": 1.0})),
        ("model.doc.rate", minimal_config(alpha=2.0, model={
            "channel": {"family": "exponential", "rate": 1},
            "doc": {"derived": True, "rate": 2}, "bound": 1.0})),
        ("model.bnd", minimal_config(model={
            "channel": {"family": "exponential", "rate": 1},
            "doc": {"family": "exponential", "rate": 2}, "bound": 1.0, "bnd": 2})),
        ("grid.n_maxx", minimal_config(grid={"n_maxx": 30})),
        ("variants[0].bound", minimal_config(variants=[{
            "label": "v", "channel": {"family": "exponential", "rate": 1}, "bound": 2}])),
        ("variants[0].lable", minimal_config(variants=[{
            "lable": "v", "channel": {"family": "exponential", "rate": 1}}])),
    ])
    def test_unknown_fields_are_config_errors(self, tmp_path, capsys, key, raw):
        # a misspelt or misplaced key is named with its path, never dropped
        with pytest.raises(ConfigInvalid, match=rf"^{re.escape(key)}: unknown field; known: "):
            E.parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: unknown field")

    def test_a_law_doc_block_may_say_it_is_not_derived(self):
        raw = minimal_config()
        raw["model"]["doc"]["derived"] = False
        assert E.parse_config(raw) == E.parse_config(minimal_config())

    def test_n_max_flag_on_a_malformed_grid(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(grid=None)))
        assert cli.main(["oracle", "--config", str(path), "--n-max", "5"]) == 2
        assert capsys.readouterr().err == "config error: grid must be an object, got None\n"

    def test_exact_integer_requires_integer_alpha(self):
        raw = minimal_config(curves=["exact_integer"], alpha=0.5)
        with pytest.raises(ConfigInvalid):
            E.parse_config(raw)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            E.load_config(tmp_path / "nope.json")


class TestGrid:
    def test_log_grid_properties(self):
        g = E.log_grid(1, 1000, 24)
        assert g[0] == 1 and g[-1] == 1000
        assert g == sorted(set(g))
        assert all(isinstance(n, int) for n in g)
        decade = [n for n in g if 100 <= n < 1000]
        assert 20 <= len(decade) <= 26

    def test_explicit_grid_is_verbatim(self, tmp_path):
        cfg = E.parse_config(minimal_config(
            output=str(tmp_path / "out" / "smoke")))
        result = E.run_experiment(cfg)
        assert result.cases[0].grid == tuple(range(1, 11))

    def test_auto_grid_trims_at_tail_floor(self):
        raw = minimal_config()
        del raw["grid"]
        raw["samples"] = 1000
        raw["curves"] = ["mc", "oracle"]
        cfg = E.parse_config(raw)
        result = E.run_experiment(cfg)
        case = result.cases[0]
        # every kept point has oracle at or above 10/samples; the curve
        # would cross it within a couple of grid steps
        assert case.oracle[-1].value >= 10 / cfg.samples
        assert len(case.grid) < 40


class TestRunAndEmit:
    def test_minimal_run_emits_ten_rows(self, tmp_path):
        cfg = E.parse_config(minimal_config(output=str(tmp_path / "smoke")))
        result = E.run_experiment(cfg)
        case = result.cases[0]
        data = E.read_curve_file(case.files[0])
        assert len(data["n"]) == 10
        assert all(v is not None for v in data["mc_ccdf"])
        assert all(v is None for v in data["oracle"])

    def test_deterministic_bytes(self, tmp_path):
        cfg1 = E.parse_config(minimal_config(output=str(tmp_path / "a" / "run")))
        cfg2 = E.parse_config(minimal_config(output=str(tmp_path / "b" / "run")))
        f1 = E.run_experiment(cfg1).cases[0].files[0]
        f2 = E.run_experiment(cfg2).cases[0].files[0]
        assert f1.read_bytes() == f2.read_bytes()

    def test_numeric_roundtrip_json_and_csv(self, tmp_path):
        for fmt in ("csv", "json"):
            cfg = E.parse_config(minimal_config(
                output=str(tmp_path / fmt / "run"), format=fmt,
                curves=["mc", "oracle", "uniform_approx", "power_law",
                        "exact_integer", "exp_tail", "log_body"]))
            case = E.run_experiment(cfg).cases[0]
            data = E.read_curve_file(case.files[0])
            for col in ("mc_ccdf", "mc_ci_lo", "oracle"):
                assert data[col] == case.table[col].tolist()
            # log body undefined at n = 1, written as an empty field
            assert data["log_body"][0] is None
            assert data["log_body"][5] is not None

    def test_oracle_matches_integer_sum_in_file(self, tmp_path):
        cfg = E.parse_config({
            "name": "check", "samples": 1000, "seed": 3,
            "model": {"channel": {"family": "exponential", "rate": 1.0},
                      "doc": {"family": "exponential", "rate": 2.0},
                      "bound": 2.0},
            "grid": {"n_min": 1, "n_max": 12},
            "curves": ["oracle", "exact_integer"],
            "output": str(tmp_path / "check"),
        })
        case = E.run_experiment(cfg).cases[0]
        data = E.read_curve_file(case.files[0])
        i = data["n"].index(10)
        assert abs(data["oracle"][i] - data["exact_integer"][i]) \
            <= 1e-8 * data["exact_integer"][i]

    def test_sidecar_contents(self, tmp_path):
        cfg = E.parse_config(minimal_config(output=str(tmp_path / "meta")))
        case = E.run_experiment(cfg).cases[0]
        meta = json.loads(case.files[1].read_text())
        assert meta["seed"] == 5
        assert meta["config"]["model"]["doc"]["rate"] == 2.0
        assert meta["case"] == "b1"
        assert "artifact_version" in meta

    def test_report_fields(self):
        cfg = E.parse_config(minimal_config(
            curves=["mc", "oracle", "uniform_approx"], samples=20_000))
        rep = E.run_experiment(cfg).cases[0].report
        assert rep.oracle_threshold == E.ORACLE_REPORT_THRESHOLD
        assert rep.ci_coverage is not None and 0.0 <= rep.ci_coverage <= 1.0
        assert rep.max_rel_err["uniform_approx"] > 0.0
        assert rep.coupling_residual == pytest.approx(0.0, abs=1e-13)
        assert rep.transition is not None

    def test_coupling_gate(self):
        raw = minimal_config(alpha=3.0)
        with pytest.raises(CouplingInvalid):
            E.run_experiment(E.parse_config(raw))
        raw["skip_coupling_check"] = True
        E.run_experiment(E.parse_config(raw))   # completes under the override

    def test_no_output_no_files(self):
        cfg = E.parse_config(minimal_config())
        case = E.run_experiment(cfg).cases[0]
        assert case.files == ()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(E.ENV_OUTDIR, str(tmp_path))
        cfg = E.parse_config(minimal_config(output="envrun"))
        case = E.run_experiment(cfg).cases[0]
        assert case.files[0].parent == tmp_path

    def test_derived_model_end_to_end(self):
        # document law defined through the relation; with the exact ell it
        # must reproduce the parametric gamma model's CCDF
        cfg = E.parse_config({
            "name": "derived-check",
            "model": {"channel": {"family": "exponential", "rate": 2.0},
                      "doc": {"derived": True}, "bound": [2.0]},
            "alpha": 1.0,
            "ell": {"kind": "gamma_doc_exact", "doc_rate": 2.0, "shape": 2.0,
                    "channel_rate": 2.0},
            "samples": 20_000, "seed": 7,
            "curves": ["mc", "oracle", "uniform_approx"],
        })
        case = E.run_experiment(cfg).cases[0]
        assert case.report.coupling_residual is None   # nothing to validate
        from retxdist.dists import CoupledModel, Exponential, Gamma, SlowVaryGammaDoc
        from retxdist.oracle import ccdf_exact
        m_param = CoupledModel.parametric(Exponential(2.0), Gamma(2.0, 2.0), 1.0,
                                          SlowVaryGammaDoc(2.0, 2.0, 2.0), 2.0)
        for n in (1, 10, 100):
            a = ccdf_exact(m_param, n).value
            b = ccdf_exact(case.model, n).value
            assert b == pytest.approx(a, rel=1e-10)



class TestOracleFailure:
    """A failing oracle call names its case and n (a negative REL_TOL, which
    every level gap exceeds)."""

    def test_run_names_case_and_n(self, monkeypatch):
        monkeypatch.setattr(oracle, "REL_TOL", -1.0)
        cfg = E.parse_config(minimal_config(curves=["oracle"]))
        with pytest.raises(QuadratureFailure, match=r"^case b1: n=1: levels "):
            E.run_experiment(cfg)

    def test_oracle_verb_names_case_and_n(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "REL_TOL", -1.0)
        assert cli.main(["oracle", "--preset", "example1a", "--n", "74989"]) == 3
        assert capsys.readouterr().err.startswith("error: case b1: n=74989: levels ")


def test_monte_carlo_failure_names_case(monkeypatch):
    def stuck(doc):
        def quantile(u):
            raise NonConvergence("derived quantile: 5 values still moving")
        return quantile

    monkeypatch.setattr(mc, "sampling_quantile", stuck)
    cfg = E.parse_config(minimal_config())
    with pytest.raises(NonConvergence,
                       match=r"^case b1: derived quantile: 5 values still moving$"):
        E.run_experiment(cfg)


def test_monte_carlo_failure_names_the_later_case(monkeypatch, tmp_path):
    # both cases share one pass; only the second one's quantile raises, and
    # no case's files are written
    sampling_quantile = mc.sampling_quantile

    def stuck_at_b2(doc):
        if doc.bound != 2.0:
            return sampling_quantile(doc)

        def quantile(u):
            raise NonConvergence("derived quantile: 5 values still moving")
        return quantile

    monkeypatch.setattr(mc, "sampling_quantile", stuck_at_b2)
    model = {**minimal_config()["model"], "bound": [1.0, 2.0]}
    cfg = E.parse_config(minimal_config(model=model, output=str(tmp_path / "run")))
    with pytest.raises(NonConvergence, match=r"^case b2: derived quantile: "):
        E.run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, retxdist.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestCaseErrors:
    """Every verb names the case a failure happened in."""

    def test_transition_without_root(self, tmp_path, capsys):
        # Gbar(0.1) = 0.905 >= alpha/e = 0.736: no upper-branch root
        raw = E.preset("example1a").to_dict()
        raw["model"]["bound"] = [0.1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["transition", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: case b0.1: Gbar(b)=0.904837")
        assert "no root" in err

    @pytest.mark.parametrize("verb", ["run", "oracle", "approx", "transition",
                                      "validate"])
    def test_model_building_failure(self, tmp_path, capsys, verb):
        # a strong negative log power makes the derived survival rise near 0
        raw = minimal_config(model={"channel": {"family": "exponential", "rate": 1.0},
                                    "doc": {"derived": True}, "bound": [20.0]},
                             alpha=0.5, ell={"kind": "log_power", "coeff": 1.0,
                                             "exponent": -5.0})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main([verb, "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: case b20: derived survival function is not nonincreasing "
            "on the check grid\n")


@pytest.mark.parametrize("name", E.preset_names())
def test_approx_prints_the_run_closed_form_cells(tmp_path, capsys, name):
    kinds = sorted(s.value for s in E.preset(name).curves
                   if s.value in E.CLOSED_FORMS)
    assert cli.main(["run", "--preset", name, "--samples", "10000",
                     "--output", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for case in E.preset(name).cases():
        label = case[0]
        data = (tmp_path / f"{name}_{label}.csv").read_text().splitlines()
        header = data[0].split(",")
        rows = [line.split(",") for line in data[1:]]
        argv = ["approx", "--preset", name, *(f"--n={row[0]}" for row in rows),
                *(f"--kind={k}" for k in kinds)]
        assert cli.main(argv) == 0
        printed = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert printed[0] == ["case", "n", *kinds]
        mine = [row[2:] for row in printed[1:] if row[0] == label]
        assert mine == [[row[header.index(k)] for k in kinds] for row in rows]
    if name == "example2":
        # n = 1 is outside log_body's domain: an empty cell in both
        assert mine[0][kinds.index("log_body")] == ""


GOLDEN = Path(__file__).parent / "data" / "golden"


class TestGoldenOutput:
    """The frozen column surface, byte for byte.

    tests/data/golden holds the data files and sidecar reports of
    `retxdist run --config tests/data/golden/config.json` in both formats
    (all seven curves, n = 1..30, 2,000 samples, one worker). The MC
    columns pin numpy's PCG64DXSM stream and the oracle column the
    quadrature, so a change that moves either must regenerate these files
    on purpose.
    """

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_data_and_report_match(self, tmp_path, fmt):
        cfg = dataclasses.replace(
            E.load_config(GOLDEN / "config.json"), fmt=fmt,
            output_prefix=str(tmp_path / "golden"))
        reports = json.loads((GOLDEN / "reports.json").read_text())
        result = E.run_experiment(cfg)
        assert [case.label for case in result.cases] == sorted(reports)
        for case in result.cases:
            data_path, meta_path = case.files
            assert data_path.read_bytes() == (GOLDEN / data_path.name).read_bytes()
            data = E.read_curve_file(data_path)
            assert data["n"] == list(case.grid)
            for col in E.CSV_COLUMNS[1:]:
                assert data[col] == [None if math.isnan(v) else v
                                     for v in case.table[col].tolist()]
            meta = json.loads(meta_path.read_text())
            assert meta["report"] == reports[case.label]


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(
            output=str(tmp_path / "cli_run"))))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "case b1" in out and "wrote" in out

    def test_run_csv_does_not_depend_on_workers(self, tmp_path, capsys, monkeypatch):
        # two CPUs even on a single-CPU box, so --workers 2 takes the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for workers in ("1", "2"):
            assert cli.main(["run", "--preset", "example4", "--samples", "40000",
                             "--workers", workers,
                             "--output", str(tmp_path / f"w{workers}")]) == 0
        for label, *_ in E.preset("example4").cases():
            name = f"_{label}.csv"
            assert ((tmp_path / ("w1" + name)).read_bytes()
                    == (tmp_path / ("w2" + name)).read_bytes())

    def test_preset_verb(self, capsys):
        assert cli.main(["preset", "example1a"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 2.0

    def test_python_dash_m(self):
        # `python -m retxdist` with only the source tree on the path
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "retxdist", "preset", "example1a"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["alpha"] == 2.0

    def test_preset_out_file(self, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        assert cli.main(["preset", "example1a", "--out", str(out)]) == 0
        assert E.load_config(out).alpha == 2.0

    def test_bad_preset_exits_two(self, capsys):
        assert cli.main(["preset", "nope"]) == 2

    def test_missing_config_exits_two(self, capsys):
        assert cli.main(["run", "--config", "/definitely/not/here.json"]) == 2

    def test_oracle_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        assert cli.main(["oracle", "--config", str(cfg_path), "--n", "1",
                         "--n", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("case,n,value")
        assert len(lines) == 3

    def test_oracle_negative_n_exits_two_before_output(self, capsys):
        assert cli.main(["oracle", "--preset", "example1a", "--n", "5",
                         "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --n must be >= 0, got -1\n"
        assert cli.main(["oracle", "--preset", "example1a", "--n", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{label},0,1,0,0,0" for label in ("b1", "b2", "b4")]

    def test_approx_negative_n_exits_two_before_output(self, capsys):
        assert cli.main(["approx", "--preset", "example1a", "--n", "5",
                         "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --n must be >= 0, got -1\n"

    def test_approx_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        code = cli.main(["approx", "--config", str(cfg_path), "--n", "10",
                         "--kind", "uniform_approx", "--kind", "exact_integer"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        cells = lines[1].split(",")
        assert float(cells[2]) > 0.0
        parsed = E.parse_config(minimal_config())
        m = E.build_model(parsed.channel, parsed.doc_base, parsed.alpha,
                          parsed.ell, 1.0)
        want = exact_integer_ccdf(ApproxParams.from_model(m), 10)
        assert float(cells[3]) == pytest.approx(want, rel=1e-12)

    def test_transition_verb(self, capsys):
        assert cli.main(["transition", "--preset", "example2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b1"]["n_heuristic"] == pytest.approx(2 * math.e, rel=1e-12)

    def test_validate_verb(self, capsys):
        assert cli.main(["validate", "--preset", "example4"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_validate_fails_numeric(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(
            alpha=3.0, skip_coupling_check=True)))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 3

    def test_override_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        code = cli.main(["run", "--config", str(cfg_path),
                         "--samples", "2000", "--seed", "9",
                         "--output", str(tmp_path / "o" / "r"),
                         "--format", "json", "--curves", "mc,oracle"])
        assert code == 0
        files = list((tmp_path / "o").glob("*.json"))
        assert any(f.name == "r_b1.json" for f in files)
        data = E.read_curve_file(tmp_path / "o" / "r_b1.json")
        assert all(v is not None for v in data["oracle"])

    def test_run_flags_are_config_keys(self):
        args = vars(cli.build_parser().parse_args(["run", "--preset", "example1a"]))
        flags = set(args) - {"command", "fn", "config", "preset"}
        assert len(flags) == 9 and flags <= E.CONFIG_KEYS
        assert all(args[key] is None for key in flags)     # a flag left out sets nothing

    def test_run_flags_write_their_config_keys(self, tmp_path, capsys):
        out = str(tmp_path / "o" / "r")
        flags = ["--samples", "3000", "--seed", "9", "--workers", "2",
                 "--confidence", "0.9", "--output", out, "--format", "json",
                 "--curves", "mc, oracle,power_law", "--n-max", "30",
                 "--skip-coupling-check"]
        keys = {"samples": 3000, "seed": 9, "workers": 2, "confidence": 0.9,
                "output": out, "format": "json", "curves": ["mc", "oracle", "power_law"],
                "skip_coupling_check": True}
        raw = E.preset_dict("example1a")
        raw.update(keys, grid={"n_max": 30})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        written = []
        for argv in (["--preset", "example1a", *flags], ["--config", str(path)]):
            assert cli.main(["run", *argv]) == 0
            written.append({f.name: f.read_bytes() for f in (tmp_path / "o").iterdir()})
        assert written[0] == written[1] and len(written[0]) == 6
        meta = json.loads(written[0]["r_b1.meta.json"])
        assert meta["config"] == {**E.preset("example1a").to_dict(), **keys,
                                  "grid": {"n_min": 1, "n_max": 30, "points_per_decade": 24}}

    def test_run_leaves_the_preset_unchanged(self, capsys):
        assert cli.main(["preset", "example1a"]) == 0
        before = capsys.readouterr().out
        assert cli.main(["run", "--preset", "example1a", "--samples", "1000",
                         "--n-max", "30", "--curves", "oracle"]) == 0
        capsys.readouterr()
        assert cli.main(["preset", "example1a"]) == 0
        assert capsys.readouterr().out == before

    def test_skip_coupling_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(alpha=3.0)))
        assert cli.main(["run", "--config", str(cfg_path)]) == 3
        assert cli.main(["run", "--config", str(cfg_path),
                         "--skip-coupling-check"]) == 0

    def test_bad_curves_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--curves", "mc,bogus"]) == 2
