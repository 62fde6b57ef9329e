import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import critpoint
import critpoint.cli as cli
from critpoint import mobius as mb
from critpoint.cli import main, parse_config
from critpoint.experiments import (EXPERIMENTS, AnticoncentrationConfig,
                                   ConvergenceConfig, GrowthConfig, JensenConfig,
                                   LLNConfig)
from critpoint.sampler import BaseMeasure, SeedSpec

CIRCLE = {"kind": "UniformCircle", "params": {"center": [0, 0], "radius": 1}}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def small_convergence_config(out_dir):
    return {
        "measure": CIRCLE,
        "experiment": "convergence",
        "n_schedule": [8, 16],
        "seed": {"master_seed": 7, "stream_id": 0},
        "tolerances": {"k_reference": 500, "improvement_factor": None, "quadrant_max": None},
        "out_dir": out_dir,
    }


def small_config(experiment, out_dir, **top):
    return {"measure": CIRCLE, "experiment": experiment, "n_schedule": [8, 16],
            "seed": 7, "tolerances": {}, "out_dir": out_dir, **top}


def test_critical_subcommand_two_roots(tmp_path, capsys):
    roots = write(tmp_path, "roots2.json", [[1, 0], [-1, 0]])
    code = main(["critical", "--roots", roots])
    out = capsys.readouterr().out
    pts = json.loads(out)
    assert code == 0
    assert len(pts) == 1
    assert abs(complex(pts[0][0], pts[0][1])) < 1e-10


def test_critical_subcommand_writes_artifact(tmp_path, capsys):
    roots = write(tmp_path, "roots.json", [[0, 0], [0, 0], [3, 0]])
    out_dir = str(tmp_path / "out")
    code = main(["critical", "--roots", roots, "--out", out_dir])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(open(os.path.join(out_dir, "critical.json")).read())
    assert doc["method"] == "aberth"
    pts = sorted((complex(p[0], p[1]) for p in doc["points"]), key=abs)
    assert abs(pts[0]) < 1e-9 and abs(pts[1] - 2.0) < 1e-9


def test_run_writes_reports_and_is_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = write(tmp_path, "conv.json", small_convergence_config(out1))
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--quiet", "--out", out2]) == 0
    capsys.readouterr()
    csv1 = open(os.path.join(out1, "series.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "series.csv"), "rb").read()
    assert csv1 == csv2
    rep = json.loads(open(os.path.join(out1, "report.json")).read())
    assert rep["schema"] == 1
    assert rep["passed"] is True
    first = csv1.decode().splitlines()[0]
    assert first.rstrip("\r") == "experiment,n,stat_name,value"


def test_run_seed_override_changes_values_not_schema(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg1 = write(tmp_path, "c1.json", small_convergence_config(out1))
    cfg2 = write(tmp_path, "c2.json", small_convergence_config(out2))
    assert main(["run", "--config", cfg1, "--quiet"]) == 0
    assert main(["run", "--config", cfg2, "--quiet", "--seed", "12345"]) == 0
    capsys.readouterr()
    r1 = json.loads(open(os.path.join(out1, "report.json")).read())
    r2 = json.loads(open(os.path.join(out2, "report.json")).read())
    assert set(r1) == set(r2)
    assert [row["stat"] for row in r1["rows"]] == [row["stat"] for row in r2["rows"]]
    assert [row["value"] for row in r1["rows"]] != [row["value"] for row in r2["rows"]]
    assert r2["config"]["seed"]["master_seed"] == 12345


def test_malformed_json_exit_2_with_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "measure": \n}')
    assert main(["run", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    doc = small_convergence_config(str(tmp_path))
    doc["surprise"] = 1
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "surprise" in capsys.readouterr().err

    doc = small_convergence_config(str(tmp_path))
    doc["tolerances"]["mystery_knob"] = 2
    cfg = write(tmp_path, "c2.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_missing_required_key_exit_2(tmp_path, capsys):
    doc = small_convergence_config(str(tmp_path))
    del doc["measure"]
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg]) == 2
    capsys.readouterr()


def test_failing_verdict_exit_1(tmp_path, capsys):
    doc = small_convergence_config(str(tmp_path / "out"))
    doc["tolerances"]["improvement_factor"] = 1e9
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    capsys.readouterr()


def test_degenerate_anticoncentration_exit_2(tmp_path, capsys):
    doc = {
        "measure": {"kind": "FiniteSupport",
                    "params": {"atoms": [[1, 0], [-1, 0]], "weights": [0.5, 0.5]}},
        "experiment": "anticoncentration",
        "n_schedule": [10, 20],
        "trials": 10,
        "out_dir": str(tmp_path),
    }
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "non-degenerate" in capsys.readouterr().err


def test_missing_roots_file_exit_2(tmp_path, capsys):
    assert main(["critical", "--roots", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_critical_non_finite_tol_exit_2(tmp_path, capsys):
    # tol = inf would certify every iterate after two sweeps
    roots = write(tmp_path, "roots.json", [[1, 0], [-1, 0], [0, 1]])
    for tol in ("inf", "nan"):
        assert main(["critical", "--roots", roots, "--tol", tol]) == 2
        assert "tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", [5, "", None, ["out"]])
def test_bad_out_dir_exit_2_before_running(tmp_path, capsys, monkeypatch, out_dir):
    def not_called(*args):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", not_called)
    cfg = write(tmp_path, "c.json", small_config("lln", out_dir))
    assert main(["run", "--config", cfg]) == 2
    assert "out_dir" in capsys.readouterr().err


def test_quiet_suppresses_summary(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.json", small_convergence_config(out))
    main(["run", "--config", cfg, "--quiet"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("u_transform", [[[1, 0], [0, 0], [0, 0], [1]],
                                         [[1, 0], [0, 0], [0, 0], "x"]])
def test_malformed_u_transform_exit_2(tmp_path, capsys, u_transform):
    doc = small_config("lln", str(tmp_path))
    doc["tolerances"]["u_transform"] = u_transform
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "mobius coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("w0", [0.5, 1e-9])
def test_lln_fixed_transform_sending_an_atom_to_0_exit_2(tmp_path, capsys, w0):
    # log^-|u| is infinite at the atom 0, so the integral is too, even when
    # no sample draws that atom
    out = tmp_path / "out"
    atoms = {"kind": "FiniteSupport",
             "params": {"atoms": [[0, 0], [1, 0]], "weights": [w0, 1 - w0]}}
    doc = small_config("lln", str(out), measure=atoms)
    doc["tolerances"] = {"k_reference": 1000, "u_transform": mb.identity().to_json()}
    cfg = write(tmp_path, "c.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "u_transform" in capsys.readouterr().err
    assert not out.exists()


def _with_setting(experiment, key, value, where="tolerances"):
    def make(out_dir):
        doc = small_config(experiment, out_dir)
        if where == "tolerances":
            doc["tolerances"][key] = value
        else:
            doc[key] = value
        return doc
    return make


def _with_measure(kind, **params):
    def make(out_dir):
        doc = small_config("convergence", out_dir)
        doc["measure"] = {"kind": kind, "params": params}
        return doc
    return make


@pytest.mark.parametrize("make", [
    _with_setting("convergence", "k_reference", "abc"),
    _with_setting("anticoncentration", "projection", ["a", 1]),
    _with_setting("convergence", "directions", 1.5),
    _with_setting("growth", "m_circle", 2.5),
    _with_setting("convergence", "n_schedule", [8.7, 16], "top"),
    _with_setting("jensen", "trials", 2.9, "top"),
    _with_setting("growth", "circle_center", [0.5, 0.5]),
    _with_measure("UniformDisk", center=[0, 0], radius="abc"),
    _with_setting("convergence", "seed", {"master_seed": "abc"}, "top"),
    _with_measure("UniformDisk", center=[True, 0], radius=1),
    _with_measure("FiniteSupport", atoms=5, weights=[1.0]),
    _with_measure("FiniteSupport", atoms=[[1, 0]], weights=1.0),
], ids=["k_reference-string", "projection-string", "directions-float", "m_circle-float",
        "n_schedule-float", "trials-float", "circle_center-alone", "disk-radius-string",
        "master_seed-string", "disk-center-boolean", "atoms-not-a-list",
        "weights-not-a-list"])
def test_malformed_setting_exit_2(tmp_path, capsys, make):
    cfg = write(tmp_path, "c.json", make(str(tmp_path / "out")))
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("experiment,key,value,where", [
    ("growth", "trials", 999, "top"),
    ("growth", "probes", [[9, 9]], "tolerances"),
    ("growth", "tol_solver", 5, "tolerances"),
    ("lln", "trials", 3, "top"),
    ("convergence", "m_circle", 512, "tolerances"),
    ("jensen", "tol_solver", 1e-10, "top"),
])
def test_unread_key_exit_2_names_it(tmp_path, capsys, experiment, key, value, where):
    cfg = write(tmp_path, "c.json", _with_setting(experiment, key, value, where)(str(tmp_path)))
    assert main(["run", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_no_experiment_accepts_a_setting_it_does_not_read():
    # every setting of every experiment, at its default, offered to all five
    settings = {}
    for cls, _ in EXPERIMENTS.values():
        doc = cls(measure=BaseMeasure.uniform_circle(), n_schedule=(8,)).to_json()
        settings.update({k: ("top", doc[k]) for k in ("trials",) if k in doc})
        settings.update({k: ("tolerances", v) for k, v in doc["tolerances"].items()})
    rejected = 0
    for name, (cls, _) in EXPERIMENTS.items():
        reads = {f.name for f in fields(cls)}
        for key, (where, value) in settings.items():
            doc = _with_setting(name, key, value, where)(".")
            if key in reads:
                parse_config(doc)
            else:
                with pytest.raises(critpoint.ParameterError, match=key):
                    parse_config(doc)
                rejected += 1
    assert rejected == 76


@pytest.mark.parametrize("config", [
    ConvergenceConfig(measure=BaseMeasure.uniform_disk(0.5j, 2.0), n_schedule=(8, 16),
                      seed=SeedSpec(3, 4), k_reference=500, quadrant_max=None),
    JensenConfig(measure=BaseMeasure.complex_gaussian(), n_schedule=(50,), trials=7,
                 jensen_slack=0.1),
    AnticoncentrationConfig(measure=BaseMeasure.uniform_circle(), n_schedule=(10, 20),
                            probes=(1.5, 2j), projection=(0.0, 1.0), r_ball=0.5),
    GrowthConfig(measure=BaseMeasure.complex_cauchy(), n_schedule=(16,), m_circle=64,
                 circle_center=0.1 + 0.2j, circle_radius=1.7),
    LLNConfig(measure=BaseMeasure.finite_support([1, -1], [0.25, 0.75]), n_schedule=(10,),
              u_transform=mb.affine(2.0, -1j)),
], ids=lambda c: c.experiment)
def test_config_json_round_trip(config):
    doc = json.loads(json.dumps(config.to_json()))
    experiment, back, _ = parse_config(doc)
    assert experiment == config.experiment
    if config.measure.has_finite_support:
        # params hold numpy arrays, which == does not compare as one value
        assert back.measure.to_json() == config.measure.to_json()
        back = replace(back, measure=config.measure)
    assert back == config


def test_report_config_reruns_identically(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", write(tmp_path, "c1.json",
                                          small_convergence_config(out1)), "--quiet"]) == 0
    doc = json.loads(open(os.path.join(out1, "report.json")).read())["config"]
    assert main(["run", "--config", write(tmp_path, "c2.json", doc),
                 "--out", out2, "--quiet"]) == 0
    capsys.readouterr()
    csv1 = open(os.path.join(out1, "series.csv"), "rb").read()
    assert csv1 == open(os.path.join(out2, "series.csv"), "rb").read()


def test_run_experiment_rejects_another_experiments_config():
    config = GrowthConfig(measure=BaseMeasure.uniform_circle(), n_schedule=(8,))
    with pytest.raises(critpoint.ParameterError):
        cli.run_experiment("jensen", config)


def test_docstring_lists_every_setting():
    for cls, _ in EXPERIMENTS.values():
        for f in fields(cls):
            assert f.name in cli.__doc__, (cls.experiment, f.name)


def test_series_csv_is_rfc4180(tmp_path, capsys):
    import csv as csvmod
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.json", small_convergence_config(out))
    main(["run", "--config", cfg, "--quiet"])
    capsys.readouterr()
    with open(os.path.join(out, "series.csv"), newline="") as f:
        rows = list(csvmod.reader(f))
    assert rows[0] == ["experiment", "n", "stat_name", "value"]
    for row in rows[1:]:
        assert len(row) == 4
        float(row[3])


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(critpoint.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-m", "critpoint.cli", "--help"],
                       env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert "usage" in p.stdout


def test_cli_import_skips_scipy_optimize():
    # the Hungarian comparator is test-side and the solver set-up is numpy;
    # starting the CLI must not pay for either
    src = os.path.dirname(os.path.dirname(os.path.abspath(critpoint.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-c",
                        "import sys, critpoint.cli; "
                        "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])"],
                       env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"
