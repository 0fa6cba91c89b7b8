"""End-to-end checks of the command line front end.

Everything runs in-process through ``main(argv)`` so exit codes and
printed output can be asserted without spawning subprocesses.
"""

import json

import numpy as np
import pytest

from stochreg import experiment, fileio, verify
from stochreg.cli import main
from stochreg.experiment import spec_from_dict
from stochreg.problems import (instance_to_dict, is_preconditioned,
                               load_instance, load_noisy, make_instance,
                               save_instance)


def _generate(tmp_path, name, *extra):
    prefix = tmp_path / name
    rc = main(["generate", "s-shaw", "--n", "16", "--eps", "1e-2",
               "--seed", "3", "--out", str(prefix), *extra])
    assert rc == 0
    return prefix


def test_generate_writes_both_files(tmp_path, capsys):
    prefix = _generate(tmp_path, "p")
    assert (tmp_path / "p.instance.json").exists()
    assert (tmp_path / "p.noise.json").exists()
    out = capsys.readouterr().out
    assert "delta_bar" in out
    assert "step_unit_c" in out


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path, "a")
    b = _generate(tmp_path, "b")
    for suffix in (".instance.json", ".noise.json"):
        left = (tmp_path / ("a" + suffix)).read_bytes()
        right = (tmp_path / ("b" + suffix)).read_bytes()
        assert left == right


def test_generate_smoothing_keeps_unit_max(tmp_path):
    prefix = _generate(tmp_path, "s", "--nu", "2")
    inst = load_instance(f"{prefix}.instance.json")
    assert np.max(np.abs(inst.x_dag)) == pytest.approx(1.0, abs=1e-14)


def test_generate_precondition_flag(tmp_path):
    prefix = _generate(tmp_path, "rot", "--precondition")
    inst = load_instance(f"{prefix}.instance.json")
    assert is_preconditioned(inst)
    # the rotated noisy data must still be consistent with the instance
    data = load_noisy(f"{prefix}.noise.json")
    assert data.y.shape == (inst.n,)


def test_generate_normalize_flag(tmp_path):
    prefix = _generate(tmp_path, "unit", "--normalize")
    inst = load_instance(f"{prefix}.instance.json")
    assert np.linalg.norm(inst.a, 2) == pytest.approx(1.0, rel=1e-12)
    assert inst.gram.norm == pytest.approx(1.0 / 16, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["generate", "s-phillips", "--n", "7", "--out", "x"],
    ["generate", "s-shaw", "--n", "16", "--nu", "-1", "--out", "x"],
    ["generate", "s-shaw", "--out", "x"],
    ["generate", "no-such-problem", "--n", "16", "--out", "x"],
    ["generate", "s-shaw", "--n", "8", "--eps", "-1", "--out", "x"],
    ["generate", "s-shaw", "--n", "8", "--eps", "nan", "--out", "x"],
    ["generate", "s-shaw", "--n", "8", "--eps", "1e-2", "--seed", "-1",
     "--out", "x"],
    ["generate", "s-shaw", "--n", "8", "--eps", "1e-2", "--seed", str(2**64),
     "--out", "x"],
    ["solve", "p", "--method", "sgd", "--c0", "1/2*c", "--seed", "-3",
     "--out", "x"],
    # seeds that key no stream: eps 0 draws no noise, landweber no indices
    ["generate", "s-shaw", "--n", "8", "--seed", "-1", "--out", "x"],
    ["solve", "p", "--method", "landweber", "--seed", "-3", "--out", "x"],
    ["frobnicate"],
    # an infinite horizon or checkpoint spacing
    ["solve", "p", "--method", "landweber", "--max-epochs", "inf",
     "--out", "x"],
    ["solve", "p", "--method", "landweber", "--checkpoint-every", "inf",
     "--out", "x"],
    # a horizon just past the cap of 10**6 checkpoints
    ["solve", "p", "--method", "landweber", "--max-epochs", "1000000",
     "--out", "x"],
    # a zero denominator, or an inner loop that is not finite
    ["solve", "p", "--method", "sgd", "--c0", "1/0*c", "--out", "x"],
    ["solve", "p", "--method", "svrg", "--c0", "1/2*c", "--M", "1/0",
     "--out", "x"],
    ["solve", "p", "--method", "svrg", "--c0", "1/2*c", "--M", "inf",
     "--out", "x"],
    ["solve", "p", "--method", "svrg", "--c0", "1/2*c", "--M", "1e400",
     "--out", "x"],
    ["solve", "p", "--method", "svrg", "--c0", "1/2*c", "--M", "inf*n",
     "--out", "x"],
    ["solve", "p", "--method", "svrg", "--c0", "1/2*c", "--M", "2.7",
     "--out", "x"],
    # documents that are not objects, and a null smoothness
    ["solve", "list.instance.json", "--method", "landweber", "--out", "x"],
    ["solve", "null-nu.instance.json", "--method", "landweber", "--out", "x"],
    ["solve", "p.instance.json", "--noise", "list.noise.json",
     "--method", "landweber", "--out", "x"],
])
def test_bad_input_exits_four(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prefix = _generate(tmp_path, "p")
    doc = fileio.load_json(f"{prefix}.instance.json")
    fileio.dump_json({**doc, "nu": None}, tmp_path / "null-nu.instance.json")
    (tmp_path / "list.instance.json").write_text("[1, 2]")
    (tmp_path / "list.noise.json").write_text("[1]")
    assert main(argv) == 4
    assert "error" in capsys.readouterr().err


def test_solve_prefix_roundtrip(tmp_path, capsys):
    prefix = _generate(tmp_path, "p")
    out = tmp_path / "run"
    rc = main(["solve", str(prefix), "--method", "landweber",
               "--max-epochs", "20", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "kstar_epochs" in printed
    assert "error_at_kstar" in printed
    first = (tmp_path / "run.csv").read_bytes()
    assert main(["solve", str(prefix), "--method", "landweber",
                 "--max-epochs", "20", "--out", str(tmp_path / "run2")]) == 0
    assert (tmp_path / "run2.csv").read_bytes() == first


def test_solve_accepts_explicit_paths_and_expressions(tmp_path):
    prefix = _generate(tmp_path, "p")
    out = tmp_path / "svrg"
    rc = main(["solve", f"{prefix}.instance.json",
               "--noise", f"{prefix}.noise.json",
               "--method", "svrg", "--c0", "1/2*c/M", "--M", "4",
               "--max-epochs", "6", "--out", str(out)])
    assert rc == 0
    header, rows = fileio.read_csv(f"{out}.csv")
    assert header == ["epoch", "error_sq", "residual_sq"]
    assert len(rows) > 2


def test_solve_without_noise_uses_exact_data(tmp_path):
    prefix = _generate(tmp_path, "p")
    out = tmp_path / "clean"
    rc = main(["solve", f"{prefix}.instance.json", "--method", "landweber",
               "--max-epochs", "5", "--out", str(out)])
    assert rc == 0
    meta = fileio.load_json(f"{out}.meta.json")
    assert meta["method"] == "landweber"
    assert meta["step_admissible"] is True


def test_solve_sgd_needs_a_step(tmp_path, capsys):
    prefix = _generate(tmp_path, "p")
    rc = main(["solve", str(prefix), "--method", "sgd",
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "--c0" in capsys.readouterr().err


def test_solve_rejects_unstable_step(tmp_path, capsys):
    prefix = _generate(tmp_path, "p")
    rc = main(["solve", str(prefix), "--method", "sgd", "--c0", "1e6",
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "stability bound" in capsys.readouterr().err


@pytest.mark.parametrize("method,step", [
    ("landweber", []),  # the automatic step, 1 / (n ||B||)
    ("landweber", ["--c0", "1/2*c"]),
    ("sgd", ["--c0", "1/2*c"]),
    ("svrg", ["--c0", "1/2*c"]),
])
def test_solve_zero_matrix_exits_four(tmp_path, capsys, method, step):
    path = tmp_path / "zero.instance.json"
    save_instance(make_instance("zero", np.zeros((3, 2)), np.zeros(2)), path)
    rc = main(["solve", str(path), "--method", method, *step,
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "all rows are zero" in capsys.readouterr().err


def test_solve_instance_without_rows_exits_four(tmp_path, capsys):
    path = tmp_path / "empty.instance.json"
    doc = instance_to_dict(make_instance("one", np.ones((1, 2)), np.ones(2)))
    fileio.dump_json({**doc, "a": [], "y_dag": []}, path)
    rc = main(["solve", str(path), "--method", "landweber",
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "a has no rows" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_divergence_exit_code(tmp_path, capsys):
    prefix = _generate(tmp_path, "p")
    rc = main(["solve", str(prefix), "--method", "sgd", "--c0", "1e6",
               "--allow-large-step", "--max-epochs", "50",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_solve_missing_instance(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope"), "--method", "landweber",
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "cannot load problem" in capsys.readouterr().err


def test_verify_fast_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--level", "fast", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["level"] == "fast"
    assert all(entry["passed"] or entry["soft"] for entry in report["checks"])
    assert "result=PASS" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["fast", "full"])
def test_verify_rejects_a_malformed_thread_count(level, tmp_path, capsys,
                                                 monkeypatch):
    # the setting is read before any check runs, so no check runs at all
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda *args: ran.append(args))
    monkeypatch.setenv("STOCHREG_THREADS", "abc")
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--level", level, "--out", str(report_path)])
    assert rc == 4
    assert "STOCHREG_THREADS='abc' is not an integer" in capsys.readouterr().err
    assert not ran and not report_path.exists()


def _spec_doc(**overrides):
    doc = {"problem": "s-shaw", "n": 16, "nu": [0.0], "epsilon": [1e-2],
           "methods": [{"method": "landweber"}], "runs": 2,
           "max_epochs": 4.0, "base_seed": 5}
    doc.update(overrides)
    return doc


def test_experiment_cli(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc()))
    out = tmp_path / "grid.csv"
    rc = main(["experiment", str(spec_path), "--out", str(out)])
    assert rc == 0
    assert "0 with recorded errors" in capsys.readouterr().out
    header, rows = fileio.read_csv(out)
    assert header[0] == "problem"
    assert len(rows) == 1


def test_experiment_figure_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc()))
    figs = tmp_path / "figs"
    rc = main(["experiment", str(spec_path), "--out",
               str(tmp_path / "grid.csv"), "--figure-dir", str(figs)])
    assert rc == 0
    produced = list(figs.glob("*.csv"))
    assert len(produced) == 1


def test_experiment_rejects_unknown_keys(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(flavour="wrong")))
    rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    assert "unknown experiment keys" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {},  # the noise seed derived from this base seed is negative
    # no noise is drawn at eps 0, but the solver seed is negative too
    {"epsilon": [0], "methods": [{"method": "sgd", "c0": "1/2*c"}]},
    # every derived seed is in range; the given one is not
    {"base_seed": -1},
])
def test_experiment_rejects_seed_outside_key_range(overrides, tmp_path,
                                                   capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(**{"base_seed": -1000000,
                                                 **overrides})))
    rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    assert "outside [0, 2**64)" in capsys.readouterr().err


def test_precondition_study_rejects_a_negative_base_seed(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(base_seed=-1)))
    rc = main(["precondition-study", str(spec_path),
               "--out", str(tmp_path / "pairs.csv")])
    assert rc == 4
    assert "outside [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("method", [
    '{"method": "sgd", "c0": "1/0*c"}',
    '{"method": "svrg", "c0": "1/2*c", "M": "1/0"}',
    '{"method": "svrg", "c0": "1/2*c", "M": "inf*n"}',
    # JSON reads 1e400 as an infinite float
    '{"method": "svrg", "c0": "1/2*c", "M": 1e400}',
])
def test_experiment_rejects_unbounded_expressions(method, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    text = json.dumps(_spec_doc(methods=["METHOD"]))
    spec_path.write_text(text.replace('"METHOD"', method))
    rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    assert "expression" in capsys.readouterr().err


def test_experiment_rejects_a_fractional_inner_loop(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(
        methods=[{"method": "svrg", "c0": "1/2*c", "M": 2.7}])))
    rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    assert "not an integer" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_precondition_study_cli(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(
        methods=[{"method": "sgd", "c0": "1/8*c"}], runs=3, max_epochs=8.0)))
    out = tmp_path / "pairs.csv"
    rc = main(["precondition-study", str(spec_path), "--out", str(out)])
    assert rc == 0
    assert "max_relative_e_gap" in capsys.readouterr().out
    header, rows = fileio.read_csv(out)
    assert header[0] == "variant"
    assert {row[0] for row in rows} == {"raw", "preconditioned"}


def test_precondition_study_rejects_invalid_grid(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(problem="s-phillips", n=10)))
    out = tmp_path / "pairs.csv"
    rc = main(["precondition-study", str(spec_path), "--out", str(out)])
    assert rc == 4
    assert "divisible by 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method,extra,plan", [
    ("sgd", ["--c0", "1/2*c"], {"c0": "1/2*c"}),
    ("svrg", ["--c0", "5*c/M", "--M", "1/2*n"], {"c0": "5*c/M", "M": "1/2*n"}),
    ("landweber", [], {}),
])
def test_solve_and_a_grid_cell_resolve_one_step_bitwise(tmp_path, method,
                                                        extra, plan):
    # the same instance and data, from generate's files and from the grid
    spec = spec_from_dict({"problem": "s-shaw", "n": 16, "nu": [1.0],
                           "epsilon": [1e-2],
                           "methods": [{"method": method, **plan}]})
    prefix = _generate(tmp_path, "p", "--nu", "1",
                       "--seed", str(spec.noise_seed(0, 0)))
    assert main(["solve", str(prefix), "--method", method, "--max-epochs",
                 "1", "--out", str(tmp_path / "o"), *extra]) == 0
    meta = json.loads((tmp_path / "o.meta.json").read_text())
    ((inst, (y,), c_unit),) = experiment._prepare_cells(spec)
    assert inst.a.tobytes() == load_instance(
        f"{prefix}.instance.json").a.tobytes()
    assert y.tobytes() == load_noisy(f"{prefix}.noise.json").y.tobytes()
    cfg = experiment._cell_config(inst, spec.methods[0], spec, 0, False,
                                  c_unit)
    assert (cfg.c0, cfg.M) == (meta["c0"], meta["M"])
