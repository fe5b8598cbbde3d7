import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import chronocycle.cli as cli
import chronocycle.lpsolver as lpsolver
import chronocycle.rips as rips
from chronocycle.cli import main
from chronocycle.lpsolver import SolverStalled


def read(path):
    with open(path) as fh:
        return json.load(fh)


def run(args):
    return main(list(args))


def test_synth_writes_series(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    path = os.path.join(out, "series.csv")
    assert capsys.readouterr().out.strip() == path
    first = open(path).read()
    assert first.startswith("t,value\n")
    assert len(first.splitlines()) == 65
    # reruns are byte-identical
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    assert open(path).read() == first


def test_synth_default_is_two_tone(tmp_path):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--n", "128"]) == 0
    values = np.loadtxt(
        os.path.join(out, "series.csv"), delimiter=",", skiprows=1
    )
    t = values[:, 0]
    expect = 2.0 * np.sin(t) + 1.8 * np.sin(math.sqrt(3.0) * t)
    assert np.allclose(values[:, 1], expect, atol=1e-12)


def test_embed_two_tone_picks_dimension_four(tmp_path):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out]) == 0
    assert run(["embed", "--out-dir", out, "--tau-count", "40"]) == 0
    emb = read(os.path.join(out, "embedding.json"))
    assert emb["d"] == 4
    assert len(emb["peaks"]) == 2
    assert len(emb["curve"]) == 40
    assert len(emb["points"]) == len(emb["labels"])
    assert all(len(p) == 4 for p in emb["points"])


def test_embed_constant_series_is_data_error(tmp_path, capsys):
    out = str(tmp_path)
    path = os.path.join(out, "series.csv")
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for i in range(32):
            fh.write(f"{float(i)!r},1.0\n")
    assert run(["embed", "--out-dir", out]) == 2
    assert "empty spectrum" in capsys.readouterr().err


def test_ph_over_simplex_cap_is_refused_before_building(tmp_path, capsys,
                                                       monkeypatch):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    assert run(["embed", "--out-dir", out, "--tau-count", "20"]) == 0
    capsys.readouterr()
    # the vertices fit under the cap, the edges would not
    cap = len(read(os.path.join(out, "embedding.json"))["points"]) + 1

    def forbidden(*args, **kwargs):
        raise AssertionError("Rips expanded past the simplex cap")

    monkeypatch.setattr(rips, "_expand", forbidden)
    monkeypatch.setattr(rips, "Filtration", forbidden)
    assert run(["ph", "--out-dir", out, "--simplex-cap", str(cap)]) == 2
    assert "simplex budget exceeded" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "diagram.json"))


def test_missing_inputs_are_data_errors(tmp_path):
    out = str(tmp_path)
    assert run(["embed", "--out-dir", out]) == 2
    assert run(["ph", "--out-dir", out]) == 2
    assert run(["optimize", "--out-dir", out]) == 2
    assert run(["export", "--out-dir", out]) == 2


def test_usage_errors(tmp_path):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--n", "1"]) == 1
    assert run(["optimize", "--out-dir", out, "--policy", "sometimes"]) == 1
    assert run(["optimize", "--out-dir", out, "--policy", "fraction:2",
                ]) == 1
    assert run(["optimize", "--out-dir", out, "--kinds", "vertex,karma"]) == 1
    assert run(["optimize", "--out-dir", out, "--kinds", "euclidean"]) == 1
    assert run(["ph", "--out-dir", out, "--max-dim", "7"]) == 1
    assert run(["ph", "--out-dir", out, "--max-radius", "-2"]) == 1
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_config_file(tmp_path, capsys):
    out = str(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# synthetic input\n"
        "kind = noisy_sine\n"
        "n = 48\n"
        'out_dir = "{}"\n'.format(out)
    )
    assert run(["synth", "--config", str(conf)]) == 0
    assert len(open(os.path.join(out, "series.csv")).read().splitlines()) == 49
    capsys.readouterr()

    bad = tmp_path / "bad.conf"
    bad.write_text("wibble = 3\n")
    assert run(["synth", "--config", str(bad)]) == 1
    bad.write_text("n = lots\n")
    assert run(["synth", "--config", str(bad)]) == 1
    bad.write_text("just a line\n")
    assert run(["synth", "--config", str(bad)]) == 1
    assert run(["synth", "--config", str(tmp_path / "absent.conf")]) == 1

    # each value comes back as its field's type
    conf = tmp_path / "types.conf"
    conf.write_text(
        "d = 4\n"
        "tau = 0.5\n"
        "significance = 1\n"
        "input = 'series.csv'\n"
        "max_radius = enclosing\n"
    )
    got = cli.load_config_file(conf)
    assert got == {"d": 4, "tau": 0.5, "significance": 1.0,
                   "input": "series.csv", "max_radius": "enclosing"}
    assert [type(got[k]) for k in ("d", "tau", "significance", "input")] == [
        int, float, float, str]
    conf.write_text("max_radius = 1.5\n")
    got = cli.load_config_file(conf)
    assert got == {"max_radius": 1.5} and type(got["max_radius"]) is float


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline"))
    assert main(["synth", "--out-dir", out, "--kind", "noisy_sine",
                 "--n", "300", "--t-end", str(12 * math.pi),
                 "--sigma", "0.05", "--seed", "3"]) == 0
    assert main(["embed", "--out-dir", out, "--tau-count", "60"]) == 0
    assert main(["ph", "--out-dir", out, "--subsample", "50",
                 "--max-dim", "1"]) == 0
    return out


def test_ph_output_shape(pipeline_dir):
    dia = read(os.path.join(pipeline_dir, "diagram.json"))
    assert dia["schema"] == 1
    assert dia["max_dim"] == 1
    assert len(dia["subsample_indices"]) == 50
    assert dia["pairs"], "no persistence pairs"
    emb = read(os.path.join(pipeline_dir, "embedding.json"))
    n_points = len(emb["points"])
    allowed = set(dia["subsample_indices"])
    for row in dia["pairs"]:
        assert row["dim"] in (0, 1)
        if row["death"] is not None:
            assert row["death"] > row["birth"]
        for simplex in row["initial_rep"]:
            for v in simplex:
                assert v in allowed
                assert 0 <= v < n_points


def test_ph_deterministic(pipeline_dir):
    path = os.path.join(pipeline_dir, "diagram.json")
    before = open(path, "rb").read()
    assert main(["ph", "--out-dir", pipeline_dir, "--subsample", "50",
                 "--max-dim", "1"]) == 0
    assert open(path, "rb").read() == before


def test_optimize_and_export(pipeline_dir):
    out = pipeline_dir
    args = ["optimize", "--out-dir", out, "--subsample", "40",
            "--kinds", "vertex,length", "--policy", "full"]
    assert main(args) == 0
    path = os.path.join(out, "representatives.json")
    reps = read(path)
    assert reps["schema"] == 1
    assert reps["classes"], "nothing optimized"
    kinds = {row["kind"] for row in reps["classes"]}
    assert kinds == {"vertex", "length"}
    for row in reps["classes"]:
        assert row["policy"] == {"mode": "full"}
        assert row["relaxed_birth"] == row["pair"]["birth"]
        assert row["residual"] <= 1e-8
        assert not row["fractional"]
        assert len(row["support"]) == len(row["coefficients"])
        assert row["support_labels"] == sorted(row["support_labels"])

    before = open(path, "rb").read()
    assert main(args) == 0
    assert open(path, "rb").read() == before

    assert main(["export", "--out-dir", out]) == 0
    dia_csv = open(os.path.join(out, "diagram.csv")).read().splitlines()
    assert dia_csv[0] == "dim,birth,death"
    assert len(dia_csv) == 1 + len(read(os.path.join(out, "diagram.json"))["pairs"])
    pca = open(os.path.join(out, "pca.csv")).read().splitlines()
    assert pca[0] == "pc1,pc2,pc3,label"
    overlay = os.path.join(out, "overlay_0.csv")
    lines = open(overlay).read().splitlines()
    assert lines[0] == "t,value,in_support"
    flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert flags <= {"0", "1"}
    assert "1" in flags


def test_optimize_solver_stall_is_exit_three(pipeline_dir, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverStalled("solver stalled")

    monkeypatch.setattr(cli, "optimize_all", boom)
    code = main(["optimize", "--out-dir", pipeline_dir, "--subsample", "40"])
    assert code == 3


def test_optimize_iteration_limit_is_exit_three(pipeline_dir, monkeypatch):
    real = lpsolver.linprog

    def limited(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.message = 1, "Iteration limit reached."
        return res

    monkeypatch.setattr(lpsolver, "linprog", limited)
    code = main(["optimize", "--out-dir", pipeline_dir, "--subsample", "40"])
    assert code == 3


def test_optimize_bad_solution_is_exit_three(pipeline_dir, monkeypatch,
                                             capsys):
    real = lpsolver.linprog

    def off(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = np.zeros_like(res.x)
        return res

    monkeypatch.setattr(lpsolver, "linprog", off)
    code = main(["optimize", "--out-dir", pipeline_dir, "--subsample", "40"])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_backend_option_is_gone(pipeline_dir, tmp_path):
    code = main(["optimize", "--out-dir", pipeline_dir, "--backend", "external"])
    assert code == 1
    conf = tmp_path / "old.conf"
    conf.write_text("backend = builtin\n")
    assert main(["synth", "--config", str(conf)]) == 1


def test_one_distance_matrix_and_expansion_per_level(pipeline_dir, tmp_path,
                                                     monkeypatch):
    out = str(tmp_path)
    shutil.copy(os.path.join(pipeline_dir, "embedding.json"), out)
    calls = []

    def logged(name):
        real = getattr(rips, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_graph", "_expand"):
        monkeypatch.setattr(rips, name, logged(name))
    for command in (["ph"], ["optimize", "--kinds", "vertex"]):
        calls.clear()
        assert main([*command, "--out-dir", out, "--subsample", "30",
                     "--max-dim", "1"]) == 0
        # the edges and the triangles are each expanded once
        assert calls == ["_graph", "_expand", "_expand"]


def test_config_subsample_reaches_ph_and_optimize(pipeline_dir, tmp_path):
    out = str(tmp_path)
    shutil.copy(os.path.join(pipeline_dir, "embedding.json"), out)
    conf = tmp_path / "run.conf"
    conf.write_text(f"out_dir = {out}\nsubsample = 30\nkinds = vertex\n")
    assert main(["ph", "--config", str(conf)]) == 0
    assert main(["optimize", "--config", str(conf)]) == 0
    dia = read(os.path.join(out, "diagram.json"))
    reps = read(os.path.join(out, "representatives.json"))
    assert len(dia["subsample_indices"]) == 30
    assert reps["subsample_indices"] == dia["subsample_indices"]
    rows = {(r["dim"], r["birth_simplex"], r["death_simplex"])
            for r in dia["pairs"]}
    assert reps["classes"]
    for row in reps["classes"]:
        pr = row["pair"]
        assert (pr["dim"], pr["birth_simplex"], pr["death_simplex"]) in rows


def test_removed_options_are_gone(pipeline_dir, tmp_path):
    code = main(["optimize", "--out-dir", pipeline_dir, "--round-tol", "1e-6"])
    assert code == 1
    conf = tmp_path / "old.conf"
    for line in ("round_tol = 1e-6", "subsample_ph = 50", "subsample_opt = 40"):
        conf.write_text(line + "\n")
        assert main(["synth", "--config", str(conf)]) == 1


def test_cli_import_leaves_out_scipy_signal():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chronocycle.cli; sys.exit('scipy.signal' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_entry_point_subprocess(tmp_path):
    out = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from chronocycle.cli import main; import sys;"
         f"sys.exit(main(['synth', '--out-dir', {out!r}, '--n', '32']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert os.path.exists(os.path.join(out, "series.csv"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from chronocycle.cli import main; import sys;"
         "sys.exit(main(['synth', '--n', 'zero']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
