import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs

import chronocycle.cli as cli
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


@pytest.mark.parametrize("at", ["dropped", "kept"])
def test_nan_label_is_a_data_error_before_ph_builds(tmp_path, capsys,
                                                    monkeypatch, at):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    assert run(["embed", "--out-dir", out, "--tau-count", "20"]) == 0
    capsys.readouterr()
    path = os.path.join(out, "embedding.json")
    emb = read(path)
    # index 1 is not among the 10 evenly spaced points ph keeps; index 0 is
    emb["labels"][1 if at == "dropped" else 0] = float("nan")
    with open(path, "w") as fh:
        json.dump(emb, fh)

    def forbidden(*args, **kwargs):
        raise AssertionError("Rips built on a NaN label")

    monkeypatch.setattr(rips, "_expand", forbidden)
    assert run(["ph", "--out-dir", out, "--subsample", "10"]) == 2
    assert "labels must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "diagram.json"))


def test_nan_label_is_a_data_error_in_export(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    assert run(["embed", "--out-dir", out, "--tau-count", "20"]) == 0
    assert run(["ph", "--out-dir", out, "--subsample", "10"]) == 0
    capsys.readouterr()
    path = os.path.join(out, "embedding.json")
    emb = read(path)
    emb["labels"][1] = float("nan")
    with open(path, "w") as fh:
        json.dump(emb, fh)
    assert run(["export", "--out-dir", out]) == 2
    assert "labels must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "diagram.csv"))
    assert not os.path.exists(os.path.join(out, "pca.csv"))


@pytest.mark.parametrize("product, key", [("representatives.json", "classes"),
                                          ("diagram.json", "pairs")])
def test_wrong_shape_product_is_a_data_error(tmp_path, capsys, product, key):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                "--n", "64", "--seed", "5"]) == 0
    assert run(["embed", "--out-dir", out, "--tau-count", "20"]) == 0
    assert run(["ph", "--out-dir", out, "--subsample", "10"]) == 0
    path = os.path.join(out, product)
    rows = read(path) if os.path.exists(path) else {"schema": 1}
    rows[key] = 5
    with open(path, "w") as fh:
        json.dump(rows, fh)
    capsys.readouterr()
    assert run(["export", "--out-dir", out]) == 2
    assert "data error" in capsys.readouterr().err


def test_nan_in_series_is_a_data_error(tmp_path, capsys):
    out = str(tmp_path)
    path = os.path.join(out, "series.csv")
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for i in range(32):
            fh.write(f"{float(i)!r},{math.nan if i == 7 else math.sin(i)!r}\n")
    assert run(["embed", "--out-dir", out]) == 2
    assert "series values must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "embedding.json"))


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


def test_non_finite_settings_are_usage_errors(tmp_path):
    out = str(tmp_path)
    for bad in ("nan", "inf"):
        assert run(["synth", "--out-dir", out, "--kind", "noisy_sine",
                    "--sigma", bad]) == 1
        assert run(["synth", "--out-dir", out, "--t-end", bad]) == 1
        assert run(["optimize", "--out-dir", out, "--significance", bad]) == 1
        for delay in ("--tau", "--tau-min", "--tau-max"):
            assert run(["embed", "--out-dir", out, delay, bad]) == 1
    assert run(["synth", "--out-dir", out, "--sigma", "-inf"]) == 1
    assert not os.listdir(out)



@pytest.mark.parametrize("args, message", [
    (["embed", "--threshold-fraction", "0"], "threshold_fraction must be in"),
    (["embed", "--threshold-fraction", "1.5"], "threshold_fraction must be in"),
    (["embed", "--tau-count", "0"], "tau_count must be positive"),
    (["embed", "--d", "0"], "d must be at least 1"),
    (["ph", "--subsample", "1"], "subsample must be at least 2"),
    (["ph", "--simplex-cap", "0"], "simplex_cap must be positive"),
    (["synth", "--kind", "square"], "unknown synth kind 'square'"),
    (["optimize", "--dim", "2"], "optimize_dim must lie within"),
    (["optimize", "--dim", "-1"], "optimize_dim must lie within"),
    (["optimize", "--kinds", ","], "kinds must name at least one"),
    # no diagram can take an infinite bound: it must fail before any work
    (["optimize", "--policy", "absolute:inf"], "bad policy 'absolute:inf'"),
])
def test_out_of_range_settings_are_usage_errors(tmp_path, capsys, args, message):
    out = str(tmp_path / "out")
    assert run([*args, "--out-dir", out]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert not os.path.exists(out)


def test_embed_delay_range_must_ascend(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--n", "200"]) == 0
    assert run(["embed", "--out-dir", out, "--tau-min", "2",
                "--tau-max", "1"]) == 1
    assert "tau_min must not exceed tau_max" in capsys.readouterr().err
    assert os.listdir(out) == ["series.csv"]


@pytest.mark.parametrize("text, message", [
    ('{"points": [[0.0, 1.0]', "malformed JSON"),
    ('{"points": [[0.0, 1.0]], "labels": [0.0]}', "fewer than 2 points"),
])
def test_unusable_embedding_is_a_data_error(tmp_path, capsys, text, message):
    out = str(tmp_path)
    with open(os.path.join(out, "embedding.json"), "w") as fh:
        fh.write(text)
    assert run(["ph", "--out-dir", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "diagram.json"))

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
    # a file that is not UTF-8 is unreadable too, not bad data
    bad.write_bytes(b"n = 48\n\xff\n")
    capsys.readouterr()
    assert run(["synth", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        f"usage error: cannot read config {bad}")

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


def test_config_hash_inside_quotes_is_kept(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        '# out_dir = "ignored"\n'
        'out_dir = "runs/#3"  # the third run\n'
        "input = 'a # b.csv'\n"
        "  n = 5   # a comment after a bare value\n"
    )
    assert cli.load_config_file(conf) == {
        "out_dir": "runs/#3", "input": "a # b.csv", "n": 5}
    # outside quotes a # starts a comment, even inside a value
    conf.write_text("out_dir = runs/#3\n")
    assert cli.load_config_file(conf) == {"out_dir": "runs/"}

    out = str(tmp_path / "run#3")
    conf.write_text(f'out_dir = "{out}"\nn = 32\n')
    assert run(["synth", "--config", str(conf)]) == 0
    assert os.path.isfile(os.path.join(out, "series.csv"))


_RIPS_FLAGS = {"--max-dim", "--max-radius", "--subsample", "--simplex-cap"}
FLAGS = {
    "synth": {"--kind", "--n", "--t-end", "--sigma", "--seed"},
    "embed": {"--input", "--threshold-fraction", "--tau-count", "--tau-min",
              "--tau-max", "--d", "--tau"},
    "ph": _RIPS_FLAGS,
    "optimize": _RIPS_FLAGS | {"--policy", "--kinds", "--significance", "--dim"},
    "export": {"--input"},
}


def _subparsers():
    parser = cli.make_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommand_flags_are_pinned():
    subs = _subparsers()
    assert set(subs) == set(FLAGS)
    for command, flags in FLAGS.items():
        got = {opt for a in subs[command]._actions for opt in a.option_strings}
        assert got == {"-h", "--help", "--config", "--out-dir", *flags}


def test_only_synth_takes_seed(tmp_path, capsys):
    # the seed draws synth's noise and no other subcommand reads it, so only
    # synth has the flag; a config file may still set it for any of them
    out = str(tmp_path)
    assert run(["synth", "--out-dir", out, "--n", "64", "--seed", "5"]) == 0
    capsys.readouterr()
    assert run(["embed", "--out-dir", out, "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err
    conf = tmp_path / "seed.conf"
    conf.write_text("seed = 3\n")
    assert run(["embed", "--out-dir", out, "--config", str(conf)]) == 0


def _field(flag):
    return "optimize_dim" if flag == "--dim" else flag[2:].replace("-", "_")


# a valid value, other than the default, for every field a flag sets
VALUES = {
    "out_dir": "elsewhere", "seed": "9", "kind": "noisy_sine", "n": "48",
    "t_end": "7.5", "sigma": "0.25", "input": "s.csv",
    "threshold_fraction": "0.3", "tau_count": "12", "tau_min": "0.25",
    "tau_max": "2.5", "d": "3", "tau": "0.5", "max_dim": "2",
    "max_radius": "1.5", "subsample": "30", "simplex_cap": "1000",
    "policy": "fraction:0.5", "kinds": "vertex,length", "significance": "0.1",
    "optimize_dim": "0",
}


def test_flags_and_config_keys_parse_alike(tmp_path):
    parser = cli.make_parser()
    conf = tmp_path / "one.conf"
    fields = set()
    for command, flags in FLAGS.items():
        for flag in sorted({"--out-dir", *flags}):
            key = _field(flag)
            fields.add(key)
            by_flag = cli.build_config(
                parser.parse_args([command, flag, VALUES[key]]))
            conf.write_text(f"{key} = {VALUES[key]}\n")
            by_file = cli.build_config(
                parser.parse_args([command, "--config", str(conf)]))
            assert by_flag == by_file, (command, flag)
            got = getattr(by_flag, key)
            assert got != getattr(cli.PipelineConfig(), key)
            assert type(got) is type(getattr(by_file, key))
    # every setting has a flag on some subcommand
    assert fields == {f.name for f in dataclasses.fields(cli.PipelineConfig)}


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    built, configs = [], []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    def build_config(args):
        configs.append(real_build_config(args))
        return configs[-1]

    real_build_config = cli.build_config
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.setattr(cli, "build_config", build_config)
    cli.make_parser.cache_clear()
    try:
        out = str(tmp_path)
        assert main(["synth", "--out-dir", out, "--n", "48"]) == 0
        assert main(["synth", "--out-dir", out]) == 0
    finally:
        cli.make_parser.cache_clear()
    # the root parser and one subparser per command, built once
    assert built.count("chronocycle") == 1
    assert len(built) == 1 + len(FLAGS)
    # a flag of the first call does not reach the second call's config
    assert configs[0].n == 48
    assert configs[1].n == cli.PipelineConfig().n


def _window_rule(times, starts, span):
    """The overlay flag as a loop: is t in some [s - 1e-12, s + span + 1e-12]?"""
    return [int(any(s - 1e-12 <= t <= s + span + 1e-12 for s in starts))
            for t in times]


@pytest.mark.parametrize("starts, span", [
    ([], 0.75),
    ([3.0], 0.75),
    ([3.0], 0.0),
    ([5.5, 1.25, 5.5, 1.5, 3.0], 0.75),  # unsorted, duplicated, overlapping
    ([2.0, 2.0, 2.0], 0.5),
])
def test_overlay_flags_follow_the_window_rule(starts, span):
    bounds = [b for s in starts for b in (s - 1e-12, s + span + 1e-12)]
    times = np.array(
        [x for b in bounds
         for x in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf))]
        + np.linspace(0.0, 8.0, 97).tolist()
    )
    got = cli._in_windows(times, starts, span).tolist()
    assert got == _window_rule(times, starts, span)
    if len(starts) == 1:  # on a bound is inside, one ulp past it outside
        assert got[:6] == [1, 0, 1, 1, 1, 0]
    if not starts:
        assert not any(got)


def test_write_json_refuses_non_finite_floats(tmp_path):
    path = tmp_path / "out.json"
    cli.write_json(path, {"b": np.float32(0.5), "a": np.arange(3),
                          "c": (np.int64(2), np.float64(0.25), None)})
    assert path.read_text() == '{"a":[0,1,2],"b":0.5,"c":[2,0.25,null]}\n'
    path.unlink()
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"),
                np.float32("inf"), np.array([1.0, np.inf])):
        with pytest.raises(ValueError):
            cli.write_json(path, {"pairs": [{"death": bad}]})
        assert not path.exists()


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


def test_failed_command_leaves_no_product_of_its_own(tmp_path):
    # its own directory: pipeline_dir's products are shared by the module
    out = str(tmp_path)
    for args in (["synth", "--kind", "noisy_sine", "--n", "200", "--seed", "3"],
                 ["embed", "--tau-count", "20"],
                 ["ph", "--subsample", "30"],
                 ["optimize", "--subsample", "30", "--kinds", "vertex"]):
        assert main([*args, "--out-dir", out]) == 0
    for args, product in (
        (["optimize", "--subsample", "30", "--policy", "absolute:1000"],
         "representatives.json"),
        (["ph", "--simplex-cap", "100"], "diagram.json"),
    ):
        assert main([*args, "--out-dir", out]) == 2
        assert not os.path.exists(os.path.join(out, product))
    # export finds no diagram rather than tables of the earlier run
    assert main(["export", "--out-dir", out]) == 2
    assert not os.path.exists(os.path.join(out, "overlay_0.csv"))
    missing = os.path.join(out, "missing.csv")
    assert main(["embed", "--out-dir", out, "--input", missing]) == 2
    assert not os.path.exists(os.path.join(out, "embedding.json"))



def test_export_writes_only_the_current_runs_tables(tmp_path, capsys):
    # its own directory: pipeline_dir's products are shared by the module
    out = str(tmp_path)
    for args in (["synth", "--kind", "noisy_sine", "--n", "300", "--sigma",
                  "0.05", "--seed", "3"],
                 ["embed", "--tau-count", "60"],
                 ["ph", "--subsample", "50", "--max-dim", "1"]):
        assert main([*args, "--out-dir", out]) == 0
    inputs = {"series.csv", "embedding.json", "diagram.json"}
    # names export does not write stay, however close to its own
    others = {"overlay_1.csv.bak", "my_overlay_0.csv", "overlay_x.csv"}
    for name in others:
        open(os.path.join(out, name), "w").close()

    def tables():
        return set(os.listdir(out)) - inputs - others - {"representatives.json"}

    def overlays(n):
        return {f"overlay_{i}.csv" for i in range(n)}

    optimize = ["optimize", "--out-dir", out, "--subsample", "40"]
    assert main([*optimize, "--kinds", "vertex,simplex,length"]) == 0
    assert main(["export", "--out-dir", out]) == 0
    classes = len(read(os.path.join(out, "representatives.json"))["classes"])
    assert classes == 3
    assert tables() == {"diagram.csv", "pca.csv"} | overlays(3)
    # fewer classes: the overlays of the earlier run's other classes go
    assert main([*optimize, "--kinds", "vertex"]) == 0
    assert main(["export", "--out-dir", out]) == 0
    assert tables() == {"diagram.csv", "pca.csv"} | overlays(1)
    assert main([*optimize, "--kinds", "vertex,length"]) == 0
    assert main(["export", "--out-dir", out]) == 0
    assert tables() == {"diagram.csv", "pca.csv"} | overlays(2)
    # no representatives: no overlay
    assert main([*optimize, "--policy", "absolute:1000"]) == 2
    assert main(["export", "--out-dir", out]) == 0
    assert tables() == {"diagram.csv", "pca.csv"}
    # representatives but no readable series: the run fails, with no
    # overlay of an earlier run left
    assert main([*optimize, "--kinds", "vertex,length"]) == 0
    assert main(["export", "--out-dir", out]) == 0
    os.rename(os.path.join(out, "series.csv"), os.path.join(out, "kept.csv"))
    capsys.readouterr()
    assert main(["export", "--out-dir", out]) == 2
    assert "cannot read series" in capsys.readouterr().err
    assert not tables() & overlays(2)
    # the series is read before any table is written: no diagram.csv or
    # pca.csv of the failed run either
    assert tables() == {"kept.csv"}
    os.rename(os.path.join(out, "kept.csv"), os.path.join(out, "series.csv"))
    # no diagram: export fails before it writes, and no table is left
    assert main(["export", "--out-dir", out]) == 0
    assert main(["ph", "--out-dir", out, "--simplex-cap", "100"]) == 2
    assert main(["export", "--out-dir", out]) == 2
    assert tables() == set()
    assert set(os.listdir(out)) == inputs - {"diagram.json"} | others | {
        "representatives.json"}

def test_relaxed_policies_refuse_essential_classes(pipeline_dir, tmp_path,
                                                   capsys):
    # H0 always has an essential class, which has no death to relax from:
    # fraction and absolute refuse it, so optimize --dim 0 needs full
    out = str(tmp_path)
    for product in ("embedding.json", "diagram.json"):
        shutil.copy(os.path.join(pipeline_dir, product), out)
    args = ["optimize", "--out-dir", out, "--subsample", "30", "--dim", "0",
            "--kinds", "length"]
    path = os.path.join(out, "representatives.json")
    assert main([*args, "--policy", "full"]) == 0
    assert os.path.exists(path)
    for policy in ("fraction:0.7", "absolute:0.5"):
        capsys.readouterr()
        assert main([*args, "--policy", policy]) == 2
        assert "essential classes" in capsys.readouterr().err
        assert not os.path.exists(path)


def test_optimize_solver_stall_is_exit_three(pipeline_dir, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverStalled("solver stalled")

    monkeypatch.setattr(cli, "optimize_all", boom)
    code = main(["optimize", "--out-dir", pipeline_dir, "--subsample", "40"])
    assert code == 3


def test_optimize_iteration_limit_is_exit_three(pipeline_dir, monkeypatch):
    class Limited(highs._Highs):
        def getModelStatus(self):
            return highs.HighsModelStatus.kIterationLimit

    monkeypatch.setattr(highs, "_Highs", Limited)
    code = main(["optimize", "--out-dir", pipeline_dir, "--subsample", "40"])
    assert code == 3


def test_optimize_bad_solution_is_exit_three(pipeline_dir, monkeypatch,
                                             capsys):
    class Off(highs._Highs):
        def getSolution(self):
            solution = super().getSolution()
            solution.col_value = [0.0] * len(solution.col_value)
            return solution

    monkeypatch.setattr(highs, "_Highs", Off)
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


# scipy subpackages no command needs; scipy.optimize's package import loads
# the other three
HEAVY_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.linalg",
               "scipy.special")


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the package's one import-time dependency; scipy.sparse loads
    # with the first sparse matrix, the HiGHS bindings with the first solve
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chronocycle, chronocycle.cli;"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the Rips build and the filtration's order are numpy's alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, chronocycle as cc;"
         "pc = cc.LabeledPointCloud(points=np.random.default_rng(0).random((30, 2)),"
         " labels=np.arange(30.0));"
         "f = cc.build_rips(pc, cc.RipsConfig(max_dim=2)); assert f.n_simplices(3) > 0;"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    out = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from chronocycle.cli import main; d = sys.argv[1];"
         "assert main(['synth', '--out-dir', d, '--kind', 'noisy_sine',"
         " '--n', '200', '--seed', '3']) == 0;"
         "assert main(['embed', '--out-dir', d, '--tau-count', '20']) == 0;"
         "assert main(['ph', '--out-dir', d, '--subsample', '30']) == 0;"
         "assert main(['optimize', '--out-dir', d, '--subsample', '30',"
         " '--kinds', 'vertex,length', '--policy', 'fraction:0.7']) == 0;"
         f"print([m for m in {HEAVY_SCIPY} if m in sys.modules])", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert os.path.exists(os.path.join(out, "diagram.json"))
    assert os.path.exists(os.path.join(out, "representatives.json"))


def readme_commands():
    """README's subcommand lines, as argument lists without ``--out-dir run``."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        lines = re.findall(r"^chronocycle +(\w+ .*)$", fh.read(), re.M)
    commands = [line.split() for line in lines]
    for argv in commands:
        at = argv.index("--out-dir")
        del argv[at:at + 2]
    return commands


def test_readme_commands_load_no_scipy_sparse_package(tmp_path):
    # ph and optimize call scipy's compiled sparse kernels and HiGHS
    # bindings, each loaded from its own file: of scipy.sparse, only
    # _sparsetools is loaded, and no package import runs
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["synth", "embed", "ph",
                                              "optimize", "export"]
    out = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from chronocycle.cli import main;"
         "d, commands = sys.argv[1], json.loads(sys.argv[2]);"
         "assert all(main(argv + ['--out-dir', d]) == 0 for argv in commands);"
         "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
         out, json.dumps(commands[:4])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "['scipy.sparse._sparsetools']"
    assert os.path.exists(os.path.join(out, "representatives.json"))


# A tiny LP: x - w = -1 with w free, optimum x = 0, w = 1; A as CSC arrays
TINY_LP = ("np.array([1.0, 0.0]), CSC(np.array([0, 1, 2]), np.array([0, 0]),"
           " np.array([1.0, -1.0]), (1, 2)), np.array([-1.0]), n_free=1")


def run_script(script):
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_first_solve_loads_highs_without_scipy_optimize():
    # the bindings come from their extension file; a later import of
    # scipy.optimize reuses that module object, and linprog still solves
    lines = run_script(f"""
import sys
import numpy as np
from chronocycle.lp import CSC
from chronocycle.lpsolver import revised_simplex
print(revised_simplex({TINY_LP}).x)
print([m for m in {HEAVY_SCIPY} if m in sys.modules])
core = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
print(_core is core)
ref = linprog([1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[-1.0],
              bounds=[(0, None), (None, None)], method="highs-ds")
print(ref.status, ref.x)
print(revised_simplex({TINY_LP}).x)
""")
    assert lines == ["[0. 1.]", "[]", "True", "0 [0. 1.]", "[0. 1.]"]


def test_solver_uses_the_bindings_scipy_optimize_loaded():
    # scipy.optimize imported first: lpsolver runs that module's _Highs
    lines = run_script(f"""
import numpy as np
from scipy.optimize._highspy import _core
from chronocycle.lp import CSC
from chronocycle.lpsolver import revised_simplex
runs = []
class Seen(_core._Highs):
    def run(self):
        runs.append(1)
        return super().run()
_core._Highs = Seen
print(revised_simplex({TINY_LP}).x, len(runs))
""")
    assert lines == ["[0. 1.] 1"]


def test_missing_highs_extension_is_an_import_error():
    # no file matches: the first solve raises, with no fallback to the
    # scipy.optimize package import
    lines = run_script(f"""
import importlib.machinery, sys
import numpy as np
import scipy
from chronocycle.lp import CSC
from chronocycle.lpsolver import revised_simplex
importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
try:
    revised_simplex({TINY_LP})
except ImportError as err:
    print(err)
print(scipy.__version__)
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
""")
    message, version, loaded = lines
    assert os.path.join("scipy", "optimize", "_highspy", "_core") in message
    assert f"scipy {version}" in message
    assert loaded == "[]"


def test_reduction_loads_sparsetools_that_scipy_sparse_reuses():
    # the pairing's transpose runs scipy's csr_tocsc from its extension
    # file; a later import of scipy.sparse reuses that module object, and
    # its CSC to CSR conversion still gives the right arrays
    lines = run_script("""
import sys
import numpy as np
import chronocycle as cc
pc = cc.LabeledPointCloud(points=np.random.default_rng(0).random((20, 2)),
                          labels=np.arange(20.0))
dec = cc.reduce(cc.build_rips(pc, cc.RipsConfig(max_dim=1)))
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
tools = sys.modules["scipy.sparse._sparsetools"]
import scipy.sparse as sp
from scipy.sparse import _sparsetools
print(_sparsetools is tools)
m = sp.csc_matrix(np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 4.0]])).tocsr()
print(m.indptr.tolist(), m.indices.tolist(), m.data.tolist())
""")
    assert lines == ["['scipy.sparse._sparsetools']", "True",
                     "[0, 2, 4] [1, 2, 0, 2] [1.0, 2.0, 3.0, 4.0]"]


def test_missing_sparsetools_extension_is_an_import_error():
    # no file matches: the first reduction raises, with no fallback to the
    # scipy.sparse package import
    lines = run_script("""
import importlib.machinery, sys
import numpy as np
import scipy
import chronocycle as cc
f = cc.Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
try:
    cc.reduce(f)
except ImportError as err:
    print(err)
print(scipy.__version__)
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
""")
    message, version, loaded = lines
    assert os.path.join("scipy", "sparse", "_sparsetools") in message
    assert f"scipy {version}" in message
    assert loaded == "[]"



def test_missing_scipy_extension_is_an_import_error():
    from chronocycle._extensions import _scipy_extension
    with pytest.raises(ImportError, match=r"no scipy extension .*_no_such_module"):
        _scipy_extension("sparse/_no_such_module")
    assert "scipy.sparse._no_such_module" not in sys.modules

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
