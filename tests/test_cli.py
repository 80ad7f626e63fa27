"""CLI surface: subcommands, validation, formats, determinism."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wignerexp import PRESETS, montecarlo
from wignerexp.cli import RunConfig, _render, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(data_lines))))


# -- moments ---------------------------------------------------------------------


def test_moments_goe_table(capsys):
    code, out, _ = run_cli(capsys, "moments", "--ensemble", "goe", "--kmax", "8", "--n", "64")
    assert code == 0
    rows = parse_csv(out)
    assert [row["nu"] for row in rows] == ["0", "0", "1", "0", "5", "0", "22", "0", "93"]
    assert rows[0]["sc"] == "1" and rows[0]["nu"] == "0"
    assert rows[2]["m_n64"] == "65/64"
    assert out.startswith("# config: ")


def test_moments_gue_null_column(capsys):
    code, out, _ = run_cli(capsys, "moments", "--ensemble", "gue", "--kmax", "10")
    assert code == 0
    assert {row["nu"] for row in parse_csv(out)} == {"0"}


def test_moments_json_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--format", "json", "--kmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["ensemble"] == "goe"
    assert len(payload["rows"]) == 3
    assert payload["rows"][2]["nu"] == "1"


# -- parameter validation -----------------------------------------------------------


def test_custom_params_validated(capsys):
    code, _, err = run_cli(
        capsys, "moments", "--ensemble", "custom",
        "--r", "1", "--sigma2", "1", "--s2", "1", "--alpha", "1/2",
    )
    assert code == 2
    assert "alpha >= sigma2^2" in err


def test_custom_requires_all_four(capsys):
    code, _, err = run_cli(capsys, "moments", "--ensemble", "custom", "--r", "0")
    assert code == 2
    assert "missing" in err


def test_preset_rejects_overrides(capsys):
    code, _, err = run_cli(capsys, "moments", "--ensemble", "goe", "--alpha", "3")
    assert code == 2
    assert "custom" in err


def test_custom_params_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--ensemble", "custom",
        "--r", "0", "--sigma2", "1", "--s2", "3/2", "--alpha", "2", "--kmax", "2",
    )
    assert code == 0
    # nu_2 = s2/sigma2 - 1 = 1/2
    assert parse_csv(out)[2]["nu"] == "1/2"


# -- config file --------------------------------------------------------------------


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ensemble": "gue", "kmax": 4, "n": [32]}))
    code, out, _ = run_cli(capsys, "moments", "--config", str(cfg), "--kmax", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3  # flag overrides file
    assert json.loads(out.splitlines()[0][len("# config: "):])["ensemble"] == "gue"


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"banana": 1}))
    code, _, err = run_cli(capsys, "moments", "--config", str(cfg))
    assert code == 2
    assert "banana" in err


# one strategy per config key; sigma2^2 <= 4 <= alpha keeps custom params valid
_FRACTIONS = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)
OUT_NAMES = ("file-out.txt", "flag-out.txt", "other-out.txt")
KEY_VALUES = {
    "ensemble": st.sampled_from([*PRESETS, "custom"]),
    "r": st.integers(0, 1),
    "sigma2": _FRACTIONS,
    "s2": _FRACTIONS,
    "alpha": st.fractions(min_value=4, max_value=12, max_denominator=8),
    "kmax": st.integers(0, 12),
    "n": st.lists(st.integers(1, 500), min_size=1, max_size=3),
    "samples": st.integers(2, 10**6),
    "seed": st.integers(0, 2**32),
    "format": st.sampled_from(["csv", "json"]),
    "out": st.sampled_from(OUT_NAMES),
    "order": st.integers(2, 320),
}
PARAM_KEYS = ("r", "sigma2", "s2", "alpha")


def _drawn(data, key, values, where, tmp_path):
    value = data.draw(values, label=f"{key} {where}")
    return str(tmp_path / value) if key == "out" else value


def _as_flag(key, value):
    if key == "n":
        return [arg for size in value for arg in ("--n", str(size))]
    return [f"--{key}", str(value)]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_flag_beats_file_beats_default(capsys, tmp_path, data):
    file_values, argv, want = {}, ["moments"], {"command": "moments"}
    for key, values in KEY_VALUES.items():
        if key in PARAM_KEYS:
            # a preset fixes all four parameters, custom needs each of them
            custom = want["ensemble"] == "custom"
            sources = ["file", "flag", "both"] if custom else ["default"]
        else:
            sources = ["default", "file", "flag", "both"]
        source = data.draw(st.sampled_from(sources), label=f"{key} source")
        value = getattr(RunConfig, key)
        if source in ("file", "both"):
            value = _drawn(data, key, values, "in file", tmp_path)
            file_values[key] = str(value) if isinstance(value, Fraction) else value
        if source in ("flag", "both"):
            value = _drawn(data, key, values, "flag", tmp_path)
            argv += _as_flag(key, value)
        if key in PARAM_KEYS and source == "default":
            value = getattr(PRESETS[want["ensemble"]], key)
        if key == "out":
            out = value
        else:
            want[key] = str(value) if isinstance(value, Fraction) else value
    want["n"] = list(want["n"])
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(file_values))
    for name in OUT_NAMES:
        (tmp_path / name).unlink(missing_ok=True)

    code, stdout, err = run_cli(capsys, *argv, "--config", str(config_path))
    assert code == 0, err
    if out is None:
        text = stdout
    else:
        assert stdout == ""
        text = Path(out).read_text()
    if want["format"] == "json":
        echo = json.loads(text)["config"]
    else:
        echo = json.loads(text.splitlines()[0][len("# config: "):])
    assert echo == want


# -- check --------------------------------------------------------------------------


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--order", "16", "--walks-kmax", "6")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 10


def test_check_fault_injection(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--order", "14", "--walks-kmax", "4", "--inject-fault"
    )
    assert code == 1
    assert "FAIL" in out
    assert "coefficient index 7" in out


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_all_length_four(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "4")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 15
    assert "# total_classes=15" in out


def test_enumerate_filters(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--v", "3", "--e", "2")
    assert code == 0
    assert len(parse_csv(out)) == 2

    code, out, _ = run_cli(capsys, "enumerate", "--k", "6", "--cycle-type", "cycle-one-way")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["word"] == "1-2-3-1-2-3"


def test_enumerate_expectations_follow_ensemble(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--ensemble", "gue")
    assert code == 0
    by_word = {row["word"]: row for row in parse_csv(out)}
    assert by_word["1-2-1-2"]["exp_num"] == "2"  # complex fourth moment
    assert by_word["1-1-1-1"]["exp_num"] == "3"  # real N(0,1) diagonal


def test_enumerate_json_matches_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "8")
    assert code == 0
    csv_rows = parse_csv(out)
    footer = dict(
        line[len("# "):].rsplit("=", 1)
        for line in out.splitlines()
        if line.startswith(("# count[", "# total_classes="))
    )
    code, text, _ = run_cli(capsys, "enumerate", "--k", "8", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert list(payload) == ["config", "rows", "summary", "total_classes"]
    assert text == json.dumps(payload, indent=2) + "\n"
    assert [{key: str(value) for key, value in row.items()} for row in payload["rows"]] == csv_rows
    counts = {f"count[{key}]": str(count) for key, count in payload["summary"].items()}
    assert {**counts, "total_classes": str(payload["total_classes"])} == footer


def test_enumerate_json_without_rows_parses(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--v", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [] and payload["summary"] == {} and payload["total_classes"] == 0


def test_enumerate_refuses_large_k(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--k", "13")
    assert code == 2
    assert "12" in err


# -- mc -----------------------------------------------------------------------------


def test_mc_json_replay_identical(capsys):
    argv = ["mc", "--ensemble", "gue", "--kmax", "4", "--n", "16",
            "--samples", "150", "--seed", "9", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    methods = {row["method"] for row in payload["rows"]}
    assert methods == {"estimate", "richardson"}
    assert {row["k"] for row in payload["rows"]} == {2, 4}


def test_mc_output_file_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        code = main(["mc", "--ensemble", "goe", "--kmax", "2", "--n", "12",
                     "--samples", "100", "--seed", "4", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_mc_json_is_strict(capsys):
    # k=2 rows of +-1 entries have stderr exactly 0 and a point off by
    # rounding, so their z is infinite: written as null, not Infinity
    code, out, _ = run_cli(
        capsys, "mc", "--ensemble", "rademacher", "--kmax", "2", "--n", "32",
        "--samples", "50", "--seed", "3", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    nulls = [row for row in rows if row["z"] is None]
    assert nulls and all(row["stderr"] == 0.0 and row["point"] != 0.0 for row in nulls)
    code, out, _ = run_cli(
        capsys, "mc", "--ensemble", "rademacher", "--kmax", "2", "--n", "32",
        "--samples", "50", "--seed", "3",
    )
    assert code == 0
    assert {row["z"] for row in parse_csv(out) if row["stderr"] == "0.0"} == {"inf"}


def test_mc_runs_at_its_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--kmax", str(montecarlo.MAX_KMAX),
        "--n", str(montecarlo.MAX_MATRIX_SIZE // 2), "--samples", "2",
    )
    assert code == 0
    assert len(parse_csv(out)) == montecarlo.MAX_KMAX  # k = 2..kmax, two methods


def test_mc_time_budget_admits_the_shapes_in_use():
    # (sampler, kmax, sizes, samples): the benchmark's mc-gauss and mc-dense
    # runs, acceptance criterion 7, and the run at the bounds above
    gauss, dense = montecarlo.goe_sampler(), montecarlo.rademacher_sampler()
    for sampler, kmax, sizes, samples in (
        (gauss, 6, [64, 128], 1000),
        (dense, 10, [128, 256], 1000),
        (gauss, 6, [64, 128], 20_000),
        (gauss, montecarlo.MAX_KMAX, [512, 1024], 2),
    ):
        seconds = montecarlo.estimated_seconds(sampler, kmax, sizes, samples)
        assert seconds < montecarlo.MAX_RUN_SECONDS / 10
    # a thousand dense samples at the largest sizes take over ten minutes
    assert montecarlo.estimated_seconds(dense, 32, [512, 1024], 1000) > montecarlo.MAX_RUN_SECONDS


def test_mc_rejects_custom(capsys):
    code, _, err = run_cli(
        capsys, "mc", "--ensemble", "custom",
        "--r", "1", "--sigma2", "1", "--s2", "1", "--alpha", "1",
    )
    assert code == 2
    assert "custom" in err


# -- density and stieltjes -------------------------------------------------------------


def test_density_table(capsys):
    code, out, _ = run_cli(capsys, "density", "--grid", "8", "--ensemble", "goe")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 8
    assert all(float(row["nu"]) < 0 for row in rows)
    assert "# atoms: +2:1/4 -2:1/4" in out


def test_density_json_matches_csv(capsys):
    for ensemble in ("goe", "rademacher"):
        argv = ["density", "--grid", "6", "--ensemble", ensemble]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert list(payload) == ["config", "rows", "atoms"]
        assert text == json.dumps(payload, indent=2) + "\n"
        rows = [{key: repr(value) for key, value in row.items()} for row in payload["rows"]]
        assert rows == parse_csv(out)
        atoms = " ".join(f"{loc:+g}:{mass}" for loc, mass in payload["atoms"])
        assert f"# atoms: {atoms}\n" in out


def test_density_gue_zero(capsys):
    code, out, _ = run_cli(capsys, "density", "--grid", "5", "--ensemble", "gue")
    assert code == 0
    assert all(float(row["nu"]) == 0.0 for row in parse_csv(out))


def test_stieltjes_circle(capsys):
    code, out, _ = run_cli(
        capsys, "stieltjes", "--radius", "4", "--points", "8", "--ensemble", "goe"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 8
    z0 = rows[0]
    assert float(z0["re_z"]) == 4.0 and float(z0["im_z"]) == 0.0
    assert float(z0["sc_re"]) == pytest.approx((4 - 12**0.5) / 2, abs=1e-12)


def test_stieltjes_radius_guard(capsys):
    code, _, err = run_cli(capsys, "stieltjes", "--radius", "1.5")
    assert code == 2
    assert "radius" in err


# -- JSON streaming -------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3])
def test_json_render_is_one_dumps(count):
    config = RunConfig(command="mc", format="json", n=(16, 32), sigma2=Fraction(5, 4))
    rows = [
        {"method": "estimate\n\u00fc", "k": 2 * j, "point": 0.5 / (j + 1), "z": -1.5, "ref": None}
        for j in range(count)
    ]
    rows[-1]["z"] = float("inf")
    lines = list(_render(config, ["k"], iter(rows)))
    rows[-1]["z"] = None
    assert "\n".join(lines) == json.dumps({"config": config.echo(), "rows": rows}, indent=2)


@pytest.mark.parametrize(
    "argv", [["enumerate", "--k", "9"], ["density", "--grid", "20000"]], ids=" ".join
)
def test_json_tables_stream(tmp_path, argv):
    # holding the whole table peaks near 38 MiB (enumerate) and 24 MiB (density)
    tracemalloc.start()
    try:
        code = main([*argv, "--format", "json", "--out", str(tmp_path / "table.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20
    json.loads((tmp_path / "table.json").read_text())


# -- bad input -----------------------------------------------------------------------


def _config_file(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_text(content)
    return str(path)


# a fourth moment whose correction coefficients exceed the float range
HUGE_ALPHA = ["--ensemble", "custom", "--r", "1", "--sigma2", "1", "--s2", "1", "--alpha", "1e400"]

BAD_INPUTS = {
    "config-n-not-a-list": lambda tmp: ["moments", "--config", _config_file(tmp, '{"n": 64}')],
    "config-kmax-string": lambda tmp: ["moments", "--config", _config_file(tmp, '{"kmax": "8"}')],
    "config-floats": lambda tmp: [
        "moments", "--config", _config_file(tmp, '{"n": [64.7], "samples": 2.9}')
    ],
    "config-not-an-object": lambda tmp: ["moments", "--config", _config_file(tmp, "[1, 2]")],
    "config-missing": lambda tmp: ["moments", "--config", str(tmp / "absent.json")],
    "out-unwritable": lambda tmp: ["moments", "--out", str(tmp / "no-dir" / "m.csv")],
    "enumerate-out-unwritable": lambda tmp: [
        "enumerate", "--k", "4", "--out", str(tmp / "no-dir" / "e.csv")
    ],
    "walks-kmax-above-bound": lambda tmp: ["check", "--walks-kmax", "14"],
    "walks-kmax-zero": lambda tmp: ["check", "--walks-kmax", "0"],
    "walks-kmax-negative": lambda tmp: ["check", "--walks-kmax", "-3"],
    "order-above-bound": lambda tmp: ["check", "--order", "321"],
    "order-far-above-bound": lambda tmp: ["check", "--order", "1280"],
    "mc-samples-huge": lambda tmp: [
        "mc", "--kmax", "4", "--n", "8", "--samples", "100000000000000"
    ],
    "mc-n-huge": lambda tmp: ["mc", "--kmax", "4", "--n", "100000000", "--samples", "10"],
    "mc-kmax-above-bound": lambda tmp: ["mc", "--kmax", "34", "--n", "8"],
    "mc-work-above-budget": lambda tmp: [
        "mc", "--ensemble", "rademacher", "--kmax", "32", "--n", "512", "--samples", "1000000"
    ],
    "moments-decimal-overflow": lambda tmp: ["moments", "--kmax", "1100"],
    "moments-alpha-overflow": lambda tmp: ["moments", *HUGE_ALPHA],
    "density-alpha-overflow": lambda tmp: ["density", *HUGE_ALPHA],
    "stieltjes-alpha-overflow": lambda tmp: ["stieltjes", *HUGE_ALPHA],
    "density-grid-above-bound": lambda tmp: ["density", "--grid", "100001"],
    "stieltjes-points-above-bound": lambda tmp: ["stieltjes", "--points", "100001"],
    "stieltjes-radius-nan": lambda tmp: ["stieltjes", "--radius", "nan"],
    "stieltjes-radius-inf": lambda tmp: ["stieltjes", "--radius", "inf"],
    "stieltjes-radius-square-overflow": lambda tmp: ["stieltjes", "--radius", "1e308"],
    "custom-zero-denominator": lambda tmp: [
        "moments", "--ensemble", "custom", "--r", "1", "--sigma2", "1/0", "--s2", "1",
        "--alpha", "3",
    ],
    "config-zero-denominator": lambda tmp: [
        "moments", "--config", _config_file(
            tmp, '{"ensemble": "custom", "r": 1, "sigma2": 1, "s2": 1, "alpha": "3/0"}'
        ),
    ],
    "mc-config-n-empty": lambda tmp: ["mc", "--config", _config_file(tmp, '{"n": []}')],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_error_line(capsys, tmp_path, case):
    code, out, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case, key",
    [("custom-zero-denominator", "sigma2"), ("config-zero-denominator", "alpha"),
     ("mc-config-n-empty", "n")],
)
def test_bad_input_names_its_key(capsys, tmp_path, case, key):
    _, _, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path))
    assert re.search(rf"\b{key}\b", err), err


def test_moments_with_no_sizes_prints_only_the_limit_columns(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "moments", "--kmax", "4", "--config", _config_file(tmp_path, '{"n": []}')
    )
    assert code == 0
    header = next(line for line in out.splitlines() if not line.startswith("#"))
    assert header == "k,sc,nu,nu_dec"


# cases whose output would otherwise stream; none may leave a partial --out file
@pytest.mark.parametrize(
    "case",
    [
        "moments-decimal-overflow",
        "moments-alpha-overflow",
        "density-alpha-overflow",
        "stieltjes-alpha-overflow",
        "density-grid-above-bound",
        "stieltjes-points-above-bound",
        "mc-work-above-budget",
    ],
)
def test_bad_input_writes_no_out_file(capsys, tmp_path, case):
    out = tmp_path / "x"
    code, stdout, _ = run_cli(capsys, *BAD_INPUTS[case](tmp_path), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert not out.exists()


# -- golden output ---------------------------------------------------------------------

# SHA-256 of stdout, fixed when the output format and the Monte Carlo stream were
# last changed on purpose; a deliberate change updates these and says so in
# CHANGES.md.  The mc digests also pin numpy's generator streams and the float
# rounding of the banded (GOE, GUE) and 16 x 16 dense (Rademacher) products.
GOLDEN = {
    "mc-goe-json": (
        ["mc", "--ensemble", "goe", "--kmax", "4", "--n", "16", "--samples", "200",
         "--seed", "5", "--format", "json"],
        0, "6b4fbbefe38446bbcd36c8f6f38959681f865ccea3eaeee1c41aa1d4e5aec88a",
    ),
    "mc-gue-json": (
        ["mc", "--ensemble", "gue", "--kmax", "4", "--n", "16", "--samples", "200",
         "--seed", "5", "--format", "json"],
        0, "a525e291124e5a352a277671562b7fa31036db6c906808f9faef31101a9478c4",
    ),
    "mc-rademacher-json": (
        ["mc", "--ensemble", "rademacher", "--kmax", "6", "--n", "16", "--samples", "200",
         "--seed", "5", "--format", "json"],
        0, "e3dd7f654a513bcf6857eff03ed22b38a29053848f41bb283fcfef24c152f324",
    ),
    "check": (
        ["check", "--order", "16", "--walks-kmax", "6"],
        0, "413a6892bd2ff130dbfc9d531296d77eb78d7f2b2188fd3ae26fbab6c0db4e51",
    ),
    "check-fault": (
        ["check", "--order", "16", "--walks-kmax", "6", "--inject-fault"],
        1, "84d1370e067d9afd944294c93336b3621417af6b180e6b007ddc7a82df0d6e96",
    ),
    "enumerate": (
        ["enumerate", "--k", "6"],
        0, "701243a3a1db9c567254a1b3b9bd06f189ccf82e697ed29818aa2d9d172af5ed",
    ),
    "moments": (
        ["moments"], 0, "64a7163cb18731642a88eb1c27c71a3e54af8dcaab6f46631741c29e8c1fd28a"
    ),
    "density": (
        ["density"], 0, "ba39e861110fc7f4d8513973b2f988c019ddaa076a4a6402313ebdc7bb9db797"
    ),
    "stieltjes-rademacher": (
        ["stieltjes", "--ensemble", "rademacher"],
        0, "9ba33d7c016708175ed230b38d1651d38758bb165ee8acaf66fbf6f292969101",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_stdout(capsys, case):
    argv, want_code, digest = GOLDEN[case]
    code, out, _ = run_cli(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wignerexp", "moments", "--kmax", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [row["nu"] for row in parse_csv(proc.stdout)] == ["0", "0", "1"]
