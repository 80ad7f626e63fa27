"""CLI surface: subcommands, validation, formats, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wignerexp import PRESETS, cli, montecarlo, series, walks
from wignerexp import combinatorics as comb
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


def test_the_preset_registries_agree():
    # the exact, walk and Monte Carlo routes each keep a registry of presets,
    # and the CLI offers one more list: each names the same ensembles, with
    # the same params
    names = set(PRESETS)
    assert set(walks.PRESET_MODELS) == set(montecarlo.PRESET_SAMPLERS) == names
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = [
        action.choices
        for parser in sub.choices.values()
        for action in parser._actions
        if "--ensemble" in action.option_strings
    ]
    assert choices and all(set(c) == names | {"custom"} for c in choices)
    for name in names:
        assert walks.PRESET_MODELS[name]().params == PRESETS[name]
        sampler = montecarlo.PRESET_SAMPLERS[name]()
        assert sampler.params == PRESETS[name] and sampler.preset == name


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
    assert out.count("PASS") == 11


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 14])
def test_check_fault_injection(capsys, order):
    # the perturbed coefficient is min(7, order), one the truncated series holds
    code, out, err = run_cli(
        capsys, "check", "--order", str(order), "--walks-kmax", "4", "--inject-fault"
    )
    assert code == 1
    index = min(7, order)
    assert f"FAIL  series: T equals 1 + x T^2  (first failing coefficient index {index})" in out
    assert "error:" not in err


def _nu_moment_off_at_8(monkeypatch):
    nu_moment = comb.nu_moment
    monkeypatch.setattr(
        comb, "nu_moment", lambda k, params: nu_moment(k, params) + (k == 8)
    )


def _one_way_cycles_off_at_6(monkeypatch):
    count_classes = walks.count_classes

    def count(k, v=None, e=None, cycle_type=None):
        extra = k == 6 and cycle_type == walks.CYCLE_ONE_WAY
        return count_classes(k, v, e, cycle_type) + extra

    monkeypatch.setattr(walks, "count_classes", count)


def _walk_nu_off_at_4(monkeypatch):
    walk_polynomial = walks.walk_polynomial

    def polynomial(k, model):
        top, nu, *rest = walk_polynomial(k, model)
        return top, nu + (k == 4), *rest

    monkeypatch.setattr(walks, "walk_polynomial", polynomial)


def _s4_off_by_x3(monkeypatch):
    s_components = series.s_components

    def components(order, params):
        s1, s2, s3, s4 = s_components(order, params)
        return s1, s2, s3, s4 + series.TruncatedRationalSeries.monomial(3, order)

    monkeypatch.setattr(series, "s_components", components)


@pytest.mark.parametrize(
    "fault, want_fails",
    [
        (
            _nu_moment_off_at_8,
            [
                "FAIL  coefficients: series = family sum = measure moment"
                "  (first failing coefficient index 4)",
                "FAIL  gue: correction vanishes identically",
                "FAIL  goe: moments match (4^l - C(2l, l)) / 2  (first failing coefficient index 4)",
            ],
        ),
        (
            _one_way_cycles_off_at_6,
            [
                "FAIL  walks: class counts match all four closed-form families"
                "  (k=6 v=3 e=3 type=cycle-one-way: counted 2, formula 1)",
            ],
        ),
        (
            _s4_off_by_x3,
            [
                "FAIL  series: S1+S2+S3+S4 equals the reduced closed form"
                "  (first failing coefficient index 3)",
            ],
        ),
        (
            _walk_nu_off_at_4,
            [
                "FAIL  walks: exact polynomial reads sc_k and nu_k"
                "  (goe k=4: walk polynomial reads 2, 6; closed form 2, 5)",
            ],
        ),
    ],
    ids=["nu-moment", "count-classes", "s-components", "walk-polynomial"],
)
def test_check_names_each_failing_identity(capsys, monkeypatch, fault, want_fails):
    # each route is broken in turn: check must print exactly its FAIL lines
    fault(monkeypatch)
    code, out, _ = run_cli(capsys, "check", "--order", "16", "--walks-kmax", "6")
    lines = out.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == want_fails
    assert lines[-1] == f"{11 - len(want_fails)}/11 identities hold"


def test_check_reads_no_walk_case_past_the_first_failure(capsys, monkeypatch):
    calls = {"count": 0, "polynomial": 0}
    count_classes, walk_polynomial = walks.count_classes, walks.walk_polynomial

    def count(k, v=None, e=None, cycle_type=None):
        calls["count"] += 1
        return count_classes(k, v, e, cycle_type) + (k == 4)

    def polynomial(k, model):
        calls["polynomial"] += 1
        top, nu, *rest = walk_polynomial(k, model)
        return top, nu + (k == 4), *rest

    monkeypatch.setattr(walks, "count_classes", count)
    monkeypatch.setattr(walks, "walk_polynomial", polynomial)
    code, _, _ = run_cli(capsys, "check", "--order", "16", "--walks-kmax", "10")
    assert code == 1
    # k = 2's five families, then k = 4's first; GOE's polynomial at k = 2, then 4
    assert calls == {"count": 6, "polynomial": 2}


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


# (--v, --e, --cycle-type) of the row-path tests; v = 2 with e = 5 is no class's
ROW_QUERIES = [
    (None, None, None), (3, None, None), (None, 2, None), (None, None, "tree"),
    (None, None, "self-loop"), (3, 3, None), (2, 5, None),
]


def query_flags(v, e, cycle_type):
    flags = [] if v is None else ["--v", str(v)]
    flags += [] if e is None else ["--e", str(e)]
    return flags + ([] if cycle_type is None else ["--cycle-type", cycle_type])


@pytest.mark.parametrize("ensemble", sorted(PRESETS))
@pytest.mark.parametrize("k", range(1, 9))
def test_enumerate_rows_are_the_public_class_rows(capsys, ensemble, k):
    # the CLI writes each row from text made once per key; the public rows, written
    # value by value, must give the same lines, footer and JSON
    model = walks.PRESET_MODELS[ensemble]()
    columns = ["word", "v", "e", "cycle_type", "exp_num", "exp_den"]
    for query in ROW_QUERIES:
        argv = ["enumerate", "--k", str(k), "--ensemble", ensemble, *query_flags(*query)]
        rows = list(walks.class_rows(k, model, *query))
        totals: dict = {}
        for row in rows:
            totals[row[1:3]] = totals.get(row[1:3], 0) + 1
        footer = [f"# count[v={v},e={e}]={count}" for (v, e), count in sorted(totals.items())]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == ",".join(columns)
        assert lines[2:] == [",".join(map(str, row)) for row in rows] + footer + [
            f"# total_classes={len(rows)}"
        ], query
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["rows"] == [dict(zip(columns, row)) for row in rows], query
        assert payload["total_classes"] == len(rows)
        assert text == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_makes_each_row_tail_text_once(monkeypatch, fmt):
    # 115,975 rows at k = 10 share 897 keys (v, code), whose tails, the row past its
    # word, take fewer values still: each value's text is made once
    tails = {row[1:] for row in walks.class_rows(10, walks.goe_model())}
    calls = []
    text_past = cli._text_past

    def counted(parts, cell, values):
        calls.append(values)
        return text_past(parts, cell, values)

    monkeypatch.setattr(cli, "_text_past", counted)
    assert main(["enumerate", "--k", "10", "--format", fmt, "--out", os.devnull]) == 0
    assert len(calls) == len(tails) == len(set(calls))
    assert set(calls) == tails


def test_csv_enumerate_streams(tmp_path):
    # the CSV twin of test_json_tables_stream: the per-tail texts and counts are
    # few, and the rows are never held
    tracemalloc.start()
    try:
        code = main(["enumerate", "--k", "9", "--out", str(tmp_path / "table.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20
    assert (tmp_path / "table.csv").read_text().endswith("# total_classes=21147\n")


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
    # three thousand dense samples at the largest sizes take over ten minutes: a
    # thousand took 324 s with one BLAS thread on a 2-core host
    assert montecarlo.estimated_seconds(dense, 32, [512, 1024], 3000) > montecarlo.MAX_RUN_SECONDS


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
    columns = ["method", "k", "point", "z", "ref"]
    rows = [
        {"method": "estimate\n\u00fc", "k": 2 * j, "point": 0.5 / (j + 1), "z": -1.5, "ref": None}
        for j in range(count)
    ]
    rows[-1]["z"] = float("inf")
    lines = list(_render(config, columns, (tuple(row.values()) for row in rows)))
    rows[-1]["z"] = None
    assert "\n".join(lines) == json.dumps({"config": config.echo(), "rows": rows}, indent=2)


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]
ROW_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**40]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats().map(np.float64),
    st.sampled_from(_SPECIAL_FLOATS).map(np.float64),
    st.booleans(),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(), min_size=1, max_size=6, unique=True).flatmap(
        lambda columns: st.tuples(
            st.just(columns),
            st.lists(st.tuples(*[ROW_VALUES] * len(columns)), max_size=3),
        )
    )
)
def test_json_rows_equal_dumps_with_non_finite_floats_as_null(table):
    columns, rows = table
    config = RunConfig(command="mc", format="json")
    lines = list(_render(config, columns, iter(rows)))
    finite = [
        {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in zip(columns, row)
        }
        for row in rows
    ]
    assert "\n".join(lines) == json.dumps({"config": config.echo(), "rows": finite}, indent=2)


def test_json_rows_of_plain_values_skip_the_encoder(monkeypatch):
    def refuse(value):
        raise AssertionError(f"fallback called for {value!r}")

    monkeypatch.setattr(cli, "_json_other", refuse)
    config = RunConfig(command="enumerate", format="json")
    columns = ["word", "{v}", "x", "flag", "none"]
    rows = [("w-1\u00fc", -(2**70), 0.1, True, None), ("", 0, float("nan"), False, None)]
    lines = list(_render(config, columns, iter(rows)))
    assert json.loads("\n".join(lines))["rows"][1] == dict(zip(columns, ("", 0, None, False, None)))


def test_csv_render_writes_str_of_each_value():
    config = RunConfig(command="mc")
    rows = [
        (float("nan"), float("-inf"), -0.0, 1e300, 1 / 3, 10**40, Fraction(-7, 3)),
        (np.float64(0.1), np.float64(-2.5e-12), "w-1", True, False, None, 0),
        (Fraction(4), -(2**70), "", np.float64("inf"), 5e-324, 1.0, None),
    ]
    columns = [f"c{j}" for j in range(len(rows[0]))]
    lines = list(_render(config, columns, iter(rows)))
    assert lines[2:] == [",".join(map(str, row)) for row in rows]


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


# -- batched writes -------------------------------------------------------------------

B = cli._BATCH_LINES


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_batched_output_is_the_per_line_output(monkeypatch, tmp_path, fmt, count):
    config = RunConfig(command="enumerate", format=fmt)
    rows = ((f"1-{j}", j, -j, "tree", j / 3, None) for j in range(2 * B + 1))
    lines = list(_render(config, ["word", "v", "e", "kind", "x", "y"], rows))[:count]
    want = "".join(line + "\n" for line in lines)
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(iter(lines), None)
    assert stdout.getvalue() == want
    assert stdout.writes == -(-count // B)  # one write per batch
    cli._emit(iter(lines), str(tmp_path / "table"))
    assert (tmp_path / "table").read_bytes() == want.encode()


def test_lines_before_a_raising_source_are_written(monkeypatch, tmp_path):
    def lines():
        for j in range(B + 5):  # one batch written, five held
            yield f"line {j}"
        raise RuntimeError("source failed")

    want = "".join(f"line {j}\n" for j in range(B + 5))
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    for out in (None, str(tmp_path / "table")):
        with pytest.raises(RuntimeError, match="source failed"):
            cli._emit(lines(), out)
    assert stdout.getvalue() == want
    assert (tmp_path / "table").read_text() == want


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_a_full_device_is_one_error_line(fmt, to_stdout):
    # enumerate --k 8 writes 4,140 rows, over two batches and past any stdout buffer,
    # so the failed write is met inside _emit whether or not stdout is buffered
    argv = [sys.executable, "-m", "wignerexp", "enumerate", "--k", "8", "--format", fmt]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            argv if to_stdout else [*argv, "--out", "/dev/full"],
            stdout=full if to_stdout else subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=package_env(), timeout=120,
        )
    assert proc.returncode == 2
    name = "stdout" if to_stdout else "/dev/full"
    assert proc.stderr.splitlines() == [f"error: cannot write {name}: No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [["moments"], ["check", "--order", "10", "--walks-kmax", "2"]], ids=" ".join
)
def test_a_short_output_to_a_full_device_is_one_error_line(argv):
    # a few hundred bytes sit in a buffered stdout until it is flushed: the failed write
    # must still be met inside _emit, not in the interpreter's flush at exit
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "wignerexp", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write stdout: No space left on device"]


# a valid custom ensemble, which enumerate and mc refuse
CUSTOM = ["--ensemble", "custom", "--r", "1", "--sigma2", "1", "--s2", "1", "--alpha", "3"]

# one small run per subcommand, a refused mc and a refused custom enumerate
CONTRACT_ARGV = [
    ["moments", "--kmax", "4"],
    ["check", "--order", "10", "--walks-kmax", "2"],
    ["enumerate", "--k", "4"],
    ["mc", "--kmax", "4", "--n", "8", "--samples", "8"],
    ["density", "--grid", "8"],
    ["stieltjes", "--points", "8"],
    ["mc", "--kmax", str(montecarlo.MAX_KMAX + 2), "--n", "8", "--samples", "8"],
    ["enumerate", "--k", "4", *CUSTOM],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
@pytest.mark.parametrize("argv", CONTRACT_ARGV, ids=" ".join)
def test_the_error_contract_holds_at_the_process_boundary(argv, sink):
    # a buffered stdout, so a short output's failed write could wait for the exit flush
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    with contextlib.ExitStack() as stack:
        if sink == "full":
            stdout = stack.enter_context(open("/dev/full", "w")).fileno()
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            stack.callback(os.close, stdout)
        proc = subprocess.run(
            [sys.executable, "-m", "wignerexp", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == (proc.returncode == 2), proc.stderr


# -- bad input -----------------------------------------------------------------------


def _config_file(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
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
    # unbounded, --config /dev/zero read until memory ran out
    "config-over-byte-bound": lambda tmp: [
        "moments", "--config", _config_file(tmp, '{"kmax": 2}'.ljust(cli.MAX_CONFIG_BYTES + 1))
    ],
    "config-invalid-json": lambda tmp: ["moments", "--config", _config_file(tmp, "{n: [64]}")],
    "config-invalid-utf8": lambda tmp: [
        "moments", "--config", _config_file(tmp, b'{"n": [64], "seed": "\xff"}')
    ],
    "config-nested-deep": lambda tmp: ["moments", "--config", _config_file(tmp, "[" * 100_000)],
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
    # unbounded, this table took 180 s and 405 MB
    "moments-cells-above-bound": lambda tmp: [
        "moments", "--kmax", "1000",
        "--config", _config_file(tmp, json.dumps({"n": [*range(1, 2001)]})),
    ],
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
    # parsed unchecked, 1e4000000 took 3.4 s and 5000 digits hit Python's
    # int-to-str limit, in a message that named no key
    "custom-alpha-exponent-huge": lambda tmp: [
        "moments", "--ensemble", "custom", "--r", "1", "--sigma2", "1", "--s2", "1",
        "--alpha", "1e4000000",
    ],
    "config-sigma2-digits-huge": lambda tmp: [
        "moments", "--config", _config_file(
            tmp, '{"ensemble": "custom", "r": 1, "sigma2": "%s", "s2": 1, "alpha": 3}'
            % ("7" * 5000),
        ),
    ],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_error_line(capsys, tmp_path, case):
    code, out, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _one_past_each_end(argv, flag, name, low, high):
    # the size read is the flag's value, except mc's 2 max(n) (whose low end,
    # n = 0, is refused earlier as a nonpositive size)
    for value in (low - 1, high + 1):
        yield [*argv, flag, str(value)], f"{name} must be within {low}..{high}, got {value}"


RANGE_REFUSALS = [
    *_one_past_each_end(["check"], "--order", "series order", 2, series.MAX_SERIES_ORDER),
    *_one_past_each_end(["check"], "--walks-kmax", "--walks-kmax", 2, walks.MAX_WORD_LENGTH),
    *_one_past_each_end(["mc"], "--kmax", "mc kmax", 2, montecarlo.MAX_KMAX),
    *_one_past_each_end(["mc"], "--samples", "mc samples", 2, montecarlo.MAX_SAMPLES),
    (["mc", "--n", str(montecarlo.MAX_MATRIX_SIZE // 2 + 1)],
     f"the largest size mc samples, 2 max(n), must be within 2..{montecarlo.MAX_MATRIX_SIZE}, "
     f"got {montecarlo.MAX_MATRIX_SIZE + 2}"),
    *_one_past_each_end(["density"], "--grid", "grid", 1, cli.MAX_TABLE_POINTS),
    *_one_past_each_end(["stieltjes"], "--points", "points", 1, cli.MAX_TABLE_POINTS),
    (["enumerate", "--k", "4", *CUSTOM],
     "enumeration expectations need full entry moment tables; "
     "use a preset ensemble or the library MomentModel API"),
    (["mc", *CUSTOM],
     "Monte Carlo needs entry generators; use a preset ensemble or the library "
     "custom_sampler API"),
]


@pytest.mark.parametrize(
    "argv, message", RANGE_REFUSALS, ids=[" ".join(argv) for argv, _ in RANGE_REFUSALS]
)
def test_each_bound_refuses_one_past_its_ends_in_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "case, key",
    [("custom-zero-denominator", "sigma2"), ("config-zero-denominator", "alpha"),
     ("mc-config-n-empty", "n"), ("custom-alpha-exponent-huge", "alpha"),
     ("config-sigma2-digits-huge", "sigma2")],
)
def test_bad_input_names_its_key(capsys, tmp_path, case, key):
    _, _, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path))
    assert re.search(rf"\b{key}\b", err), err


@pytest.mark.parametrize(
    "case",
    ["config-over-byte-bound", "config-invalid-json", "config-invalid-utf8", "config-nested-deep"],
)
def test_bad_config_file_names_its_path(capsys, tmp_path, case):
    _, _, err = run_cli(capsys, *BAD_INPUTS[case](tmp_path))
    assert f"config file {tmp_path / 'run.json'} " in err, err


def test_config_file_and_moments_table_at_their_bounds_run(capsys, tmp_path):
    sizes = list(range(1, 30))
    assert (99 + 1) * (1 + len(sizes)) == cli.MAX_MOMENT_CELLS
    text = json.dumps({"kmax": 99, "n": sizes}).ljust(cli.MAX_CONFIG_BYTES)
    code, out, err = run_cli(capsys, "moments", "--config", _config_file(tmp_path, text))
    assert code == 0, err
    assert len(parse_csv(out)) == 100


def test_parameters_at_their_size_bounds_parse():
    # the digits of the exponent count too
    top = cli.MAX_PARAM_EXPONENT
    digits = "9" * (cli.MAX_PARAM_DIGITS - len(str(top)))
    assert cli._exact_param("alpha", f"{digits}e{top}") == int(digits) * 10**top
    assert cli._exact_param("s2", f"1e-{top}") == Fraction(1, 10**top)
    for text in (f"9{digits}e{top}", f"1e-{top + 1}", "1e" + "1" * 999, "1" * 10**6):
        with pytest.raises(cli.ConfigError, match="alpha must have at most"):
            cli._exact_param("alpha", text)


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
        "moments-cells-above-bound",
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


# values for drawn argv and config files: boundaries, garbage and huge numbers
INT_TEXTS = [
    "-1", "0", "1", "2", "3", "4", "6", "8", "12", "13", "16", "32", "33", "64", "320", "321",
    "1024", "100000", "100001", "1000000", "1000001", str(2**63), str(10**30), str(-(10**30)),
]
FLOAT_TEXTS = ["nan", "inf", "-inf", "0", "2", "2.0000001", "4", "1e154", "1e155", "1e309", "-4"]
RATIONAL_TEXTS = [
    "1", "5/4", "1/3", "0", "-1", "3", "1/0", "1e400", "1e-400", "1e1001", "9" * 1001, "1.5",
    " 2 ", "nan",
]
GARBAGE_TEXTS = ["", "x", "1.5", "0x10", "1e3", "-", "٣", "1_000", "1" + "0" * 5000]
JSON_VALUES = [None, True, 1.5, 64.0, float("nan"), 1e308, [], [8], [1, 2], [0], {"a": 1}]
# the size each run reads: (value, cap, bound); a run is admitted when every value is
# within its cap, or when one is past its bound and the run must be refused at once
RUN_SIZES = {
    "check": lambda a, c: [(c.order, 40, series.MAX_SERIES_ORDER),
                           (a.walks_kmax, 10, walks.MAX_WORD_LENGTH)],
    "enumerate": lambda a, c: [(a.k, 8, walks.MAX_WORD_LENGTH)],
    "mc": lambda a, c: [(c.samples, 64, montecarlo.MAX_SAMPLES),
                        (2 * max(c.n, default=0), 64, montecarlo.MAX_MATRIX_SIZE),
                        (c.kmax, 16, montecarlo.MAX_KMAX)],
    "moments": lambda a, c: [((c.kmax + 1) * (1 + len(c.n)), 400, cli.MAX_MOMENT_CELLS)],
    "density": lambda a, c: [(a.grid, 2000, cli.MAX_TABLE_POINTS)],
    "stieltjes": lambda a, c: [(a.points, 2000, cli.MAX_TABLE_POINTS)],
}


def _subcommands():
    """{name: [option actions]} of build_parser(), help aside."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


SUBCOMMANDS = _subcommands()
MC_SIZES = ("samples", "n")
CONFIG_KEYS = sorted({a.dest for a in SUBCOMMANDS["moments"]} - {"config"})


def _texts(action, paths):
    """Flag values to draw for one option action."""
    if action.dest in ("out", "config"):
        return st.sampled_from(paths)
    if action.choices:
        pool = [*action.choices, "bogus", action.choices[0].upper()]
    elif action.type is int:
        pool = INT_TEXTS
    elif action.type is float:
        pool = FLOAT_TEXTS
    else:
        pool = RATIONAL_TEXTS
    return st.sampled_from([*pool, *GARBAGE_TEXTS])


def _file_values(key, paths):
    """Config-file values to draw for one key."""
    if key == "out":
        return st.sampled_from([*paths, 3])
    ints = st.sampled_from(INT_TEXTS).map(int)
    texts = st.sampled_from(RATIONAL_TEXTS + GARBAGE_TEXTS + ["goe", "custom", "json"])
    return st.one_of(ints, st.lists(ints, max_size=3), texts, st.sampled_from(JSON_VALUES))


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_with_one_error_line(capsys, tmp_path, data):
    out = tmp_path / "out.txt"
    config = tmp_path / "run.json"
    paths = [str(out), str(tmp_path / "no-dir" / "x"), str(tmp_path)]
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)), label="command")
    actions = SUBCOMMANDS[command]
    # mc's default run, 1,000 samples at n = 100 and 200, is past the caps: draw its sizes
    required = [a for a in actions if a.required or command == "mc" and a.dest in MC_SIZES]
    chosen = data.draw(st.lists(st.sampled_from(actions), max_size=4, unique_by=id), label="flags")
    argv = [command]
    for action in [*required, *chosen]:
        argv.append(action.option_strings[0])
        if action.nargs != 0:  # not a store_true switch
            argv.append(data.draw(_texts(action, [*paths, str(config)]), label=action.dest))
    if "--config" in argv:
        keys = st.sampled_from([*CONFIG_KEYS, "grid", "bogus"])
        body = data.draw(
            st.lists(keys, unique=True, max_size=4)
            .flatmap(lambda ks: st.fixed_dictionaries({k: _file_values(k, paths) for k in ks}))
            .map(lambda settings: json.dumps(settings).encode())
            | st.sampled_from([b"", b"{", b"[1]", b"null", b'{"n": \xff}', b"[" * 5000]),
            label="config file",
        )
        config.write_bytes(body)
    out.unlink(missing_ok=True)

    # a run that passes every bound is admitted only below the test's size caps
    try:
        args = cli.build_parser().parse_args(argv)
        sizes = RUN_SIZES[command](args, cli.resolve_config(args))
    except (SystemExit, ValueError):
        sizes = []  # refused before any work
    assume(any(v > bound for v, _, bound in sizes) or all(v <= cap for v, cap, _ in sizes))
    capsys.readouterr()

    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == (code == 2), (argv, err)
    if code == 2:
        assert not out.exists(), argv


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
        0, "fb6793fe13318582c9c8e19605b7673b8126a65a355c0ddd44e69fe471f09aad",
    ),
    "mc-goe-csv": (
        ["mc", "--ensemble", "goe", "--kmax", "4", "--n", "16", "--samples", "200",
         "--seed", "5"],
        0, "403f804fe5e104d6177dcbe33ce839e82a95d1cead131dcd4e4acf7b3fa1adeb",
    ),
    "check": (
        ["check", "--order", "16", "--walks-kmax", "6"],
        0, "0572909e4ef6670cb8c02ad411fad9c85f06ca92a16cac51e844c9f0cbbb7779",
    ),
    "check-fault": (
        ["check", "--order", "16", "--walks-kmax", "6", "--inject-fault"],
        1, "d95a075db30a7ce9016dc2492d65de024c62b1c5e3161854ddf152050bb11eef",
    ),
    "enumerate": (
        ["enumerate", "--k", "6"],
        0, "701243a3a1db9c567254a1b3b9bd06f189ccf82e697ed29818aa2d9d172af5ed",
    ),
    "enumerate-10": (
        ["enumerate", "--k", "10"],
        0, "36d4b1795721b9bb29e0914fbace792aae9e2236442da95cbe28e189549f38ea",
    ),
    "enumerate-gue-json": (
        ["enumerate", "--k", "8", "--ensemble", "gue", "--format", "json"],
        0, "90b20085958227cccaf3f5fe15f62b6ea9d6383a828aaf04aa280dc1a04f5ea2",
    ),
    "enumerate-rademacher": (
        ["enumerate", "--k", "8", "--ensemble", "rademacher"],
        0, "c2696083e6ce2cffa784fa383c9b42843b28b7e4a729402a6a056530224c70f3",
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


def package_env():
    """This environment, with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "wignerexp", "moments", "--kmax", "2"],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [row["nu"] for row in parse_csv(proc.stdout)] == ["0", "0", "1"]



def test_dense_mc_stdout_does_not_depend_on_the_blas_thread_count():
    # from n = 128 a multithreaded OpenBLAS sums a dot product in per-thread parts;
    # 128 samples run n = 128 on a thread per core (where there are two), and 64
    # samples, one block, on one thread whose products use BLAS's threads
    for samples in ("128", "64"):
        argv = [sys.executable, "-m", "wignerexp", "mc", "--ensemble", "rademacher",
                "--kmax", "10", "--n", "64", "--samples", samples, "--seed", "3"]
        outs = []
        for threads in ("1", "2"):
            env = package_env()
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], samples


# empirical_moments of Gaussian samples at sizes where OpenBLAS splits a dot product
EMPIRICAL_HEX = """
import math
import wignerexp
normal = lambda rng, size: rng.standard_normal(size)
diag = lambda rng, size: math.sqrt(2.0) * rng.standard_normal(size)
sampler = wignerexp.custom_sampler(wignerexp.GOE, normal, diag)
for n in (128, 256):
    x = wignerexp.sample_matrix(n, sampler, 7)
    print(n, *map(float.hex, wignerexp.empirical_moments(x, 10)))
"""


def test_empirical_moments_do_not_depend_on_the_blas_thread_count():
    # the products keep BLAS's threads; every trace is read at one
    outs = []
    for threads in ("1", "2"):
        env = package_env()
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", EMPIRICAL_HEX], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].splitlines()) == 2
    assert outs[0] == outs[1]

# the benchmark's tracer wraps the public callables and hooks some of them by
# name; this runs one call of each traced workload kind through it
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.Tracer()
originals = tracing.install(tracer)
from wignerexp import cli, exact_moment, goe_model
exact_moment(4, 3, goe_model())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [
        cli.main(["check", "--order", "8", "--walks-kmax", "4"]),
        cli.main(["mc", "--kmax", "4", "--n", "8", "--samples", "4"]),
        cli.main(["enumerate", "--k", "5"]),
    ]
metrics = tracing.layer_metrics(tracer, originals, len(out.getvalue()))
totals = [line for line in out.getvalue().splitlines() if "total_classes=" in line]
print(json.dumps({"codes": codes, "metrics": metrics, "totals": totals}))
"""


def test_traced_benchmark_still_runs():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "bench"), str(root / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    # the tracer wraps class_rows as a generator; its rows all reach the footer
    assert report["totals"] == ["# total_classes=52"]  # Bell(5)
    metrics = report["metrics"]
    for name in ("walks.expectations", "montecarlo.samples_drawn", "series.mul.calls"):
        assert metrics[name] > 0, name
