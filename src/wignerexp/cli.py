"""Command-line front end: tables, identity checks, enumeration dumps, Monte Carlo.

Subcommands
-----------
moments    exact semicircle and correction moments, plus the two-term
           expansion at the requested sizes
check      exact identity suite (series identities, coefficient agreement,
           walk-class counts, the walk polynomial's sc_k and nu_k); exit
           code 0 iff everything passes
enumerate  classified canonical closed-walk words as CSV, with count totals
mc         Monte Carlo correction estimates and Richardson combinations
density    tabulated semicircle and correction densities on (-2, 2)
stieltjes  both Stieltjes transforms on a circle |z| = radius > 2

Output is CSV (comma delimiter, header row, LF endings) or JSON (one object
with a ``config`` echo, a ``rows`` array and any table summary after the rows;
an infinite or NaN number, such as the z of a zero-variance row, is written as
null).  Both formats stream the rows.  Every output embeds the effective
configuration, and config-file keys (--config, JSON) are overridden by
command-line flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, Sequence

from . import combinatorics as comb
from . import measure, montecarlo, series, walks

_ENSEMBLES = (*comb.PRESETS, "custom")
_FORMATS = ("csv", "json")
_PARAM_KEYS = tuple(f.name for f in fields(comb.EnsembleParams))
# density and stieltjes points, checked before any work.  Rows stream, so this
# bounds time: at 100,000 points density takes 1.0 s (JSON 1.4 s) and stieltjes
# 1.7 s (JSON 2.3 s), each at 29 MB peak RSS on a 2-core host.
MAX_TABLE_POINTS = 100_000
# moments table cells, (kmax + 1) rows times the nu column and one column per
# size, checked before any work.  A cell costs more the larger its k: the
# slowest table admitted, GUE with no sizes at kmax 2999 (its nu is 0, so no
# decimal overflow ends the run early), takes 1.8 s on a 2-core host, and one
# size at kmax 1499 0.5 s.  Unbounded, 2,000 sizes at kmax 1000 ran 180 s at
# 405 MB peak RSS.
MAX_MOMENT_CELLS = 3000
# config-file bytes, of which one more is read to tell a larger file: every
# config a command admits fits (2,999 sizes, the moments bound, take under
# 27 KB), and without a bound --config /dev/zero reads until memory runs out
MAX_CONFIG_BYTES = 64 << 10
# bounds on a --sigma2/--s2/--alpha string, checked before it is parsed:
# Fraction("1e4000000") builds its integer for seconds, and past 4300 digits
# Python refuses to print one.  At the bounds every command runs in about 1 s.
MAX_PARAM_DIGITS = 1000
MAX_PARAM_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one run.

    Every field after ``command`` is a config key: a ``--config`` file may set
    it, the flag of the same name overrides the file, and the field default
    applies otherwise.  Output echoes the keys in field order, ``out`` aside.
    """

    command: str
    ensemble: str = "goe"
    r: int | None = None
    sigma2: Fraction | None = None
    s2: Fraction | None = None
    alpha: Fraction | None = None
    kmax: int = 8
    n: tuple[int, ...] = (100,)
    samples: int = 1000
    seed: int = 1
    format: str = "csv"
    out: str | None = None
    order: int = 40

    @cached_property
    def params(self) -> comb.EnsembleParams:
        return comb.EnsembleParams(self.r, self.sigma2, self.s2, self.alpha)

    def echo(self) -> dict:
        echo = {}
        for key in ("command", *_KEYS):
            value = getattr(self, key)
            if isinstance(value, Fraction):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            echo[key] = value
        del echo["out"]
        return echo


_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command")


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for any flag")
    common.add_argument("--ensemble", choices=_ENSEMBLES)
    common.add_argument("--r", type=int, help="1 = real entries, 0 = complex (custom ensemble)")
    common.add_argument("--sigma2", help="off-diagonal variance, exact rational like 1 or 5/4")
    common.add_argument("--s2", help="diagonal variance, exact rational")
    common.add_argument("--alpha", help="off-diagonal fourth moment, exact rational")
    common.add_argument("--kmax", type=int, help="largest moment index")
    common.add_argument("--n", type=int, action="append", help="matrix size (repeatable)")
    common.add_argument("--samples", type=int, help="Monte Carlo sample count")
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument("--format", choices=_FORMATS)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--order", type=int, help="series truncation order")

    parser = argparse.ArgumentParser(
        prog="wignerexp",
        description="Spectral moments of Wigner matrices: semicircle plus exact 1/n correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("moments", parents=[common], help="exact moment tables")

    p_check = sub.add_parser("check", parents=[common], help="exact identity suite")
    p_check.add_argument(
        "--walks-kmax",
        type=int,
        default=10,
        help=f"walk-count checks up to this word length (2..{walks.MAX_WORD_LENGTH})",
    )
    p_check.add_argument(
        "--inject-fault",
        action="store_true",
        help="test hook: perturb one Catalan coefficient so the suite must fail",
    )

    p_enum = sub.add_parser("enumerate", parents=[common], help="dump classified walk classes")
    p_enum.add_argument(
        "--k", type=int, required=True, help=f"word length (at most {walks.MAX_WORD_LENGTH})"
    )
    p_enum.add_argument("--v", type=int, help="filter on vertex count")
    p_enum.add_argument("--e", type=int, help="filter on edge count")
    p_enum.add_argument("--cycle-type", choices=list(walks.CYCLE_TYPES), help="filter on walk structure")

    sub.add_parser("mc", parents=[common], help="Monte Carlo correction estimates")

    p_dens = sub.add_parser("density", parents=[common], help="tabulate densities on (-2, 2)")
    p_dens.add_argument("--grid", type=int, default=201, help="number of interior sample points")

    p_st = sub.add_parser("stieltjes", parents=[common], help="tabulate Stieltjes transforms")
    p_st.add_argument("--radius", type=float, default=4.0, help="circle radius, must exceed 2")
    p_st.add_argument("--points", type=int, default=16, help="points on the circle")

    return parser


def _file_settings(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config file {path} exceeds {MAX_CONFIG_BYTES} bytes")
    try:
        settings = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(settings, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(settings) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config-file keys: {sorted(unknown)}")
    return settings


def _checked(key: str, value, ok: bool, want: str):
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no 1


def _within(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ConfigError(f"{name} must be within {low}..{high}, got {value}")


def _presets_only(need: str, api: str) -> ConfigError:
    """The one refusal of --ensemble custom by a command that needs more than its moments."""
    return ConfigError(f"{need}; use a preset ensemble or the library {api} API")


def _resolve_params(settings: dict) -> dict:
    """The four parameter keys: a preset's values, or all four given for custom."""
    name = settings["ensemble"]
    given = [key for key in _PARAM_KEYS if settings.get(key) is not None]
    if name != "custom":
        if given:
            raise ConfigError(
                f"flags {given} only apply with --ensemble custom; "
                f"preset '{name}' fixes all four parameters"
            )
        return {key: getattr(comb.PRESETS[name], key) for key in _PARAM_KEYS}
    missing = [key for key in _PARAM_KEYS if key not in given]
    if missing:
        flags = " ".join(f"--{key}" for key in _PARAM_KEYS)
        raise ConfigError(f"--ensemble custom requires {flags} (missing {missing})")
    return {key: _exact_param(key, str(settings[key])) for key in _PARAM_KEYS[1:]}


def _exact_param(key: str, text: str) -> Fraction:
    """``text`` as a Fraction, after the size bounds above."""
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    # the digit count, exponent included, comes first: it bounds the int() below
    exponent = _EXPONENT.search(text)
    if sum(ch.isdigit() for ch in text) > MAX_PARAM_DIGITS or (
        exponent and abs(int(exponent[1])) > MAX_PARAM_EXPONENT
    ):
        raise ConfigError(
            f"{key} must have at most {MAX_PARAM_DIGITS} digits and a decimal exponent "
            f"within -{MAX_PARAM_EXPONENT}..{MAX_PARAM_EXPONENT}, got {shown}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"{key} must be an exact rational like 5/4, with a nonzero denominator, got {shown}"
        ) from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, the --config file and flags, then validate."""
    settings = _file_settings(args.config) if args.config else {}
    settings.update((key, getattr(args, key)) for key in _KEYS if getattr(args, key) is not None)
    ensemble = settings.setdefault("ensemble", RunConfig.ensemble)
    _checked("ensemble", ensemble, ensemble in _ENSEMBLES, f"one of {list(_ENSEMBLES)}")
    fmt = settings.get("format", RunConfig.format)
    _checked("format", fmt, fmt in _FORMATS, f"one of {list(_FORMATS)}")
    settings.update(_resolve_params(settings))
    for key in ("r", "kmax", "samples", "seed", "order"):
        if key in settings:
            _checked(key, settings[key], _is_int(settings[key]), "an integer")
    if "n" in settings:
        n = settings["n"]
        ok = isinstance(n, list) and all(map(_is_int, n))
        settings["n"] = tuple(_checked("n", n, ok, "a list of integers"))
    out = settings.get("out")
    _checked("out", out, out is None or isinstance(out, str), "a path")
    config = RunConfig(command=args.command, **settings)
    if any(size < 1 for size in config.n):
        raise ConfigError(f"matrix sizes must be positive, got {list(config.n)}")
    if config.kmax < 0:
        raise ConfigError(f"kmax must be nonnegative, got {config.kmax}")
    _within("series order", config.order, 2, series.MAX_SERIES_ORDER)
    config.params  # surfaces parameter errors before any work
    return config


# -- output plumbing ---------------------------------------------------------


# a table value's JSON text by its exact type, as json.dumps writes it, a
# non-finite float as null (RFC 8259 JSON has no Infinity or NaN)
_JSON_SCALAR = {
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else "null",
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _json_other(value) -> str:
    """JSON text of a type ``_JSON_SCALAR`` lacks; a float subclass takes the float rule."""
    if isinstance(value, float):
        return _JSON_SCALAR[float](value)
    return json.dumps(value, allow_nan=False)


def _json_at(value, depth: int) -> str:
    """`value` as indent-2 JSON whose continuation lines sit `depth` spaces in."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + " " * depth)


# lines joined into one write: the batch is bounded, so output still streams, and
# a write per line would cost a call per line (a system call on unbuffered stdout)
_BATCH_LINES = 2048


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line and a LF to the file `out`, or to stdout; streams.

    Lines go out ``_BATCH_LINES`` at a time, and the lines a source gives
    before it raises are still written.
    """
    try:
        with (
            open(out, "w", encoding="utf-8", newline="\n")
            if out is not None
            else contextlib.nullcontext(sys.stdout)
        ) as fh:
            held: list[str] = []
            try:
                for line in lines:
                    held.append(line)
                    if len(held) == _BATCH_LINES:
                        batch, held = held, []
                        fh.write("\n".join(batch) + "\n")
            finally:
                if held:
                    fh.write("\n".join(held) + "\n")
                fh.flush()  # a buffered stdout's last write fails here, not at exit
    except OSError as exc:
        if out is None:
            # the flush at exit would fail again, past main: point stdout's descriptor, if
            # it has one, at os.devnull, as the SIGPIPE note of Python's signal docs does
            with contextlib.suppress(AttributeError, ValueError, OSError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        raise ConfigError(f"cannot write {out or 'stdout'}: {exc.strerror}") from exc


def _row_parts(config: RunConfig, columns: Sequence[str]) -> tuple[list[str], Callable]:
    """The text around each value of a row in the config's format, and one value's text.

    A row's text is parts[0] + cell(row[0]) + parts[1] + ... + cell(row[-1]) +
    parts[-1].  CSV writes str of each value after a comma; a JSON row, flat,
    writes one key and value a line, each value's text picked by its exact type.
    """
    if config.format == "json":
        parts = [f",\n      {json.dumps(key)}: " for key in columns]
        parts[0] = "    {" + parts[0][1:]  # the row's first line opens it
        parts.append("\n    }")
        return parts, lambda value: _JSON_SCALAR.get(type(value), _json_other)(value)
    return ["", *[","] * (len(columns) - 1), ""], str


def _template(parts: Sequence[str]) -> Callable[..., str]:
    """``str.format`` of the text with ``parts`` around its values: "{}" between each two."""
    return "{}".join(part.replace("{", "{{").replace("}", "}}") for part in parts).format


def _render(
    config: RunConfig,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    head_comments: Iterable[str] = (),
    tail_comments: Iterable[str] = (),
    extra_json: Callable[[], dict] = dict,
) -> Iterator[str]:
    """Output lines, consuming `rows` one at a time in both formats.

    Each row holds its values in `columns` order; ``_frame`` writes their
    texts with the rest of the output.
    """
    parts, cell = _row_parts(config, columns)
    # format(x, "") is str(x) for every value a table holds (int, float, str,
    # Fraction, numpy float64, bool, None), str of a float its shortest
    # round-trip repr: so a CSV row's values need no cell first
    if config.format == "json":
        rows = (map(cell, row) for row in rows)
    texts = starmap(_template(parts), rows)
    return _frame(config, columns, texts, head_comments, tail_comments, extra_json)


def _frame(
    config: RunConfig,
    columns: Sequence[str],
    texts: Iterable[str],
    head_comments: Iterable[str] = (),
    tail_comments: Iterable[str] = (),
    extra_json: Callable[[], dict] = dict,
) -> Iterator[str]:
    """Output lines around the row `texts`, each made by ``_row_parts``' layout.

    CSV consumes `tail_comments` after the rows.  JSON holds each row until
    the next decides its comma, then writes the keys of `extra_json()`; with
    none, the bytes are those of json.dumps(..., indent=2).
    """
    if config.format == "json":
        yield "{"
        yield f'  "config": {_json_at(config.echo(), 2)},'
        held = None
        for text in texts:
            yield '  "rows": [' if held is None else held + ","
            held = text
        if held is not None:
            yield held
        close = '  "rows": []' if held is None else "  ]"
        extra = [f"  {json.dumps(key)}: {_json_at(value, 2)}" for key, value in extra_json().items()]
        yield ",\n".join([close, *extra])
        yield "}"
        return
    yield "# config: " + json.dumps(config.echo(), sort_keys=True)
    yield from (f"# {comment}" for comment in head_comments)
    yield ",".join(columns)
    yield from texts
    yield from (f"# {comment}" for comment in tail_comments)


def _fmt15(value: Fraction, name: str) -> str:
    """15-digit decimal of an exact value; bad input if it overflows a float."""
    try:
        return format(float(value), ".15g")
    except OverflowError:
        raise ConfigError(f"{name} exceeds the float range of its decimal column") from None


# -- subcommands -------------------------------------------------------------


def cmd_moments(config: RunConfig) -> int:
    cells = (config.kmax + 1) * (len(config.n) + 1)
    if cells > MAX_MOMENT_CELLS:
        raise ConfigError(
            f"moments table of (kmax + 1) x (1 + sizes) = {cells} cells exceeds its "
            f"bound {MAX_MOMENT_CELLS}; lower kmax or give fewer sizes"
        )
    columns = ["k", "sc", "nu", "nu_dec"]
    for n in config.n:
        columns += [f"m_n{n}", f"m_n{n}_dec"]
    # a list, not a stream: _fmt15 finds overflow partway, and bad input writes nothing
    rows = []
    for k in range(config.kmax + 1):
        sc = comb.semicircle_moment(k)
        nu = comb.nu_moment(k, config.params)
        row = [k, str(sc), str(nu), _fmt15(nu, f"nu at k={k}")]
        for n in config.n:
            m = sc + nu / n  # comb.expected_moment_expansion, from this row's sc and nu
            row += [str(m), _fmt15(m, f"m at k={k}, n={n}")]
        rows.append(row)
    _emit(_render(config, columns, rows), config.out)
    return 0


_INDEX = "first failing coefficient index {}".format


def _agreement(lhs, rhs) -> tuple[bool, str]:
    idx = lhs.first_difference(rhs)
    return idx is None, "" if idx is None else _INDEX(idx)


def _first_failure(cases: Iterable[tuple]) -> tuple[bool, str]:
    """(False, detail) at the first (got, want, detail) case with got != want, read no further."""
    for got, want, detail in cases:
        if got != want:
            return False, detail
    return True, ""


def _walk_count_cases(walks_kmax: int):
    for l in range(1, walks_kmax // 2 + 1):
        k = 2 * l
        expected = {
            (l + 1, l, None): comb.catalan(l),
            (l, l - 1, None): comb.double_edge_class_count(l),
            (l, l, walks.SELF_LOOP): comb.self_loop_class_count(l),
            (l, l, walks.CYCLE_ONE_WAY): comb.cycle_one_way_class_count(l),
            (l, l, walks.CYCLE_BOTH_WAYS): comb.cycle_both_ways_class_count(l),
        }
        for (v, e, kind), want in expected.items():
            got = walks.count_classes(k, v=v, e=e, cycle_type=kind)
            yield got, want, f"k={k} v={v} e={e} type={kind}: counted {got}, formula {want}"


def _walk_polynomial_cases(walks_kmax: int):
    for ensemble, make_model in walks.PRESET_MODELS.items():
        model = make_model()
        for k in range(2, walks_kmax + 1, 2):
            scale = model.sigma2 ** (k // 2)
            got = [c / scale for c in walks.walk_polynomial(k, model)[:2]]
            want = [comb.semicircle_moment(k), comb.nu_moment(k, comb.PRESETS[ensemble])]
            yield got, want, (
                f"{ensemble} k={k}: walk polynomial reads {got[0]}, {got[1]}; "
                f"closed form {want[0]}, {want[1]}"
            )


def identity_suite(
    order: int,
    params: comb.EnsembleParams,
    walks_kmax: int = 10,
    fault_index: int | None = None,
):
    t = series.catalan_series(order)
    if fault_index is not None:
        t = t + series.TruncatedRationalSeries.monomial(fault_index, order)
    checks = [
        (f"series: {name}", *_agreement(lhs, rhs))
        for name, lhs, rhs in series.catalan_identities(t)
    ]
    total = series.s_total(order, params)
    s1, s2, s3, s4 = series.s_components(order, params)
    checks.append(
        ("series: S1+S2+S3+S4 equals the reduced closed form", *_agreement(s1 + s2 + s3 + s4, total))
    )
    # at each l, the series coefficient, the family sum and the measure moment
    family = (
        ((total.coeff(l), comb.order_one_coeff(l, params).total), (nu, nu), _INDEX(l))
        for l in range(min(order, 20) + 1)
        for nu in [comb.nu_moment(2 * l, params)]
    )
    gue = chain(
        [(series.s_total(min(order, 20), comb.GUE).is_zero, True, "")],
        ((comb.nu_moment(2 * l, comb.GUE), 0, "") for l in range(21)),
    )
    goe = (
        (comb.nu_moment(2 * l, comb.GOE), Fraction(4**l - math.comb(2 * l, l), 2), _INDEX(l))
        for l in range(21)
    )
    for name, cases in (
        ("coefficients: series = family sum = measure moment", family),
        ("gue: correction vanishes identically", gue),
        ("goe: moments match (4^l - C(2l, l)) / 2", goe),
        ("walks: class counts match all four closed-form families", _walk_count_cases(walks_kmax)),
        ("walks: exact polynomial reads sc_k and nu_k", _walk_polynomial_cases(walks_kmax)),
    ):
        checks.append((name, *_first_failure(cases)))
    return checks


def cmd_check(config: RunConfig, walks_kmax: int, inject_fault: bool) -> int:
    _within("--walks-kmax", walks_kmax, 2, walks.MAX_WORD_LENGTH)
    fault = min(7, config.order) if inject_fault else None  # a coefficient the series holds
    checks = identity_suite(config.order, config.params, walks_kmax, fault)
    lines = []
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        lines.append(f"{line}  ({detail})" if detail else line)
    passed = sum(ok for _, ok, _ in checks)
    lines.append(f"{passed}/{len(checks)} identities hold")
    _emit(lines, config.out)
    return 0 if passed == len(checks) else 1


def cmd_enumerate(config: RunConfig, k: int, v, e, cycle_type) -> int:
    walks.check_word_length(k)
    if config.ensemble == "custom":
        raise _presets_only("enumeration expectations need full entry moment tables", "MomentModel")
    model = walks.PRESET_MODELS[config.ensemble]()
    columns = ["word", "v", "e", "cycle_type", "exp_num", "exp_den"]
    parts, cell = _row_parts(config, columns)
    lead, past = parts[0], _template(parts[1:])
    # by tail, the (v, e, cycle_type, exp_num, exp_den) every row of a key shares:
    # its text past the word, made once, and its rows so far
    tails: dict[tuple, list] = {}
    keyed = walks._keyed_rows(k, model, v, e, cycle_type)

    def texts():
        for word, tail in keyed:
            entry = tails.get(tail)
            if entry is None:
                entry = tails[tail] = [past(*map(cell, tail)), 0]
            entry[1] += 1
            yield lead + cell(word) + entry[0]

    # rows stream one per class: class counts grow like Bell numbers, so the
    # full table must never be materialized; the totals are read last
    def summary():
        totals: dict[tuple[int, int], int] = {}
        for (vv, ee, *_), (_, rows) in tails.items():
            totals[vv, ee] = totals.get((vv, ee), 0) + rows
        counts = {f"v={vv},e={ee}": c for (vv, ee), c in sorted(totals.items())}
        return {"summary": counts, "total_classes": sum(counts.values())}

    def footer():
        tally = summary()
        yield from (f"count[{key}]={count}" for key, count in tally["summary"].items())
        yield f"total_classes={tally['total_classes']}"

    _emit(
        _frame(config, columns, texts(), tail_comments=footer(), extra_json=summary),
        config.out,
    )
    return 0


def cmd_mc(config: RunConfig) -> int:
    if config.ensemble == "custom":
        raise _presets_only("Monte Carlo needs entry generators", "custom_sampler")
    if not config.n:
        raise ConfigError("mc needs at least one matrix size in n, got an empty list")
    # every resource bound before the first draw of any size
    _within("mc kmax", config.kmax, 2, montecarlo.MAX_KMAX)
    _within("mc samples", config.samples, 2, montecarlo.MAX_SAMPLES)
    largest = 2 * max(config.n)
    _within("the largest size mc samples, 2 max(n),", largest, 2, montecarlo.MAX_MATRIX_SIZE)
    sampler = montecarlo.PRESET_SAMPLERS[config.ensemble]()
    # one stream per distinct size: a size's 2n partner may be another's n
    sizes = sorted({*config.n, *(2 * n for n in config.n)})
    seconds = montecarlo.estimated_seconds(sampler, config.kmax, sizes, config.samples)
    if seconds > montecarlo.MAX_RUN_SECONDS:
        budget = montecarlo.MAX_RUN_SECONDS
        raise ConfigError(f"mc would take about {seconds:.3g} s, over its {budget} s budget")
    ks = list(range(2, config.kmax + 1, 2))
    columns = ["method", "k", "n", "samples", "point", "stderr", "reference", "z"]
    estimates = {
        size: montecarlo.estimate_corrections(ks, size, config.samples, sampler, config.seed)
        for size in sizes
    }

    def rows():
        for n in config.n:
            direct = estimates[n]
            combined = montecarlo.richardson_combine(direct, estimates[2 * n])
            for method, records in (("estimate", direct), ("richardson", combined)):
                for rec in records:
                    yield (method, rec.k, rec.n, rec.samples, rec.point, rec.stderr,
                           rec.reference, rec.z_score)

    _emit(_render(config, columns, rows()), config.out)
    return 0


def cmd_density(config: RunConfig, grid: int) -> int:
    _within("grid", grid, 1, MAX_TABLE_POINTS)
    nu = measure.SignedMeasureNu.from_params(config.params)
    step = 4.0 / grid
    columns = ["x", "semicircle", "nu"]
    xs = (-2.0 + (j + 0.5) * step for j in range(grid))
    rows = ((x, measure.semicircle_density(x), nu.density(x)) for x in xs)
    atoms = measure.nu_atoms(config.params)
    comments = ["atoms: " + " ".join(f"{loc:+g}:{mass}" for loc, mass in atoms)]
    extra = {"atoms": [[loc, str(mass)] for loc, mass in atoms]}
    _emit(
        _render(config, columns, rows, head_comments=comments, extra_json=lambda: extra),
        config.out,
    )
    return 0


def cmd_stieltjes(config: RunConfig, radius: float, points: int) -> int:
    # NaN fails both tests; above about 1.34e154, z * z overflows to NaN rows
    if not (radius > 2.0 and math.isfinite(radius * radius)):
        raise ConfigError(f"radius must exceed 2 and have a finite square, got {radius}")
    _within("points", points, 1, MAX_TABLE_POINTS)
    nu = measure.SignedMeasureNu.from_params(config.params)
    columns = ["re_z", "im_z", "sc_re", "sc_im", "nu_re", "nu_im"]

    def rows():
        for j in range(points):
            angle = 2.0 * math.pi * j / points
            z = complex(radius * math.cos(angle), radius * math.sin(angle))
            h, hn = measure.semicircle_stieltjes(z), nu.stieltjes(z)
            yield z.real, z.imag, h.real, h.imag, hn.real, hn.imag

    _emit(_render(config, columns, rows()), config.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        run = {
            "moments": lambda: cmd_moments(config),
            "check": lambda: cmd_check(config, args.walks_kmax, args.inject_fault),
            "enumerate": lambda: cmd_enumerate(config, args.k, args.v, args.e, args.cycle_type),
            "mc": lambda: cmd_mc(config),
            "density": lambda: cmd_density(config, args.grid),
            "stieltjes": lambda: cmd_stieltjes(config, args.radius, args.points),
        }[args.command]  # argparse admits no other command
        return run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
