"""Command-line front end: tables, identity checks, enumeration dumps, Monte Carlo.

Subcommands
-----------
moments    exact semicircle and correction moments, plus the two-term
           expansion at the requested sizes
check      exact identity suite (series identities, coefficient agreement,
           walk-class counts); exit code 0 iff everything passes
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
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
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
        with open(path, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
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
    values = {}
    for key in _PARAM_KEYS[1:]:
        try:
            values[key] = Fraction(str(settings[key]))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{key} must be an exact rational like 5/4, with a nonzero denominator, "
                f"got {settings[key]!r}"
            ) from None
    return values


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
    if not 2 <= config.order <= series.MAX_SERIES_ORDER:
        raise ConfigError(
            f"series order must be within 2..{series.MAX_SERIES_ORDER}, got {config.order}"
        )
    config.params  # surfaces parameter errors before any work
    return config


# -- output plumbing ---------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _finite_or_null(row: dict) -> dict:
    """`row` with every infinite or NaN float replaced by None (JSON null).

    RFC 8259 JSON has no Infinity or NaN, which json.dumps would otherwise
    write, e.g. for the z of a zero-variance row whose point is off by rounding.
    """
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in row.items()
    }


def _json_at(value, depth: int) -> str:
    """`value` as indent-2 JSON whose continuation lines sit `depth` spaces in."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + " " * depth)


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line and a LF to the file `out`, or to stdout; streams."""
    try:
        with (
            open(out, "w", encoding="utf-8", newline="\n")
            if out is not None
            else contextlib.nullcontext(sys.stdout)
        ) as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {out or 'stdout'}: {exc.strerror}") from exc


def _render(
    config: RunConfig,
    columns: Sequence[str],
    rows: Iterable[dict],
    head_comments: Iterable[str] = (),
    tail_comments: Iterable[str] = (),
    extra_json: Callable[[], dict] = dict,
) -> Iterator[str]:
    """Output lines, consuming `rows` one at a time in both formats.

    CSV then consumes `tail_comments`.  JSON holds each row until the next
    decides its comma, then writes the keys of `extra_json()`; with none, the
    bytes are those of json.dumps(..., indent=2).
    """
    if config.format == "json":
        # rows are flat, so a row's indent-2 form is its compact form with one item
        # a line, which the C encoder writes in one call (the indent path is Python)
        row_json = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False).encode
        yield "{"
        yield f'  "config": {_json_at(config.echo(), 2)},'
        held = None
        for row in rows:
            yield '  "rows": [' if held is None else held + ","
            held = "    {\n      " + row_json(_finite_or_null(row))[1:-1] + "\n    }"
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
    for row in rows:
        yield ",".join(_cell(row[col]) for col in columns)
    yield from (f"# {comment}" for comment in tail_comments)


def _fmt15(value: Fraction, name: str) -> str:
    """15-digit decimal of an exact value; bad input if it overflows a float."""
    try:
        return format(float(value), ".15g")
    except OverflowError:
        raise ConfigError(f"{name} exceeds the float range of its decimal column") from None


# -- subcommands -------------------------------------------------------------


def cmd_moments(config: RunConfig) -> int:
    columns = ["k", "sc", "nu", "nu_dec"]
    for n in config.n:
        columns += [f"m_n{n}", f"m_n{n}_dec"]
    # a list, not a stream: _fmt15 finds overflow partway, and bad input writes nothing
    rows = []
    for k in range(config.kmax + 1):
        sc = comb.semicircle_moment(k)
        nu = comb.nu_moment(k, config.params)
        row = {"k": k, "sc": str(sc), "nu": str(nu), "nu_dec": _fmt15(nu, f"nu at k={k}")}
        for n in config.n:
            m = comb.expected_moment_expansion(k, n, config.params)
            row[f"m_n{n}"] = str(m)
            row[f"m_n{n}_dec"] = _fmt15(m, f"m at k={k}, n={n}")
        rows.append(row)
    _emit(_render(config, columns, rows), config.out)
    return 0


def _agreement(lhs, rhs) -> tuple[bool, str]:
    idx = lhs.first_difference(rhs)
    return idx is None, "" if idx is None else f"first failing coefficient index {idx}"


def _coefficient_checks(order: int, params: comb.EnsembleParams):
    checks = []
    total = series.s_total(order, params)
    parts = series.s_components(order, params)
    summed = parts[0] + parts[1] + parts[2] + parts[3]
    checks.append(
        ("series: S1+S2+S3+S4 equals the reduced closed form", *_agreement(summed, total))
    )
    bad = ""
    ok = True
    for l in range(min(order, 20) + 1):
        direct = comb.order_one_coeff(l, params).total
        closed = comb.nu_moment(2 * l, params)
        if not (total.coeff(l) == direct == closed):
            ok, bad = False, f"first failing coefficient index {l}"
            break
    checks.append(("coefficients: series = family sum = measure moment", ok, bad))

    gue_total = series.s_total(min(order, 20), comb.GUE)
    ok = gue_total.is_zero and all(
        comb.nu_moment(2 * l, comb.GUE) == 0 for l in range(21)
    )
    checks.append(("gue: correction vanishes identically", ok, ""))

    ok = True
    bad = ""
    for l in range(21):
        want = Fraction(4**l - math.comb(2 * l, l), 2)
        if comb.nu_moment(2 * l, comb.GOE) != want:
            ok, bad = False, f"first failing coefficient index {l}"
            break
    checks.append(("goe: moments match (4^l - C(2l, l)) / 2", ok, bad))
    return checks


def _walk_count_checks(walks_kmax: int):
    ok = True
    bad = ""
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
            if got != want:
                ok = False
                bad = f"k={k} v={v} e={e} type={kind}: counted {got}, formula {want}"
                break
        if not ok:
            break
    return [("walks: class counts match all four closed-form families", ok, bad)]


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
    checks += _coefficient_checks(order, params)
    checks += _walk_count_checks(walks_kmax)
    return checks


def cmd_check(config: RunConfig, walks_kmax: int, inject_fault: bool) -> int:
    if not 2 <= walks_kmax <= walks.MAX_WORD_LENGTH:
        raise ConfigError(
            f"--walks-kmax must be within 2..{walks.MAX_WORD_LENGTH}, got {walks_kmax}"
        )
    fault = 7 if inject_fault else None
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
        raise ConfigError(
            "enumeration expectations need full entry moment tables; "
            "use a preset ensemble or the library MomentModel API"
        )
    model = walks.PRESET_MODELS[config.ensemble]()
    columns = ["word", "v", "e", "cycle_type", "exp_num", "exp_den"]
    classes = walks.select_classes(walks.enumerate_canonical_words(k), v, e, cycle_type)
    totals: dict[tuple[int, int], int] = {}

    def rows():
        for cls in classes:
            totals[(cls.v, cls.e)] = totals.get((cls.v, cls.e), 0) + 1
            value = walks.expected_word_product(cls, model)
            yield {
                "word": "-".join(map(str, cls.canonical_word)),
                "v": cls.v,
                "e": cls.e,
                "cycle_type": cls.cycle_type,
                "exp_num": value.numerator,
                "exp_den": value.denominator,
            }

    # rows stream one per class: class counts grow like Bell numbers, so the
    # full table must never be materialized; the totals are read last
    def footer():
        for (vv, ee), count in sorted(totals.items()):
            yield f"count[v={vv},e={ee}]={count}"
        yield f"total_classes={sum(totals.values())}"

    def summary():
        return {
            "summary": {f"v={vv},e={ee}": c for (vv, ee), c in sorted(totals.items())},
            "total_classes": sum(totals.values()),
        }

    _emit(
        _render(config, columns, rows(), tail_comments=footer(), extra_json=summary),
        config.out,
    )
    return 0


def cmd_mc(config: RunConfig) -> int:
    if config.ensemble == "custom":
        raise ConfigError(
            "Monte Carlo needs entry generators; use a preset ensemble or the "
            "library custom_sampler API"
        )
    if not config.n:
        raise ConfigError("mc needs at least one matrix size in n, got an empty list")
    # every resource bound before the first draw of any size
    largest = 2 * max(config.n)
    for name, value, high in (
        ("kmax", config.kmax, montecarlo.MAX_KMAX),
        ("samples", config.samples, montecarlo.MAX_SAMPLES),
        ("the largest size sampled, 2 max(n),", largest, montecarlo.MAX_MATRIX_SIZE),
    ):
        if not 2 <= value <= high:
            raise ConfigError(f"mc needs {name} within 2..{high}, got {value}")
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
                    values = (method, rec.k, rec.n, rec.samples, rec.point, rec.stderr,
                              rec.reference, rec.z_score)
                    yield dict(zip(columns, values))

    _emit(_render(config, columns, rows()), config.out)
    return 0


def cmd_density(config: RunConfig, grid: int) -> int:
    if not 1 <= grid <= MAX_TABLE_POINTS:
        raise ConfigError(f"grid must be within 1..{MAX_TABLE_POINTS}, got {grid}")
    nu = measure.SignedMeasureNu.from_params(config.params)
    step = 4.0 / grid
    columns = ["x", "semicircle", "nu"]
    xs = (-2.0 + (j + 0.5) * step for j in range(grid))
    rows = ({"x": x, "semicircle": measure.semicircle_density(x), "nu": nu.density(x)} for x in xs)
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
    if not 1 <= points <= MAX_TABLE_POINTS:
        raise ConfigError(f"points must be within 1..{MAX_TABLE_POINTS}, got {points}")
    nu = measure.SignedMeasureNu.from_params(config.params)
    columns = ["re_z", "im_z", "sc_re", "sc_im", "nu_re", "nu_im"]

    def rows():
        for j in range(points):
            angle = 2.0 * math.pi * j / points
            z = complex(radius * math.cos(angle), radius * math.sin(angle))
            h, hn = measure.semicircle_stieltjes(z), nu.stieltjes(z)
            yield dict(zip(columns, (z.real, z.imag, h.real, h.imag, hn.real, hn.imag)))

    _emit(_render(config, columns, rows()), config.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "moments":
            return cmd_moments(config)
        if args.command == "check":
            return cmd_check(config, args.walks_kmax, args.inject_fault)
        if args.command == "enumerate":
            return cmd_enumerate(config, args.k, args.v, args.e, args.cycle_type)
        if args.command == "mc":
            return cmd_mc(config)
        if args.command == "density":
            return cmd_density(config, args.grid)
        if args.command == "stieltjes":
            return cmd_stieltjes(config, args.radius, args.points)
        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
