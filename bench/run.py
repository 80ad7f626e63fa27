"""wignerexp benchmark: four workloads over the package's routes.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Workloads (the reasons are in BENCHMARK.json):

    mc-gauss        wignerexp mc, GOE and GUE, --kmax 6 --n 64, 1 BLAS thread
    mc-dense        wignerexp mc, Rademacher, --kmax 10 --n 128, nproc BLAS threads
    exact-oracle    exact_moment(k, n, model), even k 2..10, three models,
                    n in {1, 2, 64, 128, 10000}, in an order drawn from the seed
    identity-check  wignerexp check --order 160 --walks-kmax 10, then
                    wignerexp enumerate --k 10

Each repetition runs in a fresh child process (``child.py``) with the
workload's BLAS thread count in OPENBLAS_NUM_THREADS, a wall-clock timeout
and an address-space cap.  Repetitions continue until the next one would
end after ``--seconds``; at least three run.  Figures are medians over
repetitions.  On a shared host, load from other tenants drifts over tens
of seconds, so a run's median moves with it by 10-15% whatever statistic
is taken; the bounds in BENCHMARK.json allow for that.  Every repetition's
outputs pass correctness gates whose references come from another route
than the one timed, computed by a child before the timed ones; CLI stdout
must also be byte-identical across the repetitions of one run.  A crash,
timeout or limit breach fails the repetition and ends the run.  The
parent imports neither numpy nor the package, so that the RSS a forked
child inherits stays below any workload's own.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    setup_s             spawn of the child until the package is imported and
                        the inputs are built; median over every repetition
                        and a set-up-only child after each (at least seven)
    run_s               the workload's calls, set-up excluded
    peak_rss_mb         median over repetitions of the child's own peak RSS
    time_to_accuracy_s  mc: run_s * max over Richardson rows at the top k of
                        (stderr / TTA_TARGET_SE)^2, the projected time to reach
                        that standard error; exact routes have no sampling
                        error, so for them it equals run_s

``failed_frac`` (failed gates / gates attempted) is printed with them; it
is 0 when nothing fails, so the result line carries it as ``failed`` and
``attempted`` rather than as a metric.  With ``--trace 1`` the children
alternate untraced and traced, the traced ones wrapping the package's
public functions (``tracing.py``), and the last line carries the
per-layer metrics plus ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

NPROC = len(os.sched_getaffinity(0))
MIN_REPS = 3
MIN_TRACE_REPS = 4  # two untraced, two traced
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0  # repetitions take under 10 s at this commit
CHILD_ADDRESS_SPACE = 3 << 30  # bytes; exact_moment(12) alone needs about 7 GB
GATE_SE = 4.0
FLOAT_SLACK = 1e-9  # rows with zero variance (Rademacher k=2) compare to rounding
TTA_TARGET_SE = 1.0
ORACLE_MODELS = ("goe", "gue", "rademacher")
ORACLE_KS = (2, 4, 6, 8, 10)
ORACLE_SIZES = (1, 2, 64, 128, 10000)
DECAY_PAIRS = ((64, 10000), (128, 10000))
ENUMERATE_K = 10


@dataclass(frozen=True)
class McShape:
    ensembles: tuple[str, ...]
    kmax: int
    n: int

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(range(2, self.kmax + 1, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    blas_threads: int
    mc: McShape | None = None
    oracle: bool = False
    argv_templates: tuple[tuple[str, ...], ...] = ()

    def argvs(self, seed: int) -> list[list[str]]:
        if self.mc is not None:
            return [
                ["mc", "--ensemble", name, "--kmax", str(self.mc.kmax), "--n", str(self.mc.n),
                 "--format", "json", "--seed", str(seed)]
                for name in self.mc.ensembles
            ]
        return [[*argv, "--seed", str(seed)] for argv in self.argv_templates]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-gauss", 1, mc=McShape(("goe", "gue"), kmax=6, n=64)),
        Workload("mc-dense", NPROC, mc=McShape(("rademacher",), kmax=10, n=128)),
        Workload("exact-oracle", 1, oracle=True),
        Workload(
            "identity-check",
            1,
            argv_templates=(
                ("check", "--order", "160", "--walks-kmax", "10"),
                ("enumerate", "--k", str(ENUMERATE_K)),
            ),
        ),
    )
}


# -- children -------------------------------------------------------------------


class RepFailed(Exception):
    """A repetition crashed, timed out or broke its resource limit."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _limit_address_space(limit: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def run_child(
    spec: dict,
    blas_threads: int,
    timeout: float = CHILD_TIMEOUT_S,
    address_space: int = CHILD_ADDRESS_SPACE,
) -> dict:
    """Spawn one child, wait for it within the timeout, return its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    spec = dict(spec, src=str(SRC), spawned_at=_now())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_address_space(address_space),
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RepFailed(f"timed out after {timeout:g} s") from None
    if proc.returncode != 0:
        last = err.strip().splitlines()[-1:] or ["no stderr"]
        raise RepFailed(f"exit code {proc.returncode}: {last[0]}")
    return json.loads(out.splitlines()[-1])


def child_spec(workload: Workload, seed: int, trace: bool, setup_only: bool = False) -> dict:
    spec = {"seed": seed, "trace": trace, "setup_only": setup_only}
    if workload.oracle:
        spec.update(kind="oracle", models=ORACLE_MODELS, ks=ORACLE_KS, sizes=ORACLE_SIZES)
        return spec
    spec.update(kind="cli", argvs=workload.argvs(seed))
    if workload.mc is not None and trace:
        spec["micro"] = {"ensembles": workload.mc.ensembles, "kmax": workload.mc.kmax}
    return spec


# -- references and gates -----------------------------------------------------------


@dataclass(frozen=True)
class References:
    """What the gates compare with, computed by a child before the timed ones."""

    env: dict
    nu: dict  # (model, k) -> nu_k, closed form
    finite: dict  # (model, k) -> n (m_k(n) - sc_k) at the mc size, walk oracle
    diag_ratio: dict  # model -> s2 / sigma2


def references(workload: Workload) -> References:
    if workload.mc is not None:
        spec = {"kind": "references", "models": workload.mc.ensembles,
                "ks": workload.mc.ks, "finite_n": workload.mc.n}
    else:
        spec = {"kind": "references", "models": ORACLE_MODELS, "ks": ORACLE_KS}
    raw = run_child(spec, 1)
    return References(
        env=raw["env"],
        nu={(name, k): Fraction(v) for name, k, v in raw["nu"]},
        finite={(name, k): Fraction(v) for name, k, v in raw["finite"]},
        diag_ratio={name: Fraction(v) for name, v in raw["diag_ratio"].items()},
    )


def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def mc_gates(outputs: list[dict], shape: McShape, refs: References) -> list[tuple[bool, str]]:
    """Estimate rows within 4 SE of the oracle, Richardson rows within 4 SE of nu_k."""
    gates = []
    for name, out in zip(shape.ensembles, outputs):
        gates.append((out["exit"] == 0, f"{name}: exit code {out['exit']}"))
        rows = json.loads(out["text"])["rows"] if out["exit"] == 0 else []
        by_key = {(row["method"], row["k"]): row for row in rows}
        for method in ("estimate", "richardson"):
            for k in shape.ks:
                row = by_key.get((method, k))
                if row is None:
                    gates.append((False, f"{name} {method} k={k}: row missing"))
                    continue
                ref = float((refs.finite if method == "estimate" else refs.nu)[(name, k)])
                miss = abs(row["point"] - ref)
                ok = miss <= GATE_SE * row["stderr"] + FLOAT_SLACK * max(1.0, abs(ref))
                gates.append(
                    (ok, f"{name} {method} k={k}: {row['point']!r} vs {ref!r} "
                         f"(stderr {row['stderr']!r})")
                )
    return gates


def mc_accuracy_factor(outputs: list[dict], shape: McShape) -> float:
    """max over Richardson rows at the top k of (stderr / TTA_TARGET_SE)^2."""
    factor = 0.0
    for out in outputs:
        for row in json.loads(out["text"])["rows"]:
            if row["method"] == "richardson" and row["k"] == shape.kmax:
                factor = max(factor, (row["stderr"] / TTA_TARGET_SE) ** 2)
    return factor


def identity_gates(outputs: list[dict]) -> list[tuple[bool, str]]:
    check, enum = outputs
    last = check["last_line"]
    held = re.fullmatch(r"(\d+)/(\d+) identities hold", last)
    footer = dict(
        line[2:].rsplit("=", 1) for line in enum["comments"] if "=" in line
    )
    l = ENUMERATE_K // 2
    trees = f"count[v={l + 1},e={l}]"  # tree classes: Cat(l) of them
    return [
        (check["exit"] == 0, f"check: exit code {check['exit']}"),
        (bool(held) and held[1] == held[2], f"check: last line {last!r}"),
        (enum["exit"] == 0, f"enumerate: exit code {enum['exit']}"),
        (footer.get("total_classes") == str(bell(ENUMERATE_K)),
         f"enumerate: total_classes {footer.get('total_classes')} != Bell({ENUMERATE_K})"),
        (footer.get(trees) == str(catalan(l)),
         f"enumerate: {trees} {footer.get(trees)} != Cat({l})"),
    ]


# criterion 6: m4(n) in closed form where the correction has one
CLOSED_M4 = {
    "goe": lambda n: 2 + Fraction(5, n) + Fraction(5, n**2),
    "gue": lambda n: 2 + Fraction(1, n**2),
}


def oracle_gates(values: list[list], refs: References) -> list[tuple[bool, str]]:
    """Criterion-6 closed forms and >= 8x residual decay per decade of n."""
    m = {(name, k, n): Fraction(v) for name, k, n, v in values}
    gates = [(len(m) == len(ORACLE_MODELS) * len(ORACLE_KS) * len(ORACLE_SIZES),
              f"oracle: {len(m)} distinct values returned")]
    for name in ORACLE_MODELS:
        for n in ORACLE_SIZES:
            got, want = m.get((name, 2, n)), 1 + (refs.diag_ratio[name] - 1) / n
            gates.append((got == want, f"{name} m2({n}) = {got}, closed form {want}"))
            if name in CLOSED_M4:
                got, want = m.get((name, 4, n)), CLOSED_M4[name](n)
                gates.append((got == want, f"{name} m4({n}) = {got}, closed form {want}"))
        for k in ORACLE_KS:
            for lo, hi in DECAY_PAIRS:
                r_lo, r_hi = (
                    n * (m[(name, k, n)] - catalan(k // 2)) - refs.nu[(name, k)]
                    if (name, k, n) in m else None
                    for n in (lo, hi)
                )
                if r_lo is None or r_hi is None:
                    ok = False
                elif r_lo == 0:
                    ok = r_hi == 0
                else:
                    ok = abs(r_hi) * 8 ** math.log10(hi / lo) <= abs(r_lo)
                gates.append((ok, f"{name} k={k}: residual {r_lo} at n={lo}, {r_hi} at n={hi}"))
    return gates


def determinism_gates(first: dict, rep: dict) -> list[tuple[bool, str]]:
    return [
        (a["sha256"] == b["sha256"], f"{' '.join(a['argv'])}: stdout differs between repetitions")
        for a, b in zip(first["outputs"], rep["outputs"])
    ]


# -- one measured run ---------------------------------------------------------------


@dataclass
class RunResult:
    reps: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def gate(self, results) -> None:
        for ok, label in results:
            self.attempted += 1
            if not ok:
                self.failed.append(label)


def workload_gates(workload: Workload, rep: dict, refs: References) -> list[tuple[bool, str]]:
    if workload.mc is not None:
        return mc_gates(rep["outputs"], workload.mc, refs)
    if workload.oracle:
        return oracle_gates(rep["values"], refs)
    return identity_gates(rep["outputs"])


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    refs: References,
    **child_limits,
) -> RunResult:
    """Repeat the workload in fresh children until ``seconds`` would be exceeded."""
    result = RunResult()
    start = _now()
    durations = []
    probe = child_spec(workload, seed, trace=False, setup_only=True)
    try:
        while True:
            traced = trace and len(durations) % 2 == 1
            began = _now()
            spec = child_spec(workload, seed, traced)
            rep = run_child(spec, workload.blas_threads, **child_limits)
            durations.append(_now() - began)
            result.gate(workload_gates(workload, rep, refs))
            if "outputs" in rep and (result.reps or result.traced):
                result.gate(determinism_gates((result.reps or result.traced)[0], rep))
            (result.traced if traced else result.reps).append(rep)
            # probes between repetitions sample set-up under the same machine load
            result.setups.append(rep["setup_s"])
            result.setups.append(run_child(probe, workload.blas_threads, **child_limits)["setup_s"])
            enough = len(durations) >= (MIN_TRACE_REPS if trace else MIN_REPS)
            if enough and _now() - start + statistics.median(durations) > seconds:
                break
        while len(result.setups) < SETUP_SAMPLES:
            result.setups.append(run_child(probe, workload.blas_threads, **child_limits)["setup_s"])
    except RepFailed as exc:
        result.attempted += 1
        result.failed.append(f"repetition {len(durations) + 1}: {exc}")
    return result


def end_to_end(workload: Workload, result: RunResult) -> dict:
    run_s = statistics.median(rep["run_s"] for rep in result.reps)
    if workload.mc is not None:
        tta = run_s * mc_accuracy_factor(result.reps[0]["outputs"], workload.mc)
    else:
        tta = run_s
    return {
        "setup_s": statistics.median(result.setups),
        "run_s": run_s,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in result.reps),
        "time_to_accuracy_s": tta,
    }


def per_layer(result: RunResult) -> dict:
    metrics = {}
    for name, first in result.traced[0]["layers"].items():
        # counts repeat exactly; report one of them rather than a mean of two
        pick = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[name] = pick(rep["layers"][name] for rep in result.traced)
    traced = statistics.median(rep["run_s"] for rep in result.traced)
    untraced = statistics.median(rep["run_s"] for rep in result.reps)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics


# -- reporting --------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fingerprint(workload: Workload, refs: References) -> dict:
    commit = "unknown"  # an exported tree has no .git; never look above ROOT for one
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or commit
    return {
        **refs.env,
        "blas_threads": workload.blas_threads,
        "nproc": NPROC,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "commit": commit,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    try:
        refs = references(workload)
    except RepFailed as exc:
        refs = References(env={}, nu={}, finite={}, diag_ratio={})
        result = RunResult(attempted=1, failed=[f"references: {exc}"])
    else:
        result = measure(workload, seed, seconds, trace, refs)
    units = declared_metrics(trace)
    metrics = {}
    if result.reps and (result.traced or not trace):
        values = per_layer(result) if trace else end_to_end(workload, result)
        if set(values) != set(units):
            raise SystemExit(
                f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
            )
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed_frac = len(result.failed) / max(result.attempted, 1)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"repetitions {len(result.reps)} untraced, {len(result.traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {failed_frac:>16.6g} ratio "
          f"({len(result.failed)} of {result.attempted} gates)")
    for label in result.failed[:10]:
        print(f"  FAILED {label}")
    print("env " + json.dumps(fingerprint(workload, refs), sort_keys=True))
    return {
        "correct": not result.failed,
        "attempted": max(result.attempted, 1),
        "failed": len(result.failed),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in turn; metric names gain the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        record = run_workload(workload, seed, seconds, trace)
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "wignerexp" / "__init__.py").is_file():
        parser.exit(2, f"error: no package source under {SRC}\n")
    if args.workload == "all":
        record = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
