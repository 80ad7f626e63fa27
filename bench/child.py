"""One repetition of one workload, in a fresh process.

Usage: python3 bench/child.py SPEC_JSON

The spec (written by ``run.py``) names the package source directory, the
workload kind and its inputs, the monotonic time at which the parent
spawned this process, and whether to trace.  The process imports the
package from that source directory, builds the inputs, runs the timed
calls and prints one JSON report on stdout: setup and run time, each
call's output (CLI stdout with its SHA-256, or exact oracle values), and
with tracing the per-layer figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _oracle_calls(seed: int, models, ks, sizes) -> list[tuple[str, int, int]]:
    """Every (model, k, n) once, in an order drawn from the seed."""
    calls = [(name, k, n) for name in models for k in ks for n in sizes]
    random.Random(seed).shuffle(calls)
    return calls


def _run_cli(cli, argvs) -> list[tuple[list[str], int, str]]:
    runs = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        runs.append((argv, code, buf.getvalue()))
    return runs


def _summary(argv: list[str], code: int, text: str) -> dict:
    data = text.encode()
    lines = text.splitlines()
    return {
        "argv": argv,
        "exit": code,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        # the enumerate dump is megabytes; its gates read the comments only
        "text": text if len(data) <= 1 << 20 else None,
        "comments": [line for line in lines if line.startswith("#")],
        "last_line": lines[-1] if lines else "",
    }


def _run_oracle(walks, models, calls) -> list[list]:
    return [
        [name, k, n, str(walks.exact_moment(k, n, models[name]))] for name, k, n in calls
    ]


def _microbench(montecarlo, micro: dict, seed: int, calls: dict) -> None:
    """sample_matrix and empirical_moments, ``calls[n]`` times at each size n."""
    for name in micro["ensembles"]:
        sampler = montecarlo.PRESET_SAMPLERS[name]()
        for n, count in calls.items():
            for i in range(count):
                x = montecarlo.sample_matrix(n, sampler, (seed, i))
                montecarlo.empirical_moments(x, micro["kmax"])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def references(w, spec: dict) -> dict:
    """Gate references, each from another route than the workload times.

    ``nu``: the closed-form correction moments (combinatorics), for the mc
    Richardson rows and the oracle's residuals.  ``finite``: n (m_k(n) - sc_k)
    from the walk oracle at the mc size, for the mc estimate rows.
    """
    refs: dict = {"env": environment(), "nu": [], "finite": [], "diag_ratio": {}}
    for name in spec["models"]:
        params = w.PRESETS[name]
        refs["diag_ratio"][name] = str(params.diag_ratio)
        refs["nu"] += [[name, k, str(w.nu_moment(k, params))] for k in spec["ks"]]
        n = spec.get("finite_n")
        if n:
            model = getattr(w, f"{name}_model")()
            refs["finite"] += [
                [name, k, str(n * (w.exact_moment(k, n, model) - w.semicircle_moment(k)))]
                for k in spec["ks"]
            ]
    return refs


def main(spec: dict) -> dict:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import wignerexp
    from wignerexp import cli, montecarlo, walks

    if not os.path.abspath(wignerexp.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported wignerexp from {wignerexp.__file__}, not {src}")
    if spec["kind"] == "references":
        return references(wignerexp, spec)
    if spec["kind"] == "oracle":
        models = {name: getattr(walks, f"{name}_model")() for name in spec["models"]}
        calls = _oracle_calls(spec["seed"], spec["models"], spec["ks"], spec["sizes"])
    report = {"setup_s": _now() - spec["spawned_at"]}
    if spec["setup_only"]:
        return report

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    start = time.perf_counter()
    if spec["kind"] == "cli":
        runs = _run_cli(cli, spec["argvs"])
    else:
        report["values"] = _run_oracle(walks, models, calls)
    report["run_s"] = time.perf_counter() - start
    # a child's peak includes the RSS its parent had at fork, which the lean
    # benchmark parent keeps far below any workload's own
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec["kind"] == "cli":
        report["outputs"] = [_summary(*run) for run in runs]

    if tracer is not None:
        bytes_out = sum(out["bytes"] for out in report.get("outputs", ()))
        layers = tracing.layer_metrics(tracer, originals, bytes_out)
        if "micro" in spec:
            _microbench(montecarlo, spec["micro"], spec["seed"], tracing.MICRO_CALLS)
        layers.update(tracing.per_call_us(tracer))
        report["layers"] = layers
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
