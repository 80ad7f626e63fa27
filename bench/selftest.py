"""Show that the benchmark's gates can fail and that its traced counts are exact.

Usage (from the repository root): python3 bench/selftest.py

Each check prints PASS or FAIL; the exit code is 0 only if all pass.

- ``check --inject-fault`` in identity-check gives failed_frac > 0.
- mc-gauss rows pass against their references and fail against references
  shifted by one unit.
- A repetition that times out, or that breaks its address-space cap,
  counts as failed.
- Traced counts take their exact values: useful_ratio 2/3 on mc-gauss;
  120,335 classes, 361,005 expectations and 15,228 nonzero of them on
  exact-oracle.
"""

from __future__ import annotations

import dataclasses
import sys

import run

SEED = 1


def _failed_frac(gates) -> float:
    return sum(not ok for ok, _ in gates) / len(gates)


def _traced(name: str) -> tuple[run.Workload, run.References, dict]:
    workload = run.WORKLOADS[name]
    refs = run.references(workload)
    rep = run.run_child(run.child_spec(workload, SEED, trace=True), workload.blas_threads)
    return workload, refs, rep


def main() -> int:
    results = []

    def report(label: str, ok: bool, detail) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {label}  ({detail})")

    identity = run.WORKLOADS["identity-check"]
    check, enum = identity.argv_templates
    faulty = dataclasses.replace(identity, argv_templates=(check + ("--inject-fault",), enum))
    rep = run.run_child(run.child_spec(faulty, SEED, trace=False), faulty.blas_threads)
    frac = _failed_frac(run.workload_gates(faulty, rep, run.references(faulty)))
    report("check --inject-fault fails the identity gates", frac > 0, f"failed_frac {frac:.3g}")

    workload, refs, rep = _traced("mc-gauss")
    frac = _failed_frac(run.workload_gates(workload, rep, refs))
    report("mc-gauss rows pass against their references", frac == 0, f"failed_frac {frac:.3g}")
    shifted = dataclasses.replace(
        refs,
        nu={key: value + 1 for key, value in refs.nu.items()},
        finite={key: value + 1 for key, value in refs.finite.items()},
    )
    frac = _failed_frac(run.workload_gates(workload, rep, shifted))
    report("mc-gauss rows fail against shifted references", frac > 0, f"failed_frac {frac:.3g}")
    ratio = rep["layers"]["montecarlo.useful_ratio"]
    report("mc-gauss useful_ratio is 2/3", ratio == 2 / 3, ratio)

    workload, refs, rep = _traced("exact-oracle")
    layers = rep["layers"]
    for name, want in (
        ("walks.classes_yielded", 120_335),
        ("walks.expectations", 361_005),
        ("walks.nonzero_ratio", 15_228 / 361_005),
    ):
        report(f"exact-oracle {name} is {want}", layers[name] == want, layers[name])

    # exact-oracle needs about 300 MiB of address space, its set-up far less
    for label, limits in (
        ("past a 0.5 s timeout", {"timeout": 0.5}),
        ("over a 256 MiB address-space cap", {"address_space": 256 << 20}),
    ):
        result = run.measure(workload, SEED, 0, False, refs, **limits)
        frac = len(result.failed) / result.attempted
        report(f"exact-oracle {label} counts as failed", frac > 0 and not result.reps,
               "; ".join(result.failed))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
