"""The repo's one benchmark: four workloads, end-to-end and per-layer metrics.

Suite command (what a person runs)::

    python benchmarks/suite/run.py [--workload NAME] [--seed N] [--smoke]
                                   [--out FILE] [--spans-out FILE]

builds each workload's stack in a fresh interpreter, runs it untraced for the
end-to-end metrics, runs it again traced for the per-layer metrics and the
latency budget, checks the answers, and prints every metric by name with its
unit. It exits non-zero when a correctness check fails or a workload does not
stress what it claims to.

Driver command (what ``BENCHMARK.json`` names)::

    python benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once in this interpreter and prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

# Before numpy is imported anywhere: one BLAS thread, build cache off.
os.environ.update(spec.ENVIRONMENT)


def _import_program():
    """Put the checkout's ``src`` on the path; the program is built from source."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmark needs the program's sources at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import harness
    import workloads

    return harness, workloads


# -- one workload, in this interpreter --------------------------------------------
def run_workload(name: str, seed: int, seconds: float, *, traced: bool, smoke: bool,
                 spans_out: str | None = None) -> dict:
    harness, workloads = _import_program()
    harness.check_thread_budget()
    wl = workloads.REGISTRY[name](seed, seconds, traced=traced, smoke=smoke)
    clock = harness.time.perf_counter
    setups = []

    def timed_setup() -> None:
        t0 = clock()
        wl.setup()
        setups.append(clock() - t0)

    try:
        timed_setup()
        if traced:
            wl.instrument()
        wl.warmup()
        wl.measure()
        wl.score()
        if traced:
            wl.layers()
        # The other set-up repeats run after the measured phase: the box's
        # slow spells last seconds, so back-to-back repeats would share one.
        for _ in range(wl.sz["setup_repeats"] - 1):
            wl.close()
            timed_setup()
        # At reference machine speed, like every other CPU-side timing. The
        # probe cannot run inside a set-up, and a handful of probes around one
        # is a 10 ms sample that any burst on the host doubles, so the factor
        # is the whole run's: the median of the measured phase's probes.
        wl.put("setup_s", harness.median(setups) / wl.speed.run_factor(), len(setups))
        wl.pooled["setup_s"] = setups
        wl.put("rss_peak_mb", harness.rss_peak_mb())
    finally:
        wl.close()

    wanted = spec.PER_LAYER if traced else spec.END_TO_END
    defined = [m["name"] for m in wanted if not traced or name in m["on"]]
    missing = [n for n in defined if n not in wl.metrics]
    if missing:
        raise SystemExit(f"{name}: not measured: {missing}")
    # A layer that did no work on this workload reads 0.
    metrics = {
        m["name"]: {"value": wl.metrics[m["name"]] if m["name"] in defined else 0.0,
                    "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": wl.checks.correct,
        "attempted": max(int(wl.attempted), 1),
        "failed": int(wl.failed),
        "metrics": metrics,
    }
    detail = {
        "provenance": harness.provenance(name, seed, wl.sz)
        | {"seconds": seconds, "traced": traced, "smoke": smoke},
        "samples": wl.samples,
        "pooled": wl.pooled,
        "checks": wl.checks.rows,
        "budgets": wl.budgets,
        "defined": defined,
    }
    if spans_out and traced:
        Path(spans_out).write_text(
            json.dumps({"workload": name, "seed": seed,
                        "spans": [s.to_dict() for s in wl.rec.spans]}) + "\n")
        detail["spans_file"] = spans_out
        detail["spans"] = len(wl.rec.spans)
    return {"result": result, "detail": detail}


# -- the suite: fresh interpreter per workload and mode -----------------------------
def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool,
           spans_out: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--detail"]
    if smoke:
        cmd.append("--smoke")
    if spans_out and trace:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} (trace={trace}) exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def _spans_path(base: str | None, name: str, several: bool) -> str | None:
    if base is None or not several:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def _print_workload(name: str, untraced: dict, traced: dict) -> None:
    print(f"\n== {name}: {spec.WORKLOADS[name]}")
    for title, run, catalogue in (("end-to-end (untraced run)", untraced, spec.END_TO_END),
                                  ("per-layer (traced run)", traced, spec.PER_LAYER)):
        print(f"  -- {title}: attempted {run['result']['attempted']}, "
              f"failed {run['result']['failed']}")
        samples = run["detail"]["samples"]
        for m in catalogue:
            if m["name"] not in run["detail"]["defined"]:
                continue
            got = run["result"]["metrics"][m["name"]]
            n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
            print(f"  {m['name']:48s} {got['value']:14.4f} {got['unit']}{n}")
    for title, budget in traced["detail"]["budgets"].items():
        print(f"  -- latency budget [{title}], {budget['unit']}; rows sum "
              f"{budget['sum']:.3f} vs traced {budget['reference']:.3f}")
        for row, value in budget["rows"]:
            share = 100 * value / budget["sum"] if budget["sum"] else 0.0
            print(f"  {row:48s} {value:14.4f} {share:5.1f} %")
    for run in (untraced, traced):
        for check in run["detail"]["checks"]:
            if not check["ok"]:
                kind = "FAILED" if _fails_suite(check) else "warning"
                print(f"  {kind}: {check['name']}: {check['detail']}")


def _fails_suite(check: dict) -> bool:
    """The suite command also fails on a workload that does not stress what it
    claims; the driver command (one run on a shared box) only reports that."""
    return not check["ok"] and (check["hard"] or check["name"] == "claim")


def run_suite(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    seconds = args.seconds or (spec.SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS)
    report = {"smoke": args.smoke, "seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        untraced = _child(name, args.seed, seconds, 0, args.smoke, None)
        traced = _child(name, args.seed, seconds, 1, args.smoke,
                        _spans_path(args.spans_out, name, len(names) > 1))
        _print_workload(name, untraced, traced)
        checks = untraced["detail"]["checks"] + traced["detail"]["checks"]
        correct = not any(_fails_suite(check) for check in checks)
        ok = ok and correct
        report["workloads"][name] = {
            "provenance": untraced["detail"]["provenance"],
            "correct": correct,
            "attempted": untraced["result"]["attempted"],
            "failed": untraced["result"]["failed"],
            "end_to_end": untraced["result"]["metrics"],
            "per_layer": {k: v for k, v in traced["result"]["metrics"].items()
                          if k in traced["detail"]["defined"]},
            "samples": untraced["detail"]["samples"] | traced["detail"]["samples"],
            "budgets": traced["detail"]["budgets"],
            "checks": checks,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    print("\nall correctness checks passed" if ok else "\nCORRECTNESS CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: run once, untraced (0) or traced (1)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 sizes, schema and oracle checks only")
    parser.add_argument("--out", help="suite mode: write every metric, budget and check here")
    parser.add_argument("--spans-out", help="write the traced run's spans here "
                        "(suite mode with several workloads: FILE.<workload>.json)")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.trace is None:
        return run_suite(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    out = run_workload(args.workload, args.seed, args.seconds, traced=bool(args.trace),
                       smoke=args.smoke, spans_out=args.spans_out)
    result = out["result"]
    for check in out["detail"]["checks"]:
        if not check["ok"]:
            print(f"{'FAILED' if check['hard'] else 'warning'}: {check['name']}: {check['detail']}",
                  file=sys.stderr)
    print(json.dumps(out if args.detail else result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
