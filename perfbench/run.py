"""End-to-end benchmark of the Equalizer reproduction, from the HTTP
front end down to the cycle loop.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sweep,single-run,serve-hot,serve-miss}
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop driven from this one process; see
``perfbench/README.md`` for what each one runs, why it was chosen and
how every metric is defined.  ``--trace 0`` measures the end-to-end
metrics.  ``--trace 1`` replays the timed work once untraced and once
with spans recorded around every call into a layer, and reports the
per-layer metrics plus the tracing overhead.  Spans are written to
``.perfbench/out/``.

A human-readable report goes to stdout first; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 1 when an output check fails, 2 when the checkout
lacks the program, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
import time

import common
import serve_load
from common import ROOT, WORK_DIR, percentile
from tracing import OFF, Tracer

WORKLOADS = ("sweep", "single-run", "serve-hot", "serve-miss")

#: Repetitions per untraced in-process run, at least.
MIN_REPS = 2

#: Set-up samples per in-process run (repetitions plus set-up-only
#: interpreters); ``setup_s`` is their median.
SETUP_SAMPLES = 5

CHILD_TIMEOUT_S = 170.0


def _child(workload: str, extra=()) -> dict:
    """Run one repetition in a fresh interpreter; returns its JSON."""
    tmp = common.fresh_dir(f"{workload}-")
    try:
        t0 = time.monotonic()
        status, out = common.run_group(
            [sys.executable, str(ROOT / "perfbench" / "inproc.py"),
             workload, "--t0", repr(t0), "--tmp", tmp, *extra],
            CHILD_TIMEOUT_S)
    finally:
        common.remove_dir(tmp)
    lines = out.decode().strip().splitlines()
    if status != 0 or not lines:
        raise RuntimeError(f"{workload} repetition exited {status}")
    return json.loads(lines[-1])


def _spans_path(workload: str, seed: int) -> str:
    path = WORK_DIR / "out" / f"spans-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)


def run_inproc(workload: str, seed: int, seconds: int,
               traced: bool) -> dict:
    """``sweep`` and ``single-run``: repetitions in child interpreters.

    Both take fixed inputs; ``seed`` only names the span file.
    """
    if traced:
        # Untraced, traced, untraced: drift between repetitions cancels
        # out of the tracing overhead.
        reps = [_child(workload),
                _child(workload, ["--trace", "--spans",
                                  _spans_path(workload, seed)]),
                _child(workload)]
    else:
        # Repeat while another repetition still ends, on average, within
        # --seconds; at least MIN_REPS.
        reps = []
        start = time.monotonic()
        while True:
            reps.append(_child(workload))
            elapsed = time.monotonic() - start
            if (len(reps) >= MIN_REPS
                    and elapsed * (1 + 0.5 / len(reps)) >= seconds):
                break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, ["--setup-only"])["setup_s"])
    timed = reps[1:2] if traced else reps
    total_wall = sum(rep["wall_s"] for rep in timed)
    out = {
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "wall_s": total_wall / len(timed),
        "wall_samples": len(timed),
        "attempted": sum(rep["attempted"] for rep in timed),
        "failed": sum(rep["failed"] for rep in timed),
        # Each op (a job or a run) recurs in every repetition: its
        # latency is the mean over them, so one slow moment of the host
        # does not decide a percentile on its own.
        "latencies_ms": [statistics.fmean(op) for op in
                         zip(*(rep["latencies_ms"] for rep in timed))],
        "ticks": sum(rep["ticks"] for rep in timed),
        # single-run divides by host time inside the run_* calls only.
        "sim_s": sum(rep.get("sim_s", rep["wall_s"]) for rep in timed),
        "ops": sum(rep["ops"] for rep in timed),
        "ops_wall": total_wall,
        "checks": list(dict.fromkeys(c for rep in reps
                                     for c in rep["checks"])),
        "rss_kib": common.self_rss_kib(),
    }
    if traced:
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_share"] = (
            2 * reps[1]["wall_s"] / (reps[0]["wall_s"] + reps[2]["wall_s"])
            - 1.0)
        out["layers"] = layers
        out["self_s"] = reps[1]["self_s"]
    return out


def run_serve(workload: str, seed: int, seconds: int,
              traced: bool) -> dict:
    tracer = Tracer() if traced else OFF
    out = serve_load.run(workload, seed, seconds, tracer)
    phase_s = out["wall_s"]
    out["sim_s"] = out["ops_wall"] = phase_s
    # The unit of fixed work is serve_load.MIN_REQUESTS replies.
    out["wall_s"] = phase_s * serve_load.MIN_REQUESTS / max(1, out["ops"])
    out["wall_samples"] = 1
    if traced:
        tracer.write(_spans_path(workload, seed))
        out["self_s"] = tracer.self_times()
    return out


def end_to_end(res: dict) -> dict:
    """Metric name -> (value, sample count)."""
    lat = [min(x, common.FAILED_MS) for x in res["latencies_ms"]]
    return {
        "setup_s": (res["setup_s"], res["setup_samples"]),
        "wall_s": (res["wall_s"], res["wall_samples"]),
        "sim_ticks_per_s": (res["ticks"] / res["sim_s"],
                            res["wall_samples"]),
        "latency_p50_ms": (percentile(lat, 50), len(lat)),
        "latency_p90_ms": (percentile(lat, 90), len(lat)),
        "throughput_rps": (res["ops"] / res["ops_wall"],
                           res["wall_samples"]),
        "peak_rss_mb": (common.peak_rss_mb(res["rss_kib"]), 1),
    }


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_program()
    declared = load_declared()
    common.isolate_self()
    common.become_subreaper()
    runner = run_serve if args.workload.startswith("serve") \
        else run_inproc
    try:
        res = runner(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        common.reap_children()
        common.remove_dir(str(WORK_DIR / "tmp"))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    metrics = {}
    if args.trace:
        layers = res["layers"]
        for spec in declared["per_layer"]:
            value = layers.get(spec["name"], 0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:<36} {value:>16.6g} {spec['unit']}")
        print("  self time by span (s):")
        for name, value in sorted(res["self_s"].items()):
            print(f"    {name:<34} {value:>12.6f}")
        if args.workload == "single-run":
            share = (sum(layers.get(f"sim.run_s.{v}", 0) for v in
                         ("chip", "per-sm-vrm", "multikernel"))
                     / res["wall_s"])
            print(f"  sim.run_s.* cover {share:.4f} of wall_s")
    else:
        values = end_to_end(res)
        for spec in declared["end_to_end"]:
            value, n = values[spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:<18} {value:>14.6g} {spec['unit']:<8}"
                  f" n={n}")
    print(f"  requests/ops: sent {res['attempted']}  succeeded "
          f"{res['attempted'] - res['failed']}  failed {res['failed']}"
          f"  error_rate {res['failed'] / res['attempted']:.6f} fraction")
    checks = res["checks"]
    if checks:
        print(f"  output checks FAILED ({len(checks)}):")
        for line in checks[:20]:
            print(f"    {line}")
    else:
        print("  output checks passed")
    print(json.dumps({"correct": not checks,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 1 if checks else 0


if __name__ == "__main__":
    sys.exit(main())
