"""One repetition of an in-process workload, in a fresh interpreter.

Usage::

    python3 perfbench/inproc.py {sweep,single-run} --t0 T --tmp DIR
        [--setup-only] [--trace] [--spans PATH] [--record]

``--t0`` is run.py's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s``
covers interpreter start, imports and planning.  The repetition
prints one JSON object on its last stdout line.  ``--record`` rewrites
``expected_single_run.json`` from the current code instead of
checking against it.
"""

import argparse
import json
import time
import traceback

import common
from common import ROOT, WORKERS
from tracing import OFF, Tracer

#: The bench kernels: one per behavioural corner of the simulator.
SINGLE_RUN_KERNELS = ("cutcp", "lbm", "spmv", "leuko-1")
SINGLE_RUN_SCALE = 0.5
SINGLE_RUN_VARIANTS = ("chip", "per-sm-vrm", "multikernel")
EXPECTED_PATH = ROOT / "perfbench" / "expected_single_run.json"


class TimedController:
    """Delegating controller wrapper that times each ``on_epoch``."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def on_epoch(self, gpu, per_sm) -> None:
        with self._tracer.span("core.on_epoch"):
            self._inner.on_epoch(gpu, per_sm)


def sweep(args, tracer, t0: float) -> dict:
    from repro.engine import Engine, check
    from repro.experiments.common import RunCache, default_sim

    reference = check.load_reference(str(ROOT / "results"
                                         / "reference.json"))
    kernels = reference["kernels"]
    engine = Engine(sim=default_sim(), scale=reference["scale"],
                    jobs=WORKERS, cache_dir=f"{args.tmp}/cache")
    cache = RunCache(engine=engine)
    plan = check.guard_jobs(kernels=kernels, sim=cache.sim)
    setup_s = time.monotonic() - t0
    if args.setup_only:
        return {"setup_s": setup_s}

    # Traced runs time every disk cache write the engine makes in this
    # process, one per finished job.
    puts = []
    if tracer.enabled:
        real_put = engine.disk.put

        def put(digest, job, scale, result, seconds):
            start = time.perf_counter()
            with tracer.span("engine.cache_put", request=digest):
                real_put(digest, job, scale, result, seconds)
            puts.append(time.perf_counter() - start)

        engine.disk.put = put
    start = time.perf_counter()
    with tracer.span("engine.execute"):
        report = cache.execute(plan)
    executed = time.perf_counter()
    with tracer.span("experiments.render"):
        measured = check.reference_metrics(cache, kernels)
    rendered = time.perf_counter()
    with tracer.span("check.compare"):
        problems = check.compare(measured, reference["metrics"],
                                 check.DEFAULT_TOLERANCE)
    wall = time.perf_counter() - start

    checks = [f"sweep: {p}" for p in problems]
    for outcome in report.failures:
        checks.append(f"sweep: job {outcome.job.label()} failed")
    # A job's latency is its run time in the worker, as the engine
    # reports it.
    latencies = [o.seconds * 1e3 if o.ok else float("inf")
                 for o in report.outcomes]
    busy = sum(o.seconds for o in report.outcomes)
    execute_s = executed - start
    disk = engine.disk
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "attempted": len(plan),
        "failed": len(report.failures),
        "latencies_ms": latencies,
        "ticks": sum(engine.lookup(o.job)[0].ticks
                     for o in report.outcomes if o.ok),
        "ops": len(plan) - len(report.failures),
        "checks": checks,
        "layers": {
            "engine.execute_s": execute_s,
            "engine.worker_busy_s": busy,
            "engine.slot_idle_share": 1.0 - busy / (WORKERS * execute_s),
            "engine.jobs_run": report.executed,
            "engine.attempts": sum(o.attempts for o in report.outcomes),
            "engine.cache_put_s": sum(puts),
            "engine.cache_puts": len(puts),
            "engine.cache_bytes": disk.stats()["bytes"] if disk else 0,
            "experiments.render_s": rendered - executed,
        },
    }


def single_run(args, tracer, t0: float) -> dict:
    from repro.experiments.common import default_sim
    from repro.power.energy_model import compute_energy

    sim = default_sim()
    setup_s = time.monotonic() - t0
    if args.setup_only:
        return {"setup_s": setup_s}

    outputs = {}
    latencies = []
    failed = []
    build_s = energy_s = 0.0
    start = time.perf_counter()
    for kernel in SINGLE_RUN_KERNELS:
        for variant in SINGLE_RUN_VARIANTS:
            name = f"{variant}.{kernel}"
            b0 = time.perf_counter()
            with tracer.span("workloads.build", request=name):
                workload = _build(variant, kernel, sim)
            build_s += time.perf_counter() - b0
            controller = _controller(variant, sim)
            if tracer.enabled and controller is not None:
                controller = TimedController(controller, tracer)
            r0 = time.perf_counter()
            try:
                with tracer.span(f"sim.run.{variant}", request=name):
                    run = _run(variant, workload, sim, controller)
            except Exception:
                traceback.print_exc()
                failed.append(name)
                latencies.append(float("inf"))
                continue
            elapsed = time.perf_counter() - r0
            latencies.append(elapsed * 1e3)
            if tracer.enabled:
                e0 = time.perf_counter()
                with tracer.span("power.energy", request=name):
                    compute_energy(run.result, sim.power, sim.gpu)
                energy_s += time.perf_counter() - e0
            outputs[name] = {"ticks": run.result.ticks,
                             "instructions": run.result.instructions,
                             "energy_j": run.energy_j,
                             "run_s": elapsed}
    wall = time.perf_counter() - start

    recorded = {name: {k: v for k, v in out.items() if k != "run_s"}
                for name, out in outputs.items()}
    if args.record:
        with open(EXPECTED_PATH, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    with open(EXPECTED_PATH) as f:
        expected = json.load(f)
    checks = [f"single-run {name}: got {recorded.get(name)}, expected "
              f"{expected.get(name)}"
              for name in sorted(set(expected) | set(recorded))
              if expected.get(name) != recorded.get(name)]
    layers = {} if failed else _single_run_layers(outputs)
    layers["workloads.build_s"] = build_s
    layers["power.energy_s"] = energy_s
    if tracer.enabled:
        layers["core.on_epoch_s"] = tracer.total("core.on_epoch")
        layers["core.epochs"] = tracer.count("core.on_epoch")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "attempted": len(latencies),
        "failed": len(failed),
        "latencies_ms": latencies,
        "ticks": sum(out["ticks"] for out in outputs.values()),
        "sim_s": sum(out["run_s"] for out in outputs.values()),
        "ops": len(outputs),
        "checks": checks,
        "layers": layers,
    }


def _build(variant: str, kernel: str, sim):
    from repro.sim.multikernel import bench_coschedule
    from repro.workloads import build_workload, kernel_by_name

    if variant == "multikernel":
        return bench_coschedule(kernel, sim.gpu.sm_count,
                                scale=SINGLE_RUN_SCALE, seed=sim.seed)
    return build_workload(kernel_by_name(kernel).scaled(SINGLE_RUN_SCALE),
                          seed=sim.seed)


def _controller(variant: str, sim):
    from repro.engine.jobs import make_controller
    from repro.sim import PerSMEqualizerController

    if variant == "chip":
        return make_controller(("equalizer", "performance"),
                               sim.equalizer)
    if variant == "per-sm-vrm":
        return PerSMEqualizerController("performance",
                                        config=sim.equalizer)
    return None


def _run(variant: str, workload, sim, controller):
    from repro.sim import run_kernel, run_kernel_per_sm_vrm

    if variant == "per-sm-vrm":
        return run_kernel_per_sm_vrm(workload, sim, controller)
    return run_kernel(workload, sim, controller=controller)


def _single_run_layers(outputs: dict) -> dict:
    """``repro.sim`` metrics of one complete set of runs."""
    layers = {}
    for variant in SINGLE_RUN_VARIANTS:
        names = [f"{variant}.{k}" for k in SINGLE_RUN_KERNELS]
        run_s = sum(outputs[n]["run_s"] for n in names)
        layers[f"sim.run_s.{variant}"] = run_s
        layers[f"sim.ns_per_inst.{variant}"] = (
            1e9 * run_s / sum(outputs[n]["instructions"] for n in names))
    for kernel in SINGLE_RUN_KERNELS:
        names = [f"{v}.{kernel}" for v in SINGLE_RUN_VARIANTS]
        layers[f"sim.ticks_per_s.{kernel}"] = (
            sum(outputs[n]["ticks"] for n in names)
            / sum(outputs[n]["run_s"] for n in names))
    for name, out in outputs.items():
        for field in ("ticks", "instructions", "energy_j"):
            layers[f"sim.{field}.{name}"] = out[field]
    return layers


WORKLOADS = {"sweep": sweep, "single-run": single_run}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    common.isolate_self()
    tracer = Tracer() if args.trace else OFF
    out = WORKLOADS[args.workload](args, tracer, args.t0)
    if args.trace:
        out["self_s"] = tracer.self_times()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
