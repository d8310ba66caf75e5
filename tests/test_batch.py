"""Batch-of-runs tests: many runs in one sweep, each equal to its solo run.

A sweep is a batch of independent runs, and its contract is bit
identity: every run in it produces the exact
:class:`~repro.sim.results.RunResult` that a solo
:func:`~repro.sim.gpu.run_kernel` call would have produced, whatever
else ran beside it or before it.  The scalar chip loop is the only
chip loop, so the tests here pin that contract where a sweep meets it:

* golden digests -- the representative batch shapes of
  ``tests/data/batch_golden.json`` (captured when a lockstep batched
  backend still existed, whose lanes were bit-identical to solo runs)
  are reproduced run by run by the solo chip loop;
* fast-forward -- a run that takes the fast-forward fallback and the
  same run stepped cycle by cycle both match leaf-exactly;
* isolation -- a run's result does not depend on the runs that went
  before it in the same process;
* the engine -- empty and one-job plans, plan-ordered outcomes from a
  narrow pool, pooled results equal to inline ones, and a cache one
  engine fills that another replays as pure hits.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import cache_spec, compute_spec, memory_spec, tiny_sim
from repro.config import VF_HIGH, VF_LOW, VF_NORMAL
from repro.engine import Engine, as_jobs, make_controller
from repro.errors import EngineError
from repro.oracle.diff import diff_payloads
from repro.power.energy_model import compute_energy
from repro.sim.gpu import GPU, run_kernel
from repro.workloads import build_workload, kernel_by_name

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "batch_golden.json")

#: Controller keys of the golden sweep shape: one per controller
#: family, small enough to run on the tiny GPU.
SWEEP_KEYS = (
    ("baseline",),
    ("static", VF_HIGH, VF_NORMAL, None),
    ("static", VF_NORMAL, VF_LOW, None),
    ("static", VF_NORMAL, VF_NORMAL, 2),
    ("equalizer", "performance"),
    ("equalizer", "energy"),
    ("equalizer", "performance", "blocks-only"),
    ("dyncta",),
)


def _solo(spec, key=("baseline",), seed=7, fast_forward=True):
    """One run on the chip loop, on a fresh tiny GPU."""
    sim = tiny_sim()
    gpu = GPU(sim, controller=make_controller(key, sim.equalizer))
    gpu.enable_fast_forward = fast_forward
    result = gpu.run(build_workload(spec, seed=seed))
    return compute_energy(result, sim.power, sim.gpu)


def _reference(spec, key=("baseline",), seed=7):
    """The public solo entry point every other run is held to."""
    sim = tiny_sim()
    return run_kernel(build_workload(spec, seed=seed), sim,
                      controller=make_controller(key, sim.equalizer))


def _assert_leaf_exact(run, ref, label):
    diffs = diff_payloads(run.to_dict(), ref.to_dict(), "run", "solo")
    assert not diffs, f"{label}: run diverged from solo:\n" \
        + "\n".join(diffs)


def _ff_spec():
    """A spec whose run takes the fast-forward fallback.

    Long dependence stalls with little memory traffic leave whole-SM
    quiescent spans, which is exactly what the fast-forward scan skips.
    """
    return compute_spec(dep_latency=40, iterations=6)


# ----------------------------------------------------------------------
# Fast-forward
# ----------------------------------------------------------------------
def test_ff_spec_actually_takes_the_fallback():
    """The fast-forward tests below are vacuous unless this run really
    fast-forwards."""
    sim = tiny_sim()
    gpu = GPU(sim, controller=None)
    gpu.run(build_workload(_ff_spec(), seed=7))
    assert gpu.ff_events > 0


def test_divergent_and_lockstep_lanes_both_match_solo():
    """A run that skips quiescent spans and one stepped every cycle
    both match the solo reference, across controller families."""
    cases = [
        (_ff_spec(), ("baseline",)),
        (memory_spec(), ("equalizer", "performance")),
        (cache_spec(), ("static", VF_LOW, VF_NORMAL, None)),
    ]
    for spec, key in cases:
        ref = _reference(spec, key=key)
        _assert_leaf_exact(_solo(spec, key=key), ref,
                           f"{spec.name}/{key[0]}/ff")
        _assert_leaf_exact(_solo(spec, key=key, fast_forward=False),
                           ref, f"{spec.name}/{key[0]}/lockstep")


# ----------------------------------------------------------------------
# Isolation between runs in one process
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       chunk=st.sampled_from([0, 1, 3]))
@settings(max_examples=6, deadline=None)
def test_lane_identity_across_seeds_and_chunk_sizes(seed, chunk):
    """Any seed, after any number of unrelated runs in the same
    process: the run reproduces its solo result bit for bit, so no
    state leaks from one run of a sweep into the next."""
    spec = cache_spec(total_blocks=8, iterations=12)
    ref = _reference(spec, seed=seed)
    for i in range(chunk):
        _solo(_ff_spec(), key=SWEEP_KEYS[i % len(SWEEP_KEYS)],
              seed=seed + i + 1)
    _assert_leaf_exact(_reference(spec, seed=seed), ref,
                       f"seed={seed}/after {chunk} runs")
    _assert_leaf_exact(_solo(_ff_spec(), seed=seed, fast_forward=False),
                       _reference(_ff_spec(), seed=seed),
                       f"seed={seed}/no-ff")


# ----------------------------------------------------------------------
# Engine plans
# ----------------------------------------------------------------------
def _tiny_engine(tmp_path, name, **kwargs):
    return Engine(sim=tiny_sim(), scale=1.0,
                  cache_dir=str(tmp_path / name), **kwargs)


def _plan():
    keys = [("baseline",), ("equalizer", "performance"),
            ("static", VF_HIGH, VF_NORMAL, None), ("dyncta",)]
    return as_jobs([("cutcp", key) for key in keys]
                   + [("lbm", key) for key in keys[:2]])


def _engine_reference(job):
    """A job's solo result, computed without any engine."""
    sim = tiny_sim()
    workload = build_workload(kernel_by_name(job.kernel), scale=1.0,
                              seed=sim.seed)
    return run_kernel(workload, sim,
                      controller=make_controller(job.key, sim.equalizer))


def test_empty_batch_returns_empty_list(tmp_path):
    report = _tiny_engine(tmp_path, "empty").execute([])
    assert report.outcomes == []
    assert not report.failures and report.executed == 0


def test_single_lane_batch_matches_solo(tmp_path):
    eng = _tiny_engine(tmp_path, "one")
    job = _plan()[0]
    report = eng.execute([job])
    assert len(report.outcomes) == 1 and not report.failures
    _assert_leaf_exact(eng.run(job.kernel, job.key),
                       _engine_reference(job), "size-1")


def test_run_batch_rejects_degenerate_parameters(tmp_path):
    with pytest.raises(EngineError):
        _tiny_engine(tmp_path, "bad", jobs=0)
    with pytest.raises(EngineError):
        _tiny_engine(tmp_path, "bad", max_attempts=0)
    with pytest.raises(EngineError):
        _tiny_engine(tmp_path, "bad", timeout=0)


def test_results_in_lane_order_with_narrow_window(tmp_path):
    """Six jobs through a two-worker pool: submission order, finish
    order and the report's plan order are all decoupled."""
    plan = list(reversed(_plan()))
    eng = _tiny_engine(tmp_path, "window")
    report = eng.execute(plan, workers=2)
    assert not report.failures
    assert [o.job for o in report.outcomes] == plan
    for job in plan:
        _assert_leaf_exact(eng.run(job.kernel, job.key),
                           _engine_reference(job), job.label())


def test_engine_batched_results_equal_sequential(tmp_path):
    seq = _tiny_engine(tmp_path, "seq")
    pool = _tiny_engine(tmp_path, "pool")
    plan = _plan()
    seq_report = seq.execute(plan)
    pool_report = pool.execute(plan, workers=2)
    assert not seq_report.failures and not pool_report.failures
    assert all(o.source == "run" for o in seq_report.outcomes)
    assert all(o.source == "run" for o in pool_report.outcomes)
    for job in plan:
        _assert_leaf_exact(pool.run(job.kernel, job.key),
                           seq.run(job.kernel, job.key), job.label())


def test_engine_batch_populated_cache_replays_as_hits(tmp_path):
    """Pooled runs land in the content-addressed cache under the same
    digests a sequential engine computes, so a later sequential engine
    sees pure hits."""
    plan = _plan()
    report = _tiny_engine(tmp_path, "shared").execute(plan, workers=2)
    assert report.executed == len(plan)
    replay = _tiny_engine(tmp_path, "shared").execute(plan)
    assert replay.hits == len(plan)
    assert replay.executed == 0


_INLINE_PIDS = []


def _pid_recording_worker(kernel, key, scale, sim):
    from repro.engine import execute_job
    _INLINE_PIDS.append(os.getpid())
    return execute_job(kernel, key, scale, sim)


def test_engine_batch_size_one_is_sequential(tmp_path):
    """One worker runs every job inline, in the driver process."""
    del _INLINE_PIDS[:]
    eng = _tiny_engine(tmp_path, "one", jobs=1,
                       worker=_pid_recording_worker)
    report = eng.execute(_plan())
    assert not report.failures
    assert all(o.source == "run" for o in report.outcomes)
    assert _INLINE_PIDS == [os.getpid()] * len(_plan())


# ----------------------------------------------------------------------
# Golden digests of representative batch shapes
# ----------------------------------------------------------------------
def _golden_shapes():
    """name -> list of (spec, key, seed) runs, in lane order."""
    mixed = [(compute_spec(), ("baseline",), 7, True),
             (memory_spec(), ("equalizer", "energy"), 7, True),
             (_ff_spec(), ("baseline",), 7, False),
             (cache_spec(), ("ccws",), 11, True)]
    return {
        "solo-compute": [(compute_spec(), ("baseline",), 7, True)],
        "sweep-compute-8": [(compute_spec(), key, 7, True)
                            for key in SWEEP_KEYS],
        "mixed-windowed": mixed,
    }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _shape_payload(runs):
    return [_solo(spec, key=key, seed=seed,
                  fast_forward=ff).to_dict()
            for spec, key, seed, ff in runs]


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["shapes"]


@pytest.mark.parametrize("shape", sorted(_golden_shapes()))
def test_batch_golden_digests(shape):
    golden = _load_golden()[shape]
    payload = _shape_payload(_golden_shapes()[shape])
    assert len(payload) == golden["lanes"]
    ticks = [run["result"]["ticks"] for run in payload]
    assert ticks == golden["ticks"], (
        f"{shape}: per-run tick counts diverged from the golden "
        f"capture ({ticks} vs {golden['ticks']})")
    assert _digest(payload) == golden["digest"], (
        f"{shape}: payload diverged from the golden capture despite "
        f"matching ticks -- diff the run payloads field by field")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
