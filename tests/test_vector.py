"""Chip-loop equivalence tests: the compiled loop against its references.

The scalar chip loop is the only chip loop -- the vectorized busy-slot
backend this file once covered measured at 0.91-0.99x of it and was
removed together with numpy.  The contract it was held to still binds
the loop that remains: a run of the fused, compiled chip loop produces
the exact :class:`~repro.sim.results.RunResult` -- every leaf,
including epoch records and the energy breakdown -- of the oracle's
method-path reference (:class:`~repro.oracle.paths.MethodPathGPU`,
every cycle through ``SM.cycle_once``, no fast-forward, no parking),
and consumes each warp's private RNG stream at exactly the same
points.  The tests pin that contract from these angles:

* leaf-exact equality across the behavioural corners (compute, memory,
  cache) and across random seeds, sample intervals, epoch lengths and
  dependence latencies;
* RNG-stream positions at every epoch boundary -- not just final
  results -- via a recording controller, so a loop that reorders or
  elides ``next_op`` draws is caught at the first epoch it desyncs;
* the incremental-counter invariant (``debug_counters`` re-derives
  active/waiting from a full scan) and fast-forward invisibility;
* no numpy: no source file imports it, and the simulator runs with
  numpy made unimportable;
* the cycle-kernel lints the CI greps mirror: no scalar per-warp wake
  loops and no ``memory.cycle()`` method fallback in any compiled
  run loop.
"""

import inspect
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (cache_spec, compute_spec, memory_spec,
                     tiny_equalizer, tiny_sim)
from repro.core.controller import Controller
from repro.oracle.diff import diff_payloads
from repro.oracle.paths import MethodPathGPU
from repro.power.energy_model import compute_energy
from repro.sim.gpu import GPU, run_kernel
from repro.workloads import build_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _run(cls, spec, sim=None, seed=7, controller=None,
         debug_counters=False, fast_forward=True):
    if sim is None:
        sim = tiny_sim()
    gpu = cls(sim, controller=controller)
    gpu.enable_fast_forward = fast_forward
    if debug_counters:
        for sm in gpu.sms:
            sm.debug_counters = True
    result = gpu.run(build_workload(spec, seed=seed))
    return compute_energy(result, sim.power, sim.gpu)


def _assert_leaf_exact(fused_run, reference_run, label):
    diffs = diff_payloads(fused_run.to_dict(), reference_run.to_dict(),
                          "fused", "reference")
    assert not diffs, f"{label}: fused chip loop diverged:\n" \
        + "\n".join(diffs)


# ----------------------------------------------------------------------
# Leaf-exact equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec_factory", [compute_spec, memory_spec,
                                          cache_spec])
def test_vector_matches_scalar_leaf_exact(spec_factory):
    _assert_leaf_exact(_run(GPU, spec_factory()),
                       _run(MethodPathGPU, spec_factory()),
                       spec_factory.__name__)


def test_vector_matches_scalar_with_debug_counters():
    """With ``debug_counters`` on, every counter update is checked
    against a full warp scan (raising on mismatch), and the checks
    themselves leave the result untouched."""
    _assert_leaf_exact(_run(GPU, compute_spec(), debug_counters=True),
                       _run(GPU, compute_spec()),
                       "debug-counters")


def test_vector_matches_scalar_without_fast_forward():
    """With chip fast-forward off, every quiescent span is stepped
    cycle by cycle; the result must not change."""
    _assert_leaf_exact(_run(GPU, compute_spec(), fast_forward=False),
                       _run(MethodPathGPU, compute_spec()),
                       "no-ff")


@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       interval=st.sampled_from([4, 16, 64]),
       epoch_cycles=st.sampled_from([64, 256, 1024]),
       dep=st.sampled_from([1, 3, 17]))
@settings(max_examples=10, deadline=None)
def test_vector_identity_across_configs(seed, interval, epoch_cycles,
                                        dep):
    """Any seed, any sampling/epoch geometry, any dependence latency:
    the fused loop reproduces the method path bit for bit."""
    spec = compute_spec(dep_latency=dep, total_blocks=6, iterations=8)
    sim1 = tiny_sim(equalizer=tiny_equalizer(
        sample_interval=interval, epoch_cycles=epoch_cycles))
    sim2 = tiny_sim(equalizer=tiny_equalizer(
        sample_interval=interval, epoch_cycles=epoch_cycles))
    _assert_leaf_exact(
        _run(GPU, spec, sim=sim1, seed=seed),
        _run(MethodPathGPU, spec, sim=sim2, seed=seed),
        f"seed={seed}/i{interval}/e{epoch_cycles}/d{dep}")


# ----------------------------------------------------------------------
# RNG stream position at every epoch boundary
# ----------------------------------------------------------------------
class _RNGRecorder(Controller):
    """Snapshots every resident warp's private RNG state per epoch."""

    def __init__(self):
        self.epochs = []

    def on_epoch(self, gpu, per_sm):
        snap = {}
        for sm in gpu.sms:
            for block in sm.blocks:
                for w in block.warps:
                    key = (sm.sm_id, block.bid, w.wid)
                    snap[key] = w.program._rng.getstate()
        self.epochs.append(snap)


def test_rng_streams_aligned_at_every_epoch():
    """A loop that consumed draws early, late, or in the wrong warp
    order desyncs some stream *mid-run*; comparing per-warp RNG states
    at every epoch boundary catches it at the first divergence, not
    just in the final result."""
    spec = compute_spec(total_blocks=6, iterations=12)
    rec_f, rec_m = _RNGRecorder(), _RNGRecorder()
    _run(GPU, spec, controller=rec_f)
    _run(MethodPathGPU, spec, controller=rec_m)
    assert len(rec_f.epochs) == len(rec_m.epochs) > 0
    for i, (ef, em) in enumerate(zip(rec_f.epochs, rec_m.epochs)):
        assert ef == em, (
            f"per-warp RNG streams diverged at epoch {i}: "
            f"{sorted(k for k in ef if ef[k] != em.get(k))[:4]}")


# ----------------------------------------------------------------------
# Dispatch and numpy
# ----------------------------------------------------------------------
def test_default_gpu_class_degrades_without_numpy():
    """With numpy made unimportable, the simulator still runs: a fresh
    interpreter blocks the import and runs a tiny kernel end to end."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from helpers import compute_spec, tiny_sim\n"
            "from repro.sim.gpu import run_kernel\n"
            "from repro.workloads import build_workload\n"
            "run = run_kernel(build_workload(compute_spec(), seed=7), "
            "tiny_sim())\n"
            "print(run.result.ticks)\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, tests_dir]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.strip()) == \
        _run(GPU, compute_spec()).result.ticks


def test_run_kernel_gpu_class_override_forces_scalar():
    """run_kernel always runs the scalar chip loop: it takes no backend
    switch and equals a plain ``GPU.run`` plus the energy model."""
    assert "gpu_class" not in inspect.signature(run_kernel).parameters
    sim = tiny_sim()
    run = run_kernel(build_workload(compute_spec(), seed=7), sim)
    _assert_leaf_exact(run, _run(GPU, compute_spec()), "run_kernel")


def test_vector_without_numpy_is_the_chip_loop():
    """No module under ``src/`` imports numpy, lazily or otherwise --
    the cold-start guard only sees import-time loads."""
    pattern = re.compile(r"^\s*(import|from)\s+numpy\b", re.M)
    offenders = []
    for root, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    if pattern.search(f.read()):
                        offenders.append(os.path.relpath(path, SRC))
    assert not offenders, offenders


# ----------------------------------------------------------------------
# Cycle-kernel lints the CI greps mirror
# ----------------------------------------------------------------------
def test_no_per_warp_python_loops_in_cycle_kernel():
    """Busy-slot work in the compiled loops is the shared scalar body;
    nobody reintroduces per-warp python loops into the kernel file."""
    from repro.sim import cycle_kernel
    with open(cycle_kernel.__file__) as f:
        assert "for warp in" not in f.read()


def test_no_memory_cycle_method_fallback_in_run_loops():
    """Every run-loop specialization advances the memory domain
    through the inlined rate-generic fragment; the ``memory.cycle()``
    method call survives only in the oracle's method paths."""
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        if spec["kind"] != "run-loop":
            continue
        src = cycle_kernel.render_source(spec["template"])
        assert "memory.cycle()" not in src, tag


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
