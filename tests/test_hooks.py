"""Hooks-axis equivalence tests: hook-bearing goldens + variant identity.

The hooks axis (``repro.sim.cycle_kernel``) compiles hook-free and
hook-bearing variants of every run loop and selects per run based on
whether a controller installs ``sm.hooks``.  These tests pin that
refactor to the pre-refactor behaviour:

* ``tests/data/cycle_kernel_hooks_golden.json`` holds digests of full
  ``RunResult`` payloads for the hook-bearing controllers (CCWS) and
  the occupancy-driving controller (DynCTA), captured on the
  pre-refactor code (single ``sm.hooks``-branching loop, GWDE method
  dispatch), seeded across two bench kernels.  Any behavioural drift in
  the hook-bearing compiled variants changes a digest.
* A leaf-exact property test asserts the hook-free compiled variant
  equals the method-path reference when no hooks are installed.
* Structural tests assert the hook-free generated sources carry zero
  ``sm.hooks`` branches and zero GWDE method dispatch.

Regenerate the golden file (only when a behaviour change is intended)
with ``PYTHONPATH=src:tests python tests/test_hooks.py``.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import cache_spec, compute_spec, tiny_sim
from repro.baselines.ccws import CCWSController
from repro.baselines.dyncta import DynCTAController
from repro.oracle.paths import _MethodDispatchSM
from repro.sim.gpu import GPU, run_kernel
from repro.workloads import build_workload, kernel_by_name

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "cycle_kernel_hooks_golden.json")
GOLDEN_SCALE = 0.1
HOOK_KERNELS = ("cutcp", "spmv")
HOOK_CONFIGS = ("chip-ccws", "chip-dyncta")


def _default_sim():
    from repro.experiments.common import default_sim
    return default_sim()


def _make_controller(config: str):
    if config == "chip-ccws":
        return CCWSController()
    if config == "chip-dyncta":
        return DynCTAController()
    raise ValueError(config)


def _run_payload(kernel: str, config: str) -> dict:
    """One deterministic hook-bearing run -> JSON-safe payload."""
    sim = _default_sim()
    workload = build_workload(kernel_by_name(kernel), seed=sim.seed,
                              scale=GOLDEN_SCALE)
    controller = _make_controller(config)
    run = run_kernel(workload, sim, controller=controller)
    decisions = [list(d) for d in getattr(controller, "decisions", [])]
    return {"run": run.to_dict(), "decisions": decisions}


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["kernels"]


@pytest.mark.parametrize("config", HOOK_CONFIGS)
@pytest.mark.parametrize("kernel", HOOK_KERNELS)
def test_hooks_golden_bit_identity(kernel, config):
    """Hook-bearing runs reproduce the pre-refactor digests."""
    golden = _load_golden()[kernel][config]
    payload = _run_payload(kernel, config)
    assert payload["run"]["result"]["ticks"] == golden["ticks"], (
        f"{kernel}/{config}: tick count diverged from the pre-refactor "
        f"capture ({payload['run']['result']['ticks']} vs "
        f"{golden['ticks']})")
    assert _digest(payload) == golden["digest"], (
        f"{kernel}/{config}: RunResult payload diverged from the "
        f"pre-refactor capture despite matching ticks")


# ----------------------------------------------------------------------
# Hook-free compiled variant == method-path reference (leaf-exact)
# ----------------------------------------------------------------------

class _HookFreeGPU(GPU):
    """Forces the hook-free compiled loop regardless of controller."""

    def _cycle_loop(self, workload):
        return self._loop_hook_free(workload)


class _MethodPathGPU(GPU):
    """The hand-written single-step reference loop (no compiled body).

    Mirrors :class:`repro.oracle.paths.MethodPathGPU`: every cycle
    steps ``SM.cycle_once`` / ``MemorySubsystem.cycle`` with no
    fast-forward, no idle parking, and the GWDE driven through its
    ``request``/``notify_done`` reference API (via ``sm_class``).
    """

    sm_class = _MethodDispatchSM

    def _cycle_loop(self, workload):
        from repro.errors import SimulationError
        start_tick = self.tick
        interval = self.sim.equalizer.sample_interval
        epoch_cycles = self.sim.equalizer.epoch_cycles
        max_ticks = self.sim.max_ticks
        sms = self.sms
        nsms = len(sms)
        sm_domain = self.sm_domain
        mem_domain = self.mem_domain
        memory = self.memory
        gwde = self.gwde
        while not gwde.drained or self.busy_sm_count:
            if self.tick >= max_ticks:
                raise SimulationError(
                    f"{workload.name}: exceeded max_ticks={max_ticks}")
            tick = self.tick + 1
            self.tick = tick
            n = sm_domain.advance()
            s = tick % nsms
            order = sms[s:] + sms[:s]
            for _ in range(n):
                for sm in order:
                    sm.cycle_once(interval)
            for _ in range(mem_domain.advance()):
                memory.cycle()
            while sm_domain.cycles >= self._next_epoch_cycle:
                self._handle_epoch()
                self._next_epoch_cycle += epoch_cycles
        ticks = self.tick - start_tick
        self._invocation_ticks.append(ticks)
        return ticks


@given(seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=6, deadline=None)
def test_hook_free_variant_matches_method_path(seed):
    """With no hooks installed, hook-free compiled == method reference."""
    spec = compute_spec(total_blocks=8, iterations=8)
    sim = tiny_sim()
    fast = _HookFreeGPU(sim)
    fast.enable_fast_forward = False
    ref = _MethodPathGPU(sim)
    run_fast = fast.run(build_workload(spec, seed=seed))
    run_ref = ref.run(build_workload(spec, seed=seed))
    assert run_fast.to_dict() == run_ref.to_dict()
    assert fast.tick == ref.tick


def test_hooked_run_selects_the_hook_bearing_loop():
    """Installing sm.hooks routes dispatch to the hook-bearing variant."""
    sim = tiny_sim()
    gpu = GPU(sim, controller=CCWSController())
    workload = build_workload(cache_spec(total_blocks=8, iterations=8),
                              seed=3)
    gpu.run(workload)
    assert all(sm.hooks is not None for sm in gpu.sms)
    # And an unhooked GPU takes the hook-free variant.
    plain = GPU(tiny_sim())
    assert plain._hooks_installed() is False


def test_hook_free_and_bearing_agree_without_hooks():
    """Both compiled variants are the same function when nothing hooks."""
    spec = cache_spec(total_blocks=8, iterations=10)
    runs = []
    for force in ("hook_free", "hook_bearing"):
        gpu = GPU(tiny_sim())
        loop = getattr(GPU, f"_loop_{force}")
        gpu._cycle_loop = loop.__get__(gpu, GPU)
        runs.append(gpu.run(build_workload(spec, seed=11)).to_dict())
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Structural: hook-free sources are branch-free, GWDE is inlined
# ----------------------------------------------------------------------

def test_hook_free_sources_carry_no_hook_branches():
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        if tag.endswith("@hooks") or spec["kind"] != "run-loop":
            continue
        source = cycle_kernel.render_source(spec["template"],
                                            spec.get("fragments"))
        assert "hooks" not in source, (
            f"{tag}: hook-free run loop still references hooks")


def test_no_gwde_method_dispatch_in_compiled_sources():
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        source = cycle_kernel.render_source(spec["template"],
                                            spec.get("fragments"))
        assert "gwde.request(" not in source, (
            f"{tag}: compiled source still calls GWDE.request")
        assert "notify_done(" not in source, (
            f"{tag}: compiled source still calls GWDE.notify_done")


def test_hook_bearing_tags_render_the_guarded_hook_site():
    from repro.sim import cycle_kernel
    for tag, spec in cycle_kernel.SPECIALIZATIONS.items():
        if not tag.endswith("@hooks"):
            continue
        source = cycle_kernel.render_source(spec["template"],
                                            spec.get("fragments"))
        assert "on_l1_miss" in source, (
            f"{tag}: hook-bearing variant lost its miss hook site")


def _build_golden() -> dict:
    golden = {}
    for kernel in HOOK_KERNELS:
        golden[kernel] = {}
        for config in HOOK_CONFIGS:
            payload = _run_payload(kernel, config)
            golden[kernel][config] = {
                "ticks": payload["run"]["result"]["ticks"],
                "energy_j": payload["run"]["energy_j"],
                "digest": _digest(payload),
            }
            print(f"{kernel:<8} {config:<14} "
                  f"ticks={golden[kernel][config]['ticks']:>7} "
                  f"{golden[kernel][config]['digest'][:16]}")
    return golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"format": 1, "scale": GOLDEN_SCALE,
                   "kernels": _build_golden()}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
