import dataclasses

import pytest

from repro.perf.costs import (
    DEFAULT_COSTS,
    DELL_R720,
    EC2_C4_2XLARGE,
    GCE_CUSTOM,
    CostModel,
)


class TestCostModel:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COSTS.native_syscall_ns = 1.0

    def test_scaled_multiplies_times(self):
        scaled = DEFAULT_COSTS.scaled(2.0)
        assert scaled.native_syscall_ns == DEFAULT_COSTS.native_syscall_ns * 2
        assert scaled.hypercall_ns == DEFAULT_COSTS.hypercall_ns * 2

    def test_scaled_preserves_counts_and_efficiencies(self):
        scaled = DEFAULT_COSTS.scaled(3.0)
        assert scaled.default_pt_pages == DEFAULT_COSTS.default_pt_pages
        assert scaled.xlibos_efficiency == DEFAULT_COSTS.xlibos_efficiency
        assert scaled.gvisor_efficiency == DEFAULT_COSTS.gvisor_efficiency

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.scaled(0.0)

    def test_calibration_orderings(self):
        """The mechanism-cost orderings every figure depends on."""
        c = DEFAULT_COSTS
        # Fig 4: function call << native << native+KPTI << Xen PV bounce
        # << gVisor ptrace.
        assert c.xc_func_call_syscall_ns < c.clear_guest_syscall_ns
        assert c.clear_guest_syscall_ns < c.native_syscall_ns
        assert (
            c.native_syscall_ns
            < c.native_syscall_ns + c.kpti_syscall_extra_ns
            < c.xen_pv_syscall_ns
            < c.gvisor_syscall_ns
        )
        # §5.4: X-Container syscalls avoid the hypervisor, so the forwarded
        # (unpatched) path must still beat the stock Xen PV bounce.
        assert c.xc_forwarded_syscall_ns < c.xen_pv_syscall_ns
        # §3.2: a dedicated tuned LibOS beats the shared kernel.
        assert c.xlibos_efficiency < c.shared_kernel_efficiency
        # §5.5: Rumprun loses to Linux on database-style work.
        assert c.rumprun_efficiency > c.xlibos_efficiency

    def test_spawn_constants_match_section_4_5(self):
        c = DEFAULT_COSTS
        assert c.xlibos_boot_ms == pytest.approx(180.0)
        assert c.xlibos_boot_ms + c.xl_toolstack_ms == pytest.approx(
            3000.0, rel=0.01
        )
        assert c.lightvm_toolstack_ms == pytest.approx(4.0)


class TestMachineSpec:
    def test_paper_machines(self):
        assert EC2_C4_2XLARGE.cores == 4
        assert EC2_C4_2XLARGE.threads == 8
        assert GCE_CUSTOM.memory_gb == 16.0
        assert DELL_R720.memory_gb == 96.0
        assert DELL_R720.threads == 32
