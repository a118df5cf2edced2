"""Tests for hosts, VMs, containers, and the datacenter."""

import pytest

from repro.cloudsim.nodes import (
    Datacenter,
    Host,
    NodeState,
    SoftwareComponent,
    VirtualMachine,
    measure,
)
from repro.core.errors import ConfigurationError, NotFoundError


def make_host(host_id="h1", cpus=8, memory_mb=16384):
    host = Host(host_id,
                bios=SoftwareComponent("bios", b"bios-v1"),
                hypervisor=SoftwareComponent("kvm", b"kvm-v4"),
                cpus=cpus, memory_mb=memory_mb)
    host.start()
    return host


def make_vm(vm_id="vm1", vcpus=2, memory_mb=4096):
    return VirtualMachine(
        vm_id,
        bios=SoftwareComponent("seabios", b"sb"),
        kernel=SoftwareComponent("linux", b"k5"),
        image=SoftwareComponent("ubuntu", b"u22"),
        vcpus=vcpus, memory_mb=memory_mb)


class TestMeasurement:
    def test_measure_is_deterministic(self):
        assert measure("x", b"abc") == measure("x", b"abc")

    def test_measure_depends_on_name_and_content(self):
        assert measure("x", b"abc") != measure("y", b"abc")
        assert measure("x", b"abc") != measure("x", b"abd")

    def test_component_measurement(self):
        component = SoftwareComponent("kernel", b"v5")
        assert component.measurement == measure("kernel", b"v5")


class TestHost:
    def test_launch_vm(self):
        host = make_host()
        vm = make_vm()
        host.launch_vm(vm)
        assert vm.state is NodeState.RUNNING
        assert host.available_vcpus() == 6

    def test_overcommit_cpu_rejected(self):
        host = make_host(cpus=2)
        with pytest.raises(ConfigurationError):
            host.launch_vm(make_vm(vcpus=4))

    def test_overcommit_memory_rejected(self):
        host = make_host(memory_mb=2048)
        with pytest.raises(ConfigurationError):
            host.launch_vm(make_vm(memory_mb=4096))

    def test_duplicate_vm_rejected(self):
        host = make_host()
        host.launch_vm(make_vm())
        with pytest.raises(ConfigurationError):
            host.launch_vm(make_vm())

    def test_stopped_host_rejects_vms(self):
        host = Host("h2", bios=SoftwareComponent("b", b"1"),
                    hypervisor=SoftwareComponent("h", b"1"))
        with pytest.raises(ConfigurationError):
            host.launch_vm(make_vm())

    def test_find_vm_missing(self):
        with pytest.raises(NotFoundError):
            make_host().find_vm("nope")


class TestVirtualMachine:
    def test_launch_container(self):
        host = make_host()
        vm = make_vm()
        host.launch_vm(vm)
        container = vm.launch_container("c1", SoftwareComponent("app", b"a1"))
        assert container.state is NodeState.RUNNING

    def test_container_on_stopped_vm_rejected(self):
        vm = make_vm()
        with pytest.raises(ConfigurationError):
            vm.launch_container("c1", SoftwareComponent("app", b"a1"))

    def test_duplicate_container_rejected(self):
        host = make_host()
        vm = make_vm()
        host.launch_vm(vm)
        vm.launch_container("c1", SoftwareComponent("app", b"a1"))
        with pytest.raises(ConfigurationError):
            vm.launch_container("c1", SoftwareComponent("app", b"a2"))

    def test_stop_vm_stops_containers(self):
        host = make_host()
        vm = make_vm()
        host.launch_vm(vm)
        container = vm.launch_container("c1", SoftwareComponent("app", b"a1"))
        vm.stop()
        assert container.state is NodeState.STOPPED


class TestDatacenter:
    def test_first_fit_picks_host_with_room(self):
        datacenter = Datacenter("dc1")
        small = make_host("small", cpus=2)
        big = make_host("big", cpus=32)
        datacenter.add_host(small)
        datacenter.add_host(big)
        small.launch_vm(make_vm("pre", vcpus=2))
        chosen = datacenter.first_fit(vcpus=4, memory_mb=4096)
        assert chosen.host_id == "big"

    def test_first_fit_no_room(self):
        datacenter = Datacenter("dc1")
        datacenter.add_host(make_host("only", cpus=1))
        with pytest.raises(ConfigurationError):
            datacenter.first_fit(vcpus=64, memory_mb=4096)

    def test_duplicate_host_rejected(self):
        datacenter = Datacenter("dc1")
        datacenter.add_host(make_host("h"))
        with pytest.raises(ConfigurationError):
            datacenter.add_host(make_host("h"))

    def test_all_vms(self):
        datacenter = Datacenter("dc1")
        host = make_host()
        datacenter.add_host(host)
        host.launch_vm(make_vm("v1"))
        host.launch_vm(make_vm("v2"))
        assert {vm.vm_id for vm in datacenter.all_vms()} == {"v1", "v2"}
