"""Tests for the key management system."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.errors import (
    AuthorizationError,
    KeyManagementError,
    NotFoundError,
)
from repro.crypto.kms import KeyManagementService, KeyState, KmsFleet


@pytest.fixture
def kms():
    return KeyManagementService("tenant-a", seed=5)


class TestKeyLifecycle:
    def test_create_and_describe(self, kms):
        key_id = kms.create_key("phi")
        state, version, purpose = kms.describe_key(key_id)
        assert state is KeyState.ENABLED
        assert version == 1
        assert purpose == "phi"

    def test_unknown_key(self, kms):
        with pytest.raises(NotFoundError):
            kms.describe_key("key-nope")

    def test_disable_blocks_use(self, kms):
        key_id = kms.create_key("phi")
        kms.disable_key(key_id)
        with pytest.raises(KeyManagementError):
            kms.generate_data_key(key_id, "svc")

    def test_enable_restores(self, kms):
        key_id = kms.create_key("phi")
        kms.disable_key(key_id)
        kms.enable_key(key_id)
        assert kms.generate_data_key(key_id, "svc").plaintext

    def test_destroyed_key_cannot_be_enabled(self, kms):
        key_id = kms.create_key("phi")
        kms.destroy_key(key_id)
        with pytest.raises(KeyManagementError):
            kms.enable_key(key_id)

    def test_keys_for_purpose_excludes_destroyed(self, kms):
        keep = kms.create_key("phi")
        gone = kms.create_key("phi")
        kms.destroy_key(gone)
        assert kms.keys_for_purpose("phi") == [keep]


class TestEnvelope:
    def test_data_key_roundtrip(self, kms):
        key_id = kms.create_key("phi")
        data_key = kms.generate_data_key(key_id, "svc")
        recovered = kms.unwrap_data_key(key_id, data_key.wrapped, "svc")
        assert recovered == data_key.plaintext

    def test_data_keys_unique(self, kms):
        key_id = kms.create_key("phi")
        k1 = kms.generate_data_key(key_id, "svc")
        k2 = kms.generate_data_key(key_id, "svc")
        assert k1.plaintext != k2.plaintext

    def test_rotation_keeps_old_versions_unwrappable(self, kms):
        key_id = kms.create_key("phi")
        old = kms.generate_data_key(key_id, "svc")
        new_version = kms.rotate_key(key_id)
        assert new_version == 2
        recovered = kms.unwrap_data_key(key_id, old.wrapped, "svc",
                                        key_version=old.key_version)
        assert recovered == old.plaintext

    def test_rotation_changes_wrapping(self, kms):
        key_id = kms.create_key("phi")
        old = kms.generate_data_key(key_id, "svc")
        kms.rotate_key(key_id)
        new = kms.generate_data_key(key_id, "svc")
        assert new.key_version == 2
        assert old.key_version == 1

    def test_missing_version_rejected(self, kms):
        key_id = kms.create_key("phi")
        data_key = kms.generate_data_key(key_id, "svc")
        with pytest.raises(KeyManagementError):
            kms.unwrap_data_key(key_id, data_key.wrapped, "svc",
                                key_version=9)


class TestCryptoDeletion:
    def test_destroy_makes_unwrap_impossible(self, kms):
        key_id = kms.create_key("phi")
        data_key = kms.generate_data_key(key_id, "svc")
        kms.destroy_key(key_id)
        with pytest.raises(KeyManagementError):
            kms.unwrap_data_key(key_id, data_key.wrapped, "svc")

    def test_destroy_erases_all_versions(self, kms):
        key_id = kms.create_key("phi")
        old = kms.generate_data_key(key_id, "svc")
        kms.rotate_key(key_id)
        kms.destroy_key(key_id)
        with pytest.raises(KeyManagementError):
            kms.unwrap_data_key(key_id, old.wrapped, "svc",
                                key_version=old.key_version)


class TestAccessControl:
    def test_principal_allowlist_enforced(self, kms):
        key_id = kms.create_key("phi", allowed_principals={"lake"})
        assert kms.generate_data_key(key_id, "lake")
        with pytest.raises(AuthorizationError):
            kms.generate_data_key(key_id, "intruder")

    def test_grant_and_revoke(self, kms):
        key_id = kms.create_key("phi", allowed_principals={"lake"})
        kms.grant(key_id, "analytics")
        assert kms.generate_data_key(key_id, "analytics")
        kms.revoke(key_id, "analytics")
        with pytest.raises(AuthorizationError):
            kms.generate_data_key(key_id, "analytics")

    def test_empty_allowlist_is_open(self, kms):
        key_id = kms.create_key("phi")
        assert kms.generate_data_key(key_id, "anyone")


class TestKmsFleet:
    def test_one_instance_per_tenant(self):
        fleet = KmsFleet(seed=1)
        a = fleet.for_tenant("tenant-a")
        assert fleet.for_tenant("tenant-a") is a
        assert fleet.for_tenant("tenant-b") is not a
        assert fleet.tenants() == ["tenant-a", "tenant-b"]

    def test_tenant_isolation(self):
        fleet = KmsFleet(seed=2)
        kms_a = fleet.for_tenant("a")
        kms_b = fleet.for_tenant("b")
        key_a = kms_a.create_key("phi")
        # B's KMS cannot resolve A's key id at all.
        with pytest.raises(NotFoundError):
            kms_b.describe_key(key_a)

    def test_key_material_differs_across_tenants(self):
        fleet = KmsFleet(seed=3)
        key_a = fleet.for_tenant("a").create_key("phi")
        key_b = fleet.for_tenant("b").create_key("phi")
        data_a = fleet.for_tenant("a").generate_data_key(key_a, "svc")
        data_b = fleet.for_tenant("b").generate_data_key(key_b, "svc")
        assert data_a.plaintext != data_b.plaintext

    def test_offboarding_destroys_only_that_tenant(self):
        fleet = KmsFleet(seed=4)
        kms_a = fleet.for_tenant("a")
        kms_b = fleet.for_tenant("b")
        key_a = kms_a.create_key("phi")
        data_a = kms_a.generate_data_key(key_a, "svc")
        key_b = kms_b.create_key("phi")
        data_b = kms_b.generate_data_key(key_b, "svc")
        assert fleet.offboard_tenant("a") == 1
        with pytest.raises(KeyManagementError):
            kms_a.unwrap_data_key(key_a, data_a.wrapped, "svc")
        # Tenant B is untouched.
        assert kms_b.unwrap_data_key(key_b, data_b.wrapped,
                                     "svc") == data_b.plaintext

    def test_offboard_unknown_tenant(self):
        assert KmsFleet().offboard_tenant("ghost") == 0

    def test_tenant_keys_do_not_change_between_processes(self):
        # ``hash()`` of a string is salted per process, so a tenant seed
        # built from it gave one tenant different keys in every process.
        source_root = str(Path(repro.__file__).resolve().parents[1])
        script = ("from repro.crypto.kms import KmsFleet\n"
                  "kms = KmsFleet(seed=1).for_tenant('acme')\n"
                  "key_id = kms.create_key('phi')\n"
                  "print(kms._keys[key_id].material.hex())\n")
        materials = []
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": source_root,
                     "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            materials.append(done.stdout.strip())
        assert materials[0] == materials[1]
