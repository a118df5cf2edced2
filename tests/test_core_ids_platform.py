"""Tests for deterministic id generation and platform facade basics."""

from repro import HealthCloudPlatform
from repro.core.ids import IdFactory, content_id


class TestIdFactory:
    def test_prefixed_format(self):
        ids = IdFactory(seed=1)
        identifier = ids.new("patient")
        assert identifier.startswith("patient-")
        assert len(identifier.split("-", 1)[1]) == 12

    def test_unique_within_factory(self):
        ids = IdFactory(seed=1)
        generated = {ids.new("x") for _ in range(1000)}
        assert len(generated) == 1000

    def test_deterministic_across_factories(self):
        a = IdFactory(seed=9)
        b = IdFactory(seed=9)
        assert [a.new("t") for _ in range(5)] == [b.new("t")
                                                  for _ in range(5)]

    def test_seed_changes_ids(self):
        assert IdFactory(seed=1).new("t") != IdFactory(seed=2).new("t")

    def test_pseudo_uuid_shape(self):
        uuid = IdFactory(seed=3).pseudo_uuid()
        parts = uuid.split("-")
        assert [len(p) for p in parts] == [8, 4, 4, 4, 12]

    def test_content_id_stable(self):
        assert content_id(b"abc") == content_id(b"abc")
        assert content_id(b"abc") != content_id(b"abd")
        assert content_id(b"abc", prefix="rec").startswith("rec-")


class TestPlatformFacade:
    def test_register_tenant_creates_defaults(self):
        platform = HealthCloudPlatform(seed=2, use_blockchain=False)
        context = platform.register_tenant("acme")
        assert context.default_org.name == "default"
        assert context.default_env.kind == "development"
        assert context.default_org.org_id in \
            context.tenant.organization_ids

    def test_platform_deterministic_per_seed(self):
        a = HealthCloudPlatform(seed=3, use_blockchain=False)
        b = HealthCloudPlatform(seed=3, use_blockchain=False)
        reg_a = a.ingestion.register_client("c")
        reg_b = b.ingestion.register_client("c")
        assert reg_a.public_key.fingerprint() == \
            reg_b.public_key.fingerprint()

    def test_no_blockchain_mode(self):
        platform = HealthCloudPlatform(seed=4, use_blockchain=False)
        assert platform.blockchain is None
        platform.flush_blockchain()  # no-op, must not raise
        report = platform.audit.run_audit()
        assert report.ledger_valid is None

    def test_run_ingestion_empty_queue(self):
        platform = HealthCloudPlatform(seed=5, use_blockchain=False)
        assert platform.run_ingestion() == 0

    def test_default_controls_marked(self):
        platform = HealthCloudPlatform(seed=6, use_blockchain=False)
        from repro.compliance.hipaa import ControlStatus
        control = next(c for c in platform.controls.controls()
                       if c.control_id == "gdpr-17-erasure")
        assert control.status is ControlStatus.IMPLEMENTED
        assert "gdpr" in control.satisfied_by
