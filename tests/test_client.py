"""Tests for the enhanced client and the thin baseline."""

import pytest

from repro.caching.policies import LruCache
from repro.client.connection import PlatformConnection
from repro.client.enhanced import BasicClient, EnhancedClient
from repro.cloudsim.network import standard_topology
from repro.core.errors import (
    DisconnectedError,
    ModelLifecycleError,
    NotFoundError,
)
from repro.fhir.resources import Bundle, Patient
from repro.ingestion.pipeline import ClientRegistration
from repro.crypto.rsa import generate_keypair, hybrid_decrypt
from repro.privacy.deidentify import Deidentifier


@pytest.fixture
def connection():
    fabric = standard_topology()
    connection = PlatformConnection(fabric, "client", "cloud-a")
    store = {"kb-1": "knowledge", "kb-2": "more knowledge"}
    connection.register_handler("/kb/get",
                                lambda body: store.get(body["key"]))
    connection.register_handler("/analytics/run",
                                lambda body: {"ran": body["model"]})
    uploads = []
    connection.register_handler("/upload",
                                lambda body: uploads.append(body) or "ok")
    connection._uploads = uploads  # test hook
    return connection


class TestConnection:
    def test_request_roundtrip(self, connection):
        assert connection.request("/kb/get", {"key": "kb-1"}) == "knowledge"
        assert connection.requests_sent == 1

    def test_charges_network_time(self, connection):
        before = connection.fabric.clock.now
        connection.request("/kb/get", {"key": "kb-1"})
        assert connection.fabric.clock.now > before

    def test_unknown_route(self, connection):
        with pytest.raises(NotFoundError):
            connection.request("/nope")

    def test_offline_raises(self, connection):
        connection.go_offline()
        with pytest.raises(DisconnectedError):
            connection.request("/kb/get", {"key": "kb-1"})
        connection.go_online()
        assert connection.request("/kb/get", {"key": "kb-1"}) == "knowledge"


class TestBasicClient:
    def test_every_fetch_is_remote(self, connection):
        client = BasicClient(connection)
        client.fetch("/kb/get", "kb-1")
        client.fetch("/kb/get", "kb-1")
        assert connection.requests_sent == 2

    def test_model_runs_remote(self, connection):
        client = BasicClient(connection)
        assert client.run_model("jmf", {}) == {"ran": "jmf"}

    def test_offline_upload_fails(self, connection):
        client = BasicClient(connection)
        connection.go_offline()
        with pytest.raises(DisconnectedError):
            client.upload("/upload", {"x": 1})


class TestEnhancedClientCaching:
    def test_cache_eliminates_repeat_requests(self, connection):
        client = EnhancedClient(connection, cache=LruCache(16))
        first = client.fetch("/kb/get", "kb-1")
        second = client.fetch("/kb/get", "kb-1")
        assert first == second == "knowledge"
        assert connection.requests_sent == 1

    def test_cached_fetch_is_faster(self, connection):
        client = EnhancedClient(connection)
        client.fetch("/kb/get", "kb-1")
        t_before = connection.fabric.clock.now
        client.fetch("/kb/get", "kb-1")
        assert connection.fabric.clock.now == t_before  # no network charged


class TestEnhancedClientEdgeCompute:
    def test_installed_model_runs_locally(self, connection):
        client = EnhancedClient(connection)
        client.install_model("risk-score", lambda payload: payload["x"] * 2)
        assert client.run_model("risk-score", {"x": 21}) == 42
        assert client.local_model_runs == 1
        assert connection.requests_sent == 0

    def test_missing_model_falls_back_remote(self, connection):
        client = EnhancedClient(connection)
        assert client.run_model("jmf", {}) == {"ran": "jmf"}
        assert client.remote_model_runs == 1

    def test_unapproved_model_rejected(self, connection):
        client = EnhancedClient(connection)
        with pytest.raises(ModelLifecycleError):
            client.install_model("sketchy", lambda p: p, approved=False)

    def test_local_model_works_offline(self, connection):
        client = EnhancedClient(connection)
        client.install_model("risk-score", lambda payload: payload["x"] + 1)
        connection.go_offline()
        assert client.run_model("risk-score", {"x": 1}) == 2


class TestEnhancedClientPrivacy:
    def test_prepare_bundle_encrypts(self, connection):
        keypair = generate_keypair(bits=1024, seed=42)
        registration = ClientRegistration("c1", keypair.public_key())
        client = EnhancedClient(connection, registration=registration)
        bundle = Bundle(id="b").add(
            Patient(id="p", name={"family": "Doe"}))
        envelope = client.prepare_bundle(bundle)
        decrypted = hybrid_decrypt(keypair, envelope)
        assert b"Doe" in decrypted

    def test_prepare_bundle_anonymizes_first(self, connection):
        keypair = generate_keypair(bits=1024, seed=43)
        registration = ClientRegistration("c1", keypair.public_key())
        client = EnhancedClient(
            connection, registration=registration,
            anonymizer=Deidentifier(b"client-side-secret-0123456789"))
        bundle = Bundle(id="b").add(
            Patient(id="p", name={"family": "Doe"},
                    identifier=[{"value": "ssn"}]))
        envelope = client.prepare_bundle(bundle, anonymize=True)
        decrypted = hybrid_decrypt(keypair, envelope)
        assert b"Doe" not in decrypted

    def test_prepared_bundles_share_the_registration_session(self,
                                                             connection):
        keypair = generate_keypair(bits=1024, seed=44)
        registration = ClientRegistration("c1", keypair.public_key())
        client = EnhancedClient(connection, registration=registration)
        first, second = (
            client.prepare_bundle(Bundle(id=bundle_id).add(
                Patient(id="p", name={"family": family})))
            for bundle_id, family in (("b1", "Doe"), ("b2", "Roe")))
        assert first.wrapped_key == second.wrapped_key
        assert first.wrapped_key == registration.session.wrapped_key
        assert b"Doe" in hybrid_decrypt(keypair, first)
        assert b"Roe" in hybrid_decrypt(keypair, second)
        assert b"Doe" not in hybrid_decrypt(keypair, second)

    def test_unregistered_client_cannot_prepare(self, connection):
        client = EnhancedClient(connection)
        with pytest.raises(ModelLifecycleError):
            client.prepare_bundle(Bundle(id="b"))


class TestOfflineQueue:
    def test_uploads_queue_while_offline(self, connection):
        client = EnhancedClient(connection)
        connection.go_offline()
        assert client.upload("/upload", {"n": 1}) is None
        assert client.upload("/upload", {"n": 2}) is None
        assert client.queued_uploads == 2
        assert connection._uploads == []

    def test_queue_drains_on_reconnect(self, connection):
        client = EnhancedClient(connection)
        connection.go_offline()
        client.upload("/upload", {"n": 1})
        client.upload("/upload", {"n": 2})
        connection.go_online()
        responses = client.drain_queue()
        assert responses == ["ok", "ok"]
        assert [u["n"] for u in connection._uploads] == [1, 2]
        assert client.queued_uploads == 0

    def test_drain_while_offline_rejected(self, connection):
        client = EnhancedClient(connection)
        connection.go_offline()
        client.upload("/upload", {"n": 1})
        with pytest.raises(DisconnectedError):
            client.drain_queue()

    def test_online_upload_immediate(self, connection):
        client = EnhancedClient(connection)
        assert client.upload("/upload", {"n": 1}) == "ok"
        assert client.queued_uploads == 0
