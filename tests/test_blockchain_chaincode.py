"""Tests for the four HCLS chaincodes over world state."""

import pytest

from repro.blockchain.chaincode import (
    ConsentContract,
    MalwareContract,
    PrivacyContract,
    ProvenanceBatch,
    ProvenanceContract,
    WorldState,
)
from repro.core.errors import LedgerError, ValidationError
from tests.conftest import one_leaf_batch


@pytest.fixture
def state():
    return WorldState()


class TestWorldState:
    def test_put_get(self, state):
        state.put("k", {"a": 1})
        assert state.get("k") == {"a": 1}

    def test_versions(self, state):
        assert state.version("k") == 0
        state.put("k", 1)
        state.put("k", 2)
        assert state.version("k") == 2

    def test_prefix_scan(self, state):
        state.put("prov/a", 1)
        state.put("prov/b", 2)
        state.put("other", 3)
        assert state.keys_with_prefix("prov/") == ["prov/a", "prov/b"]

    def test_snapshot_hash_changes(self, state):
        h1 = state.snapshot_hash()
        state.put("k", 1)
        assert state.snapshot_hash() != h1


class TestProvenanceContract:
    def test_event_chain(self, state):
        contract = ProvenanceContract()
        for i, event in enumerate(["received", "validated", "stored"]):
            seq = contract.invoke(state, "record_batch", one_leaf_batch(
                handle="h1", data_hash="aa", event=event, actor="svc"))
            assert seq == [i]
        history = contract.invoke(state, "get_history", {"handle": "h1"})
        assert [e["event"] for e in history] == ["received", "validated",
                                                 "stored"]

    def test_unknown_event_rejected(self, state):
        contract = ProvenanceContract()
        with pytest.raises(ValidationError):
            contract.invoke(state, "record_batch", one_leaf_batch(
                handle="h", data_hash="aa", event="teleported", actor="svc"))

    def test_verify_hash_latest(self, state):
        contract = ProvenanceContract()
        contract.invoke(state, "record_batch", one_leaf_batch(
            handle="h", data_hash="old", event="received", actor="a"))
        contract.invoke(state, "record_batch", one_leaf_batch(
            handle="h", data_hash="new", event="stored", actor="a"))
        assert contract.invoke(state, "verify_hash",
                               {"handle": "h", "data_hash": "new"})
        assert not contract.invoke(state, "verify_hash",
                                   {"handle": "h", "data_hash": "old"})

    def test_unknown_method(self, state):
        with pytest.raises(LedgerError):
            ProvenanceContract().invoke(state, "explode", {})

    def test_batch_repeating_its_last_event_rejected(self):
        """A 3-event batch's events plus its last event repeated do not
        hash to the honest root."""
        batch = ProvenanceBatch()
        for i in range(3):
            batch.append(handle=f"h{i}", data_hash="aa", event="received",
                         actor="svc")
        _, _, args = batch.request("repeat")
        contract = ProvenanceContract()
        contract.check_record_batch(**args)
        with pytest.raises(ValidationError):
            contract.check_record_batch(
                **{**args, "events": args["events"] + args["events"][-1:]})


class TestConsentContract:
    def test_grant_revoke_cycle(self, state):
        contract = ConsentContract()
        contract.invoke(state, "grant", {"patient_ref": "p", "group_id": "g",
                                         "granted_at": 1.0})
        assert contract.invoke(state, "is_active",
                               {"patient_ref": "p", "group_id": "g"})
        contract.invoke(state, "revoke", {"patient_ref": "p", "group_id": "g",
                                          "revoked_at": 2.0})
        assert not contract.invoke(state, "is_active",
                                   {"patient_ref": "p", "group_id": "g"})

    def test_revoke_without_grant_rejected(self, state):
        with pytest.raises(LedgerError):
            ConsentContract().invoke(state, "revoke",
                                     {"patient_ref": "p", "group_id": "g",
                                      "revoked_at": 1.0})

    def test_history_preserved(self, state):
        contract = ConsentContract()
        contract.invoke(state, "grant", {"patient_ref": "p", "group_id": "g",
                                         "granted_at": 1.0})
        contract.invoke(state, "revoke", {"patient_ref": "p", "group_id": "g",
                                          "revoked_at": 2.0})
        contract.invoke(state, "grant", {"patient_ref": "p", "group_id": "g",
                                         "granted_at": 3.0})
        history = contract.invoke(state, "history",
                                  {"patient_ref": "p", "group_id": "g"})
        assert [h["action"] for h in history] == ["grant", "revoke", "grant"]


class TestMalwareContract:
    def test_report_and_status(self, state):
        contract = MalwareContract()
        contract.invoke(state, "report",
                        {"record_id": "r1", "sender": "s1",
                         "signature_name": "eicar", "action": "dropped"})
        status = contract.invoke(state, "record_status", {"record_id": "r1"})
        assert status["action"] == "dropped"

    def test_risky_sender_threshold(self, state):
        contract = MalwareContract()
        for i in range(MalwareContract.RISK_THRESHOLD):
            assert not contract.invoke(state, "is_risky_sender",
                                       {"sender": "s1"})
            contract.invoke(state, "report",
                            {"record_id": f"r{i}", "sender": "s1",
                             "signature_name": "x", "action": "dropped"})
        assert contract.invoke(state, "is_risky_sender", {"sender": "s1"})

    def test_invalid_action(self, state):
        with pytest.raises(ValidationError):
            MalwareContract().invoke(state, "report",
                                     {"record_id": "r", "sender": "s",
                                      "signature_name": "x",
                                      "action": "quarantine-forever"})


class TestPrivacyContract:
    def test_record_level(self, state):
        contract = PrivacyContract()
        contract.invoke(state, "record_level",
                        {"record_id": "r1", "sender": "s1",
                         "degree": 0.92, "passed": True})
        level = contract.invoke(state, "record_level_of", {"record_id": "r1"})
        assert level["degree"] == 0.92

    def test_failures_flag_sender(self, state):
        contract = PrivacyContract()
        for i in range(PrivacyContract.RISK_THRESHOLD):
            contract.invoke(state, "record_level",
                            {"record_id": f"r{i}", "sender": "s1",
                             "degree": 0.1, "passed": False})
        assert contract.invoke(state, "is_risky_sender", {"sender": "s1"})

    def test_passing_records_do_not_flag(self, state):
        contract = PrivacyContract()
        for i in range(5):
            contract.invoke(state, "record_level",
                            {"record_id": f"r{i}", "sender": "s1",
                             "degree": 0.95, "passed": True})
        assert not contract.invoke(state, "is_risky_sender", {"sender": "s1"})
