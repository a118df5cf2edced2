"""Tests for the synthetic universe, KB interfaces, remote/caching, NLP."""

import numpy as np
import pytest

from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import LruCache
from repro.cloudsim.clock import SimClock
from repro.core.errors import NotFoundError
from repro.knowledge.bases import (
    DisGeNetLike,
    DrugBankLike,
    PubChemLike,
    PubMedLite,
    SiderLike,
    WordNetLite,
)
from repro.knowledge.remote import RemoteKnowledgeBase
from repro.knowledge.synthetic import generate_universe
from repro.knowledge.textmining import FactExtractor


class TestUniverse:
    def test_deterministic(self):
        u1 = generate_universe(n_drugs=20, n_diseases=15, seed=5)
        u2 = generate_universe(n_drugs=20, n_diseases=15, seed=5)
        assert [d.name for d in u1.drugs] == [d.name for d in u2.drugs]
        assert np.array_equal(u1.association_matrix, u2.association_matrix)

    def test_seed_changes_world(self):
        u1 = generate_universe(n_drugs=20, n_diseases=15, seed=5)
        u2 = generate_universe(n_drugs=20, n_diseases=15, seed=6)
        assert not np.array_equal(u1.association_matrix,
                                  u2.association_matrix)

    def test_association_density(self, universe):
        density = universe.association_matrix.mean()
        assert 0.03 < density < 0.10

    def test_names_unique(self, universe):
        names = [d.name for d in universe.drugs] + [d.name
                                                    for d in universe.diseases]
        assert len(names) == len(set(names))

    def test_fingerprints_binary(self, universe):
        for drug in universe.drugs[:5]:
            assert set(np.unique(drug.fingerprint)) <= {0, 1}

    def test_indices(self, universe):
        assert universe.drug_index(universe.drugs[3].drug_id) == 3
        assert universe.disease_index(universe.diseases[2].disease_id) == 2

    def test_abstracts_mention_real_entities(self, universe):
        drug_names = {d.name for d in universe.drugs}
        mentioned = sum(1 for a in universe.abstracts
                        if any(name in a.text for name in drug_names))
        assert mentioned > len(universe.abstracts) * 0.8


class TestKbInterfaces:
    def test_pubchem(self, universe):
        kb = PubChemLike(universe)
        fp = kb.fingerprint(universe.drugs[0].drug_id)
        assert fp.shape == universe.drugs[0].fingerprint.shape
        with pytest.raises(NotFoundError):
            kb.fingerprint("DRG9999")

    def test_drugbank(self, universe):
        kb = DrugBankLike(universe)
        assert kb.targets(universe.drugs[0].drug_id) == set(
            universe.drugs[0].targets)
        assert kb.therapeutic_class(universe.drugs[0].drug_id)

    def test_sider(self, universe):
        kb = SiderLike(universe)
        assert kb.side_effects(universe.drugs[0].drug_id) == set(
            universe.drugs[0].side_effects)

    def test_disgenet_bidirectional(self, universe):
        kb = DisGeNetLike(universe)
        disease = next(d for d in universe.diseases if d.genes)
        gene = next(iter(disease.genes))
        assert gene in kb.genes_for_disease(disease.disease_id)
        assert disease.disease_id in kb.diseases_for_gene(gene)

    def test_pubmed_search(self, universe):
        kb = PubMedLite(universe.abstracts)
        drug_name = universe.drugs[0].name
        hits = kb.search(drug_name)
        for pmid in hits:
            assert drug_name.lower() in kb.fetch(pmid).text.lower() or \
                drug_name.lower() in kb.fetch(pmid).title.lower()

    def test_pubmed_search_all(self, universe):
        kb = PubMedLite(universe.abstracts)
        abstract = universe.abstracts[0]
        tokens = [t.strip(".,:;()") for t in abstract.title.split()
                  if len(t.strip(".,:;()")) > 4][:2]
        if tokens:
            assert abstract.pmid in kb.search_all(tokens)

    def test_wordnet_expand(self):
        wordnet = WordNetLite()
        expanded = wordnet.expand(["drug", "outcome"])
        assert "medication" in expanded
        assert "endpoint" in expanded
        assert "drug" in expanded


def local_cache(remote, method):
    """A one-level local cache over one remote KB method."""
    return CacheHierarchy(
        [CacheLevel("local", LruCache(4096), access_cost_s=50e-6)],
        Origin(remote.name, loader=lambda key: remote.call(method, key),
               access_cost_s=0.0),
        clock=remote.clock)


class TestRemoteAndCached:
    def test_remote_charges_latency(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        remote.call("fingerprint", universe.drugs[0].drug_id)
        assert clock.now == pytest.approx(0.08)
        assert remote.remote_calls == 1

    def test_cache_avoids_remote(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(DrugBankLike(universe), clock)
        cached = local_cache(remote, "targets")
        drug = universe.drugs[0].drug_id
        first = cached.get(drug).value
        t_after_first = clock.now
        second = cached.get(drug).value
        assert first == second
        assert remote.remote_calls == 1
        assert clock.now - t_after_first < 1e-3  # local access only

    def test_refresh_bypasses_cache(self, universe):
        remote = RemoteKnowledgeBase(DrugBankLike(universe))
        cached = local_cache(remote, "targets")
        drug = universe.drugs[0].drug_id
        cached.get(drug)
        cached.invalidate(drug)    # the freshest value: back to the remote
        cached.get(drug)
        assert remote.remote_calls == 2


class TestRemoteKbChaos:
    def test_dropped_link_fails_the_call(self, universe):
        from repro.cloudsim.faults import FaultPlan
        from repro.core.errors import ServiceUnavailableError

        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        remote.fault_plan = FaultPlan(seed=0, clock=clock).drop_link(
            "cloud-a", "external-kb", 1.0)
        with pytest.raises(ServiceUnavailableError):
            remote.call("fingerprint", universe.drugs[0].drug_id)
        assert remote.failed_calls == 1
        assert clock.now == pytest.approx(0.08)  # timed-out trip still paid

    def test_latency_spike_slows_the_call(self, universe):
        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        from repro.cloudsim.faults import FaultPlan
        remote.fault_plan = FaultPlan(clock=clock).spike_link(
            "cloud-a", "external-kb", 5.0)
        remote.call("fingerprint", universe.drugs[0].drug_id)
        assert clock.now == pytest.approx(0.40)

    def test_resilient_call_retries_through_outage(self, universe):
        from repro.cloudsim.faults import FaultPlan
        from repro.core.resilience import ResiliencePolicy, ResilientExecutor

        clock = SimClock()
        remote = RemoteKnowledgeBase(PubChemLike(universe), clock,
                                     round_trip_s=0.08)
        # The link drops everything for the first 100 ms of simulated
        # time; the first attempt fails inside the window, the backoff
        # pushes the retry past it.
        remote.fault_plan = FaultPlan(seed=0, clock=clock).drop_link(
            "cloud-a", "external-kb", 1.0, start_s=0.0, end_s=0.1)
        remote.resilience = ResilientExecutor(
            ResiliencePolicy(max_attempts=3, base_backoff_s=0.05,
                             jitter=0.0, seed=0),
            clock, None)
        result = remote.call("fingerprint", universe.drugs[0].drug_id)
        assert result is not None
        assert remote.failed_calls == 1
        assert remote.remote_calls == 1
        assert remote.resilience.monitoring.metrics.counter(
            "resilience.kb.pubchem.retries") == 1.0


class TestTextMining:
    def test_extraction_finds_signal(self, universe):
        extractor = FactExtractor(universe)
        evidence = extractor.evidence_matrix(universe.abstracts)
        truth = universe.association_matrix
        mean_true = evidence[truth == 1].mean()
        mean_false = evidence[truth == 0].mean()
        assert mean_true > mean_false * 2

    def test_negation_filtered(self, universe):
        extractor = FactExtractor(universe)
        facts = extractor.extract_corpus(universe.abstracts)
        negated = [f for f in facts if f.negated]
        positive = [f for f in facts if not f.negated]
        assert negated and positive
        for fact in negated[:5]:
            assert any(marker in fact.sentence.lower() for marker in
                       ("no association", "remains unclear", "not associated",
                        "failed to", "no significant"))

    def test_facts_reference_known_entities(self, universe):
        extractor = FactExtractor(universe)
        drug_ids = {d.drug_id for d in universe.drugs}
        disease_ids = {d.disease_id for d in universe.diseases}
        for fact in extractor.extract_corpus(universe.abstracts[:50]):
            assert fact.drug_id in drug_ids
            assert fact.disease_id in disease_ids
