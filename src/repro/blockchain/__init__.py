"""Permissioned HCLS blockchain (Section IV, Fig. 6).

MSP identities, hash-linked ledger, endorsement/ordering network, the
provenance/consent/malware/privacy chaincodes, self-sovereign identity,
the auditor view, and the centralized-DB baseline it is compared against.
"""

from .audit import (
    AuditFinding,
    AuditorView,
    CentralizedProvenanceDb,
    ProvenanceEvent,
)
from .chaincode import (
    Chaincode,
    ConsentContract,
    CrossShardContract,
    MalwareContract,
    PrivacyContract,
    ProvenanceContract,
    StudyContract,
    WorldState,
    provenance_event_leaf,
)
from .identity import (
    MemberIdentity,
    MembershipServiceProvider,
    PseudonymProof,
    PseudonymVerifier,
    SelfSovereignIdentity,
)
from .ledger import Block, GENESIS_HASH, Ledger, Transaction, build_block
from .network import (
    BlockchainNetwork,
    EndorsementPolicy,
    OrderingService,
    Peer,
    standard_network,
)
from .sharding import (
    CrossShardCoordinator,
    CrossShardTxn,
    PipelineReport,
    ShardedBlockchainNetwork,
    ShardedIngestReport,
    ShardRouter,
    pipeline_makespan,
)

__all__ = [
    "AuditFinding",
    "AuditorView",
    "CentralizedProvenanceDb",
    "ProvenanceEvent",
    "provenance_event_leaf",
    "Chaincode",
    "ConsentContract",
    "MalwareContract",
    "PrivacyContract",
    "ProvenanceContract",
    "StudyContract",
    "WorldState",
    "MemberIdentity",
    "MembershipServiceProvider",
    "PseudonymProof",
    "PseudonymVerifier",
    "SelfSovereignIdentity",
    "Block",
    "GENESIS_HASH",
    "Ledger",
    "Transaction",
    "build_block",
    "BlockchainNetwork",
    "EndorsementPolicy",
    "OrderingService",
    "Peer",
    "standard_network",
    "CrossShardContract",
    "CrossShardCoordinator",
    "CrossShardTxn",
    "PipelineReport",
    "ShardedBlockchainNetwork",
    "ShardedIngestReport",
    "ShardRouter",
    "pipeline_makespan",
]
