"""Knowledge bases: synthetic universe, KB interfaces, remote access, NLP.

Substitutes the paper's external resources (DisGeNet, PubChem, DrugBank,
SIDER, PubMed, WordNet) with synthetic equivalents carrying the same
statistical structure — see DESIGN.md's substitution table.
"""

from .bases import (
    DisGeNetLike,
    DrugBankLike,
    PubChemLike,
    PubMedLite,
    SiderLike,
    WordNetLite,
)
from .remote import RemoteKnowledgeBase
from .synthetic import (
    Abstract,
    BioUniverse,
    Disease,
    Drug,
    generate_universe,
)
from .textmining import EntityRecognizer, ExtractedFact, FactExtractor

__all__ = [
    "DisGeNetLike",
    "DrugBankLike",
    "PubChemLike",
    "PubMedLite",
    "SiderLike",
    "WordNetLite",
    "RemoteKnowledgeBase",
    "Abstract",
    "BioUniverse",
    "Disease",
    "Drug",
    "generate_universe",
    "EntityRecognizer",
    "ExtractedFact",
    "FactExtractor",
]
