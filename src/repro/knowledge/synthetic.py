"""Synthetic biomedical universe (substitute for the paper's databases).

The paper's analytics draw on DisGeNet (gene-disease), PubChem (chemical
structure), DrugBank (drug targets), SIDER (side effects), and PubMed
abstracts — all external resources we cannot ship.  This module generates
a coherent synthetic universe with the statistical structure those
analytics exploit:

* drugs and diseases have **latent factors**; the ground-truth
  drug-disease association matrix is low-rank-plus-noise, exactly the
  regime JMF (Fig. 9) assumes;
* every observable source (fingerprints, targets, side effects,
  phenotypes, ontology, disease genes) is a noisy view of the latents, so
  source similarities correlate with true associations — some sources are
  generated more informative than others, which lets E8 check that JMF's
  learned source weights are interpretable;
* PubMed-like abstracts mention truly associated drug-disease pairs more
  often than random pairs, giving the text-mining pipeline a real signal.

Everything is driven by one integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
_DRUG_SUFFIXES = ["mab", "nib", "pril", "statin", "mide", "zole", "cillin",
                  "oxacin", "dipine", "sartan"]
_DISEASE_SUFFIXES = ["itis", "osis", "emia", "pathy", "oma", "algia",
                     "plegia", "trophy"]


def _pseudo_name(rng: np.random.Generator, suffixes: Sequence[str]) -> str:
    syllables = rng.integers(2, 4)
    name = ""
    for _ in range(int(syllables)):
        name += _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
        name += _VOWELS[int(rng.integers(len(_VOWELS)))]
    return name + suffixes[int(rng.integers(len(suffixes)))]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class Drug:
    """One synthetic drug with its observable profiles."""

    drug_id: str
    name: str
    fingerprint: np.ndarray        # binary chemical-structure bits (PubChem view)
    targets: Set[str]              # protein targets (DrugBank view)
    side_effects: Set[str]         # side-effect terms (SIDER view)
    therapeutic_class: str


@dataclass
class Disease:
    """One synthetic disease with its observable profiles."""

    disease_id: str
    name: str
    phenotype: np.ndarray          # continuous phenotype profile
    ontology_path: Tuple[str, ...]  # position in a disease ontology tree
    genes: Set[str]                # associated genes (DisGeNet view)


@dataclass
class Abstract:
    """A PubMed-like abstract: id, title, body text."""

    pmid: str
    title: str
    text: str


@dataclass
class BioUniverse:
    """The full synthetic universe plus its hidden ground truth."""

    drugs: List[Drug]
    diseases: List[Disease]
    genes: List[str]
    association_matrix: np.ndarray   # binary |drugs| x |diseases| ground truth
    drug_latents: np.ndarray
    disease_latents: np.ndarray
    gene_latents: np.ndarray
    gene_disease_matrix: np.ndarray  # binary |genes| x |diseases| ground truth
    abstracts: List[Abstract]
    source_informativeness: Dict[str, float]
    # CMap-style expression signatures (refs [34], [37]): a drug's
    # perturbation profile anti-correlates with the expression signature of
    # the diseases it treats.
    drug_expression: Optional[np.ndarray] = None     # |drugs| x n_expr_genes
    disease_expression: Optional[np.ndarray] = None  # |diseases| x n_expr_genes

    def drug_index(self, drug_id: str) -> int:
        return next(i for i, d in enumerate(self.drugs) if d.drug_id == drug_id)

    def disease_index(self, disease_id: str) -> int:
        return next(i for i, d in enumerate(self.diseases)
                    if d.disease_id == disease_id)


def _latent_view(latents: np.ndarray, dim: int, noise: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Project latents to an observable continuous view with noise."""
    projection = rng.normal(size=(latents.shape[1], dim))
    view = latents @ projection
    view += rng.normal(scale=noise * view.std() + 1e-9, size=view.shape)
    return view


def _binary_view(latents: np.ndarray, dim: int, noise: float, density: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Binary observable view (fingerprints, target membership...)."""
    view = _latent_view(latents, dim, noise, rng)
    thresholds = np.quantile(view, 1.0 - density, axis=0)
    return (view >= thresholds).astype(np.int8)


def generate_universe(n_drugs: int = 120, n_diseases: int = 80,
                      n_genes: int = 200, latent_dim: int = 8,
                      fingerprint_bits: int = 128, n_targets: int = 60,
                      n_side_effects: int = 90, n_abstracts: int = 400,
                      association_density: float = 0.06,
                      seed: int = 0) -> BioUniverse:
    """Generate the synthetic universe; fully determined by ``seed``."""
    rng = np.random.default_rng(seed)

    drug_latents = rng.normal(size=(n_drugs, latent_dim))
    disease_latents = rng.normal(size=(n_diseases, latent_dim))
    gene_latents = rng.normal(size=(n_genes, latent_dim))

    # Ground-truth associations: top-density of the latent inner products.
    scores = drug_latents @ disease_latents.T
    threshold = np.quantile(scores, 1.0 - association_density)
    association = (scores >= threshold).astype(np.int8)

    gd_scores = gene_latents @ disease_latents.T
    gd_threshold = np.quantile(gd_scores, 1.0 - association_density)
    gene_disease = (gd_scores >= gd_threshold).astype(np.int8)

    # Observable drug views, with deliberately unequal informativeness
    # (noise levels) so learned source weights are checkable.
    informativeness = {
        "chemical": 0.9,     # low-noise fingerprint view
        "target": 0.6,       # medium
        "side_effect": 0.3,  # noisy
        "phenotype": 0.9,
        "ontology": 0.6,
        "disease_gene": 0.3,
    }
    fingerprints = _binary_view(drug_latents, fingerprint_bits,
                                noise=1.0 - informativeness["chemical"],
                                density=0.25, rng=rng)
    target_matrix = _binary_view(drug_latents, n_targets,
                                 noise=1.0 - informativeness["target"],
                                 density=0.12, rng=rng)
    side_effect_matrix = _binary_view(drug_latents, n_side_effects,
                                      noise=1.0 - informativeness["side_effect"],
                                      density=0.15, rng=rng)

    gene_names = [f"GENE{i:04d}" for i in range(n_genes)]
    target_names = [f"P{i:05d}" for i in range(n_targets)]
    side_effect_names = [_pseudo_name(rng, ["nausea", "rash", "edema",
                                            "fatigue", "vertigo", "emesis"])
                         + f"-{i}" for i in range(n_side_effects)]
    classes = ["antineoplastic", "antidiabetic", "cardiovascular",
               "neurological", "antiinfective", "immunomodulator"]

    drugs: List[Drug] = []
    used_names: Set[str] = set()
    for i in range(n_drugs):
        name = _pseudo_name(rng, _DRUG_SUFFIXES)
        while name in used_names:
            name = _pseudo_name(rng, _DRUG_SUFFIXES)
        used_names.add(name)
        # Therapeutic class from the dominant latent dimension.
        class_index = int(np.argmax(np.abs(drug_latents[i])[:len(classes)]))
        drugs.append(Drug(
            drug_id=f"DRG{i:04d}",
            name=name,
            fingerprint=fingerprints[i],
            targets={target_names[t] for t in np.nonzero(target_matrix[i])[0]},
            side_effects={side_effect_names[s]
                          for s in np.nonzero(side_effect_matrix[i])[0]},
            therapeutic_class=classes[class_index],
        ))

    # Disease views.
    phenotypes = _latent_view(disease_latents, 32,
                              noise=1.0 - informativeness["phenotype"], rng=rng)
    # Ontology: hierarchical labels from sign patterns of latents, noisy.
    ontology_noise = 1.0 - informativeness["ontology"]
    diseases: List[Disease] = []
    for j in range(n_diseases):
        name = _pseudo_name(rng, _DISEASE_SUFFIXES)
        while name in used_names:
            name = _pseudo_name(rng, _DISEASE_SUFFIXES)
        used_names.add(name)
        noisy_latent = (disease_latents[j]
                        + rng.normal(scale=2.0 * ontology_noise,
                                     size=disease_latents.shape[1]))
        depth = min(5, disease_latents.shape[1])
        path = tuple(
            f"L{level}:{'p' if noisy_latent[level] >= 0 else 'n'}"
            for level in range(depth))
        gene_set = {gene_names[g] for g in np.nonzero(gene_disease[:, j])[0]}
        diseases.append(Disease(
            disease_id=f"DIS{j:04d}",
            name=name,
            phenotype=phenotypes[j],
            ontology_path=path,
            genes=gene_set,
        ))

    abstracts = _generate_abstracts(drugs, diseases, association,
                                    n_abstracts, rng)

    # Expression signatures over a shared gene panel: disease signature is
    # a projection of its latents; an effective drug's perturbation profile
    # is the *negative* projection (it reverses the disease signature), so
    # anti-correlation carries the treatment signal CMap-style methods use.
    # Expression measurements are the noisiest source in practice (batch
    # effects, cell-line context), so they carry the heaviest noise here:
    # informative enough to beat chance, weaker than the structured sources.
    n_expr_genes = 50
    expr_projection = rng.normal(size=(latent_dim, n_expr_genes))
    disease_expression = disease_latents @ expr_projection
    disease_expression += rng.normal(scale=1.6 * disease_expression.std(),
                                     size=disease_expression.shape)
    drug_expression = -(drug_latents @ expr_projection)
    drug_expression += rng.normal(scale=1.6 * drug_expression.std(),
                                  size=drug_expression.shape)

    return BioUniverse(
        drugs=drugs,
        diseases=diseases,
        genes=gene_names,
        association_matrix=association,
        drug_latents=drug_latents,
        disease_latents=disease_latents,
        gene_latents=gene_latents,
        gene_disease_matrix=gene_disease,
        abstracts=abstracts,
        source_informativeness=informativeness,
        drug_expression=drug_expression,
        disease_expression=disease_expression,
    )


_SENTENCE_TEMPLATES = [
    "We report that {drug} showed significant efficacy in patients with {disease}.",
    "A retrospective cohort suggests {drug} reduces progression of {disease}.",
    "Treatment with {drug} was associated with improved outcomes in {disease}.",
    "{drug} inhibited pathways implicated in the pathogenesis of {disease}.",
]
_NOISE_TEMPLATES = [
    "No association was found between {drug} and {disease} in this trial.",
    "The role of {drug} in {disease} remains unclear and warrants study.",
]


def _generate_abstracts(drugs: List[Drug], diseases: List[Disease],
                        association: np.ndarray, n_abstracts: int,
                        rng: np.random.Generator) -> List[Abstract]:
    """Abstracts mentioning associated pairs 4x more often than random."""
    true_pairs = list(zip(*np.nonzero(association)))
    abstracts: List[Abstract] = []
    for k in range(n_abstracts):
        if true_pairs and rng.random() < 0.7:
            i, j = true_pairs[int(rng.integers(len(true_pairs)))]
            template = _SENTENCE_TEMPLATES[int(rng.integers(
                len(_SENTENCE_TEMPLATES)))]
        else:
            i = int(rng.integers(len(drugs)))
            j = int(rng.integers(len(diseases)))
            template = _NOISE_TEMPLATES[int(rng.integers(len(_NOISE_TEMPLATES)))]
        drug, disease = drugs[int(i)], diseases[int(j)]
        sentence = template.format(drug=drug.name, disease=disease.name)
        filler = ("Methods and baseline characteristics are described in the "
                  "supplement. Additional endpoints were exploratory.")
        abstracts.append(Abstract(
            pmid=f"PM{k:07d}",
            title=f"{drug.name} and {disease.name}: a study",
            text=f"{sentence} {filler}",
        ))
    return abstracts
