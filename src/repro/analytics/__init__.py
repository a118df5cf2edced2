"""Analytics platform: similarities, JMF, DELT, DDI, lifecycle (Sections III/V)."""

from .baselines import (
    GuiltByAssociation,
    PlainMatrixFactorization,
    SideEffectKnn,
    combined_similarity,
)
from .cmap import ConnectivityMapScorer
from .delt import (
    DeltModel,
    DeltResult,
    MarginalSccs,
    PatientSeries,
    effect_recovery,
)
from .genedisease import GeneDiseasePredictor, GeneDiseaseResult
from .interactions import (
    LogisticRegression,
    PairFeaturizer,
    TiresiasPredictor,
)
from .jmf import JmfResult, JointMatrixFactorization
from .lifecycle import ModelRecord, ModelRegistry, ModelStage
from .survival import (
    KaplanMeier,
    LogRankResult,
    SurvivalCurve,
    generate_survival_cohort,
    log_rank_test,
)
from .workspace import AnalysisWorkspace, ArtifactVersion, CellExecution
from .metrics import (
    MaskedEvaluation,
    auc_roc,
    average_precision,
    evaluate_masked,
    holdout_mask,
    precision_at_k,
    recall_at_k,
)
from .similarity import (
    BitMatrix,
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
    cosine,
    gaussian_similarity,
    jaccard,
    ontology_path_similarity,
    similarity_quality,
    tanimoto,
)

__all__ = [
    "GuiltByAssociation",
    "PlainMatrixFactorization",
    "SideEffectKnn",
    "combined_similarity",
    "ConnectivityMapScorer",
    "DeltModel",
    "DeltResult",
    "MarginalSccs",
    "PatientSeries",
    "effect_recovery",
    "GeneDiseasePredictor",
    "GeneDiseaseResult",
    "LogisticRegression",
    "PairFeaturizer",
    "TiresiasPredictor",
    "JmfResult",
    "JointMatrixFactorization",
    "ModelRecord",
    "ModelRegistry",
    "ModelStage",
    "AnalysisWorkspace",
    "ArtifactVersion",
    "CellExecution",
    "KaplanMeier",
    "LogRankResult",
    "SurvivalCurve",
    "generate_survival_cohort",
    "log_rank_test",
    "MaskedEvaluation",
    "auc_roc",
    "average_precision",
    "evaluate_masked",
    "holdout_mask",
    "precision_at_k",
    "recall_at_k",
    "BitMatrix",
    "DiseaseSimilarityBuilder",
    "DrugSimilarityBuilder",
    "cosine",
    "gaussian_similarity",
    "jaccard",
    "ontology_path_similarity",
    "similarity_quality",
    "tanimoto",
]
