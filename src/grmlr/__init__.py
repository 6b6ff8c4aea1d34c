"""Graph-regularized multinomial logistic regression for compositional data.

Small-sample stage classification from microbial relative abundances:
CLR preprocessing, a dual-source Spearman knowledge graph over taxa,
Laplacian-penalized softmax regression, and a leave-one-out evaluation
harness with permutation testing, grid search, ablations and sensitivity
sweeps.
"""

__version__ = "0.1.0"

from .compositional import FeatureMatrix, clr, clr_transform, raw_features
from .dataset import (
    AbundanceMatrix,
    Dataset,
    MacrofaunaCounts,
    StageLabels,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from .ecograph import (
    EcologicalGraph,
    build_graph,
    export_heatmaps,
    laplacian_of,
)
from .evaluation import (
    DEFAULT_GRID,
    EvalReport,
    GridResult,
    PermutationReport,
    ablate,
    alpha_sweep,
    coefficient_ranking,
    grid_search,
    loocv,
    macro_f1,
    permutation_test,
)
from .model import (
    GrmlrConfig,
    GrmlrModel,
    class_balanced_weights,
    fit,
    load_model,
    loss,
    loss_gradient,
    predict,
    predict_proba,
    save_model,
)

__all__ = [
    "AbundanceMatrix",
    "Dataset",
    "DEFAULT_GRID",
    "EcologicalGraph",
    "EvalReport",
    "FeatureMatrix",
    "GridResult",
    "GrmlrConfig",
    "GrmlrModel",
    "MacrofaunaCounts",
    "PermutationReport",
    "StageLabels",
    "ablate",
    "alpha_sweep",
    "build_graph",
    "class_balanced_weights",
    "clr",
    "clr_transform",
    "coefficient_ranking",
    "export_heatmaps",
    "fit",
    "grid_search",
    "laplacian_of",
    "load_dataset",
    "load_model",
    "loocv",
    "loss",
    "loss_gradient",
    "macro_f1",
    "permutation_test",
    "predict",
    "predict_proba",
    "raw_features",
    "save_dataset",
    "save_model",
    "synthesize_dataset",
]
