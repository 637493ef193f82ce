"""Random forest and linear SVM over handcrafted feature vectors."""

from .forest import (
    RandomForestConfig,
    RandomForestModel,
    balanced_class_weights,
    compute_oob_score,
    load_rf,
    save_rf,
    train_random_forest,
)
from .svm import (
    PlattScaler,
    SvmConfig,
    SvmModel,
    load_svm,
    platt_fit,
    save_svm,
    svm_objective,
    train_svm,
)
from .tree import DecisionTree, best_split

__all__ = [
    "DecisionTree",
    "PlattScaler",
    "RandomForestConfig",
    "RandomForestModel",
    "SvmConfig",
    "SvmModel",
    "balanced_class_weights",
    "best_split",
    "compute_oob_score",
    "load_rf",
    "load_svm",
    "platt_fit",
    "save_rf",
    "save_svm",
    "svm_objective",
    "train_random_forest",
    "train_svm",
]
