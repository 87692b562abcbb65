"""desbal: dynamic classifier/ensemble selection with rebalanced competence
regions for multi-class imbalanced classification."""

__version__ = "0.1.0"

from .data import (
    DataFormatError,
    Dataset,
    ImbalanceProfile,
    ScalingParams,
    SplitPlan,
    parse_csv,
    parse_keel,
    standardize,
    stratified_5x2,
)
from .metrics import METRIC_NAMES, auc_multiclass, f_measure_weighted, g_mean
from .pool import Pool, build_dsel, generate_pool, load_pool, save_pool
from .resampling import (
    SyntheticBatch,
    VARIANTS,
    apply_multiclass,
    ramo,
    ramo_weights,
    rus,
    smote_exact,
)
from .selection import (
    RegionView,
    SELECTOR_NAMES,
    SelectionContext,
    SelectionResult,
    SelectorConfig,
    dfp_prune,
    run_selector,
    select_desknn,
    select_desp,
    select_desrrc,
    select_fire,
    select_kne,
    select_knu,
    select_lca,
    select_mcb,
    select_metades,
    select_rank,
    select_static,
    train_meta_classifier,
)
from .stats import RankTable, average_ranks, finner_stepdown, sign_test
from .tree import DecisionTree, TreeConfig, fit_tree
