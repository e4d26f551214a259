"""Language-model smoothing with power low-rank count ensembles.

The package builds interpolated n-gram models whose higher-order terms are
element-wise powers of the count tensor, optionally replaced by low-rank
nonnegative factorizations fit under generalized KL divergence, with
discounts arranged so the models keep the training data's lower-order
marginals.  Classical interpolated smoothers (MLE, absolute discounting,
Kneser-Ney, modified Kneser-Ney) are included as baselines, along with a
perplexity harness, a binary model container, and a CLI.
"""

from .baselines import (
    DiscountParams,
    NgramLM,
    count_of_counts,
    good_turing_discount,
    mkn_discounts,
)
from .config import TrainConfig, load_config, parse_config
from .container import load_model, save_model
from .corpus import (
    BOS,
    EOS,
    UNK,
    CountTable,
    Vocabulary,
    adjusted_tables,
    build_vocabulary,
    continuation_counts,
    continuation_table,
    count_all_orders,
    count_ngrams,
    read_sentences,
)
from .ensemble import (
    LowRankCPT,
    OpCounter,
    PlreLevel,
    PlreModel,
    PoweredCounts,
    build_plre,
    compute_discounts,
    compute_z,
    default_powers,
    derive_dstar,
    marginal_error_bound,
    power_counts,
    verify_marginal,
)
from .errors import (
    ConfigError,
    ContainerError,
    DataError,
    EmptyCorpusError,
    EvalError,
    FactorizationError,
    PlreError,
    VerificationError,
    VocabMismatchError,
)
from .evaluation import EvalReport, log_prob_sentence, order_sweep, perplexity
from .factorization import (
    ConvergenceReport,
    FactorPair,
    SparseMatrix,
    best_rank1,
    gkl,
    nmf_gkl,
    nmf_gkl_many,
    sum_residual,
)
from .levels import make_base_distribution
from .synthetic import synthesize_corpus

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "EOS",
    "UNK",
    "ConfigError",
    "ContainerError",
    "ConvergenceReport",
    "CountTable",
    "DataError",
    "DiscountParams",
    "EmptyCorpusError",
    "EvalError",
    "EvalReport",
    "FactorPair",
    "FactorizationError",
    "LowRankCPT",
    "NgramLM",
    "OpCounter",
    "PlreError",
    "PlreLevel",
    "PlreModel",
    "PoweredCounts",
    "SparseMatrix",
    "TrainConfig",
    "VerificationError",
    "Vocabulary",
    "VocabMismatchError",
    "adjusted_tables",
    "best_rank1",
    "build_plre",
    "build_vocabulary",
    "compute_discounts",
    "compute_z",
    "continuation_counts",
    "continuation_table",
    "count_all_orders",
    "count_ngrams",
    "count_of_counts",
    "default_powers",
    "derive_dstar",
    "gkl",
    "good_turing_discount",
    "load_config",
    "load_model",
    "log_prob_sentence",
    "make_base_distribution",
    "marginal_error_bound",
    "mkn_discounts",
    "nmf_gkl",
    "nmf_gkl_many",
    "order_sweep",
    "parse_config",
    "perplexity",
    "power_counts",
    "read_sentences",
    "save_model",
    "sum_residual",
    "synthesize_corpus",
    "verify_marginal",
]
