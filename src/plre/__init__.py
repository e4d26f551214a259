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
    count_all_orders,
    count_ngrams,
    read_sentences,
)
from .ensemble import (
    LowRankCPT,
    OpCounter,
    PlreLevel,
    PlreModel,
    build_plre,
    compute_discounts,
    compute_z,
    default_powers,
    derive_dstar,
    power_counts,
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
)
from .evaluation import EvalReport, log_prob_sentence, perplexity
from .factorization import ConvergenceReport, best_rank1, nmf_gkl, nmf_gkl_many
from .levels import make_base_distribution
from .synthetic import synthesize_corpus
from .verify import marginal_error_bound, verify_marginal

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
    "FactorizationError",
    "LowRankCPT",
    "NgramLM",
    "OpCounter",
    "PlreError",
    "PlreLevel",
    "PlreModel",
    "TrainConfig",
    "VerificationError",
    "Vocabulary",
    "adjusted_tables",
    "best_rank1",
    "build_plre",
    "build_vocabulary",
    "compute_discounts",
    "compute_z",
    "count_all_orders",
    "count_ngrams",
    "count_of_counts",
    "default_powers",
    "derive_dstar",
    "good_turing_discount",
    "load_config",
    "load_model",
    "log_prob_sentence",
    "make_base_distribution",
    "marginal_error_bound",
    "mkn_discounts",
    "nmf_gkl",
    "nmf_gkl_many",
    "parse_config",
    "perplexity",
    "power_counts",
    "read_sentences",
    "save_model",
    "synthesize_corpus",
    "verify_marginal",
]
