"""Checkpoint diffing with per-row two-sample KS tests.

Finds the embedding rows whose value distribution shifted during fine-tuning
("winning tickets"), emits masks and partial-transfer checkpoints for them,
and reports certified prediction accuracy; includes a desk-scale trainer for
end-to-end verification.
"""

from .certify import (
    CertificationReport,
    PredictionLog,
    alpha_sweep,
    certification_report,
    certified,
    filter_first_k,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    EmbeddingView,
    TensorRecord,
    get_embedding,
    import_csv_matrix,
    read_checkpoint,
    validate_pair,
    write_checkpoint,
)
from .ksstat import (
    KsResult,
    Sample,
    ks_critical_value,
    ks_pvalue_asymptotic,
    ks_pvalue_permutation,
    ks_statistic,
    ks_statistic_rows,
    ks_tau,
    ks_two_sample_test,
    tau_from_pvalue_inversion,
)
from .selection import (
    ScoreTable,
    TokenScore,
    WinningTicketSet,
    analyze_pair,
    compare_ticket_distributions,
    count_frequencies,
    score_row,
    select_by_alpha,
    select_top_k,
)
from .toytrain import (
    SyntheticTask,
    ToyModel,
    TrainConfig,
    emit_prediction_log,
    evaluate,
    generate_task,
    init_model,
    train,
)
from .transfer import emit_mask, splice_partial_transfer

__version__ = "0.1.0"
