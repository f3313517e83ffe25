"""TCP-trace diagnostics: signatures, kernel SVM cascade, simulator."""

from .classifiers import (
    CfdNetwork,
    CfModule,
    LinkState,
    LpdClassifier,
    PipelineConfig,
    Verdict,
    diagnose,
    load_bundle,
    save_bundle,
    train_cfd,
    train_lpd,
)
from .features import FeatureCatalog, Signature, default_catalog, extract_signature
from .preprocess import (
    LabelKind,
    ScalerParams,
    SignatureDatabase,
    apply_scaler,
    encode_labels,
    fit_scaler,
    scale_database,
)
from .selection import SelectionReport, TTestRanking, rank_features, t_statistic, wrapper_select
from .simulate import ClientParams, CwndProfile, LinkParams, simulate_flow
from .svm import KernelSpec, SvmConfig, SvmModel, decision_value
from .trace import TracePair, TraceRecord, read_trace, write_trace

__version__ = "0.1.0"
