"""Speech-to-motion coupling analysis for dyadic recordings."""

from .coupling import (
    AffineMap,
    bin_affect,
    coupling_report,
    evaluate_mapping,
    fit_ammse,
    pearson_r,
    predict,
)
from .frames import FeatureTrack, FrameGrid
from .ingest import (
    AudioClip,
    SpeechIntervals,
    load_emotion_frames,
    load_marker_activeness,
    load_markers,
    load_transcript_intervals,
    load_wav,
    select_channel,
    trim_head,
)
from .motion import (
    RegionMap,
    condition_summaries,
    default_region_map,
    displacement_magnitudes,
    region_activeness,
)
from .speech_features import (
    PcaModel,
    apply_pca,
    f0_contour,
    fit_pca,
    mfcc,
    rms_energy,
    temporal_derivatives,
)
from .stats import RmDesign, f_distribution_sf, rm_anova_two_way
from .synth import SynthSpec, generate_coupled_session, theoretical_r
from .timeline import (
    SessionTable,
    align_session,
    decimate_alternate,
    rasterize_intervals,
    resample_linear,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AudioClip",
    "FeatureTrack",
    "FrameGrid",
    "PcaModel",
    "RegionMap",
    "RmDesign",
    "SessionTable",
    "SpeechIntervals",
    "SynthSpec",
    "align_session",
    "apply_pca",
    "bin_affect",
    "condition_summaries",
    "coupling_report",
    "decimate_alternate",
    "default_region_map",
    "displacement_magnitudes",
    "evaluate_mapping",
    "f0_contour",
    "f_distribution_sf",
    "fit_ammse",
    "fit_pca",
    "generate_coupled_session",
    "load_emotion_frames",
    "load_marker_activeness",
    "load_markers",
    "load_transcript_intervals",
    "load_wav",
    "mfcc",
    "pearson_r",
    "predict",
    "rasterize_intervals",
    "region_activeness",
    "resample_linear",
    "rm_anova_two_way",
    "rms_energy",
    "select_channel",
    "temporal_derivatives",
    "theoretical_r",
    "trim_head",
]
