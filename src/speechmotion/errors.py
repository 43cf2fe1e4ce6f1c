"""Exception and warning types shared across the pipeline.

Three error families map onto CLI exit codes: validation errors (malformed
inputs or parameters, exit 2), data errors (inputs that are structurally fine
but unusable, exit 3) and numeric errors (degenerate computations, exit 4).
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ValidationError(PipelineError):
    """Malformed file, bad parameter, or violated contract."""

    exit_code = 2


class DataError(PipelineError):
    """Structurally valid input that cannot support the requested operation."""

    exit_code = 3


class NumericError(PipelineError):
    """Computation is degenerate for the given data."""

    exit_code = 4


# --- ingest ---------------------------------------------------------------

class UnsupportedFormatError(ValidationError):
    pass


class CorruptHeaderError(ValidationError):
    pass


class EmptyAudioError(DataError):
    pass


class ChannelOutOfRangeError(ValidationError):
    pass


class TrimExceedsDurationError(DataError):
    pass


class MalformedRowError(ValidationError):
    pass


class InconsistentMarkerSetError(ValidationError):
    pass


class NonMonotoneTimeError(ValidationError):
    pass


class OffGridTimeError(ValidationError):
    """A `time_s` value is more than half a frame from its declared-rate grid point."""


class InvertedIntervalError(ValidationError):
    pass


class SameSpeakerOverlapError(ValidationError):
    pass


class ValueOutOfRangeError(ValidationError):
    pass


class UnknownCategoryError(ValidationError):
    pass


# --- speech features -------------------------------------------------------

class ClipShorterThanWindowError(DataError):
    pass


class TrackTooShortError(DataError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class GridMismatchError(ValidationError):
    pass


# --- timeline ---------------------------------------------------------------

class EmptyTrackError(DataError):
    pass


class RateMismatchError(ValidationError):
    pass


class NoTemporalOverlapError(DataError):
    pass


# --- motion -----------------------------------------------------------------

class TooFewFramesError(DataError):
    pass


class UnknownMarkerInMapError(ValidationError):
    pass


# --- coupling ----------------------------------------------------------------

class InsufficientFramesError(DataError):
    pass


class DegenerateInputError(NumericError):
    pass


class FeatureNameMismatchError(ValidationError):
    pass


class TooFewPairsError(DataError):
    pass


# --- stats --------------------------------------------------------------------

class UnbalancedDesignError(ValidationError):
    pass


class IncompleteSubjectError(UnbalancedDesignError):
    """A subject lacks a cell of a design built without listwise deletion."""


class TooFewSubjectsError(DataError):
    pass


class InvalidDegreesOfFreedomError(ValidationError):
    pass


# --- synth ----------------------------------------------------------------------

class ZeroSignalVarianceError(NumericError):
    pass


class InconsistentSpecError(ValidationError):
    pass


# --- cli --------------------------------------------------------------------------

class MissingUpstreamOutputError(DataError):
    pass


# --- warnings -----------------------------------------------------------------------

class UnknownSpeakerWarning(UserWarning):
    """Target speaker has no transcript intervals; labels are all zero."""


class DegenerateSplitWarning(UserWarning):
    """Affect binning could not separate frames (all values equal)."""


class IncompleteSubjectWarning(UserWarning):
    """Subjects dropped from a repeated-measures design for missing cells."""


class SkippedSessionWarning(UserWarning):
    """A session cannot support a feature set's fit and gets no affine map."""
