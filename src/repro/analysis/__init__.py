"""Analysis: turn simulation output into the paper's figures and tables."""

from repro.analysis.models import (
    TranslationOverheadModel,
    hot_threshold,
    sbt_breakeven_executions,
    translation_overhead,
)
from repro.analysis.startup_curves import (
    normalized_curve,
    suite_average_curve,
    half_gain_point,
)
from repro.analysis.breakeven import breakeven_for_app
from repro.analysis.frequency_profile import (
    FrequencyProfile,
    frequency_profile,
    suite_frequency_profile,
)
from repro.analysis.activity import activity_curve
from repro.analysis.consistency import ConsistencyReport, \
    consistency_report, interval_ipcs
from repro.analysis.reporting import format_table

__all__ = [
    "ConsistencyReport", "FrequencyProfile", "TranslationOverheadModel",
    "activity_curve", "breakeven_for_app", "consistency_report",
    "format_table",
    "frequency_profile", "half_gain_point", "hot_threshold",
    "interval_ipcs", "normalized_curve", "sbt_breakeven_executions",
    "suite_average_curve", "suite_frequency_profile",
    "translation_overhead",
]
