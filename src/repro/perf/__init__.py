"""Performance harness: GCUPS timing, energy accounting, reports."""

from repro.perf.gcups import Measurement, measure_gcups
from repro.perf.energy import DEVICE_POWER, DevicePower, EnergyRow, energy_table
from repro.perf.report import (
    CodeSharing,
    cache_stats_table,
    code_sharing,
    format_table,
    mapping_stats_table,
    pipeline_stats_table,
    service_stats_table,
    snapshot,
    trace_tree,
)

__all__ = [
    "cache_stats_table",
    "mapping_stats_table",
    "pipeline_stats_table",
    "service_stats_table",
    "snapshot",
    "trace_tree",
    "Measurement",
    "measure_gcups",
    "DEVICE_POWER",
    "DevicePower",
    "EnergyRow",
    "energy_table",
    "CodeSharing",
    "code_sharing",
    "format_table",
]
