"""chanem: site-specific multipath channel emulation.

Pipeline: a deterministic propagation oracle traces delay profiles along a
mobility trace, the CIR engine band-limits them onto a tap grid and keeps
the top-power taps, the emulator convolves streaming IQ slots with the
active snapshot in real time, and the KPI model turns link parameters into
throughput and OFDM-feasibility numbers.
"""

__version__ = "0.1.0"

from .cir import (CirConfig, DEFAULT_TAP_BUDGET, SortedCir, discretize,
                  path_gain_total, sort_truncate)
from .constants import SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .emulator import (CARRY, ZERO, EmulatorState, calibrate_signal_gain,
                       convolve_slot, noise_block, run_scenario)
from .errors import (ChanemError, DelayRangeError, EndOfScenario, FormatError,
                     InvalidInputError, NoReferenceError, ScenarioParseError,
                     SceneGeometryError, SequencingError)
from .kpi import (REFERENCE_CARRIER, LinkConfig, McsEntry, OfdmFeasibility,
                  TddPattern, cir_isi_check, cir_rms_delay_spread,
                  effective_throughput, max_bitrate, mcs_lookup, ofdm_feasibility,
                  rms_delay_spread, tdd_occupancy, tdd_occupancy_exact)
from .materials import (BUILTIN_MATERIALS, EmProperties, MaterialSpec,
                        complex_permittivity, evaluate_material, get_material)
from .propagation import (DelayProfile, Facet, MobilityTrace, Scene,
                          reflection_coefficient, trace_snapshot,
                          trace_timeline)
from .scenefile import build_scenario
from .timeline import (CirTimeline, ReportRow, read_timeline, report,
                       timeline_from_profiles, write_timeline)
from .bench import BenchStats, bench
