"""chanem: site-specific multipath channel emulation.

Pipeline: a deterministic propagation oracle traces delay profiles along a
mobility trace, the CIR engine band-limits them onto a tap grid and keeps
the top-power taps, the emulator convolves streaming IQ slots with the
active snapshot in real time, and the KPI model turns link parameters into
throughput and OFDM-feasibility numbers.

Each name is imported from the module that defines it (``chanem.cir``,
``chanem.emulator``, ...); importing the package loads none of them.
"""

__version__ = "0.1.0"
