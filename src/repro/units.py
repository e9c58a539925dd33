"""Unit conventions and conversion helpers.

The whole library uses one coherent unit system, chosen so that the common
power-delivery identities need no conversion factors:

===========  =========  =============================================
Quantity     Unit       Note
===========  =========  =============================================
time         ns         simulation timestamps are ``float`` ns
frequency    GHz        1 GHz == 1 cycle / ns, so ``cycles = ns * f``
voltage      V
current      A
capacitance  nF         ``I[A] = C[nF] * V[V] * f[GHz]`` exactly
resistance   Ohm        load-line values are a few milliohm
power        W
temperature  degC
===========  =========  =============================================

The identity for dynamic current is dimensionally exact::

    C[nF] * V[V] * f[GHz] = 1e-9 F * V * 1e9 Hz = A
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

NS_PER_US = 1_000.0
NS_PER_MS = 1_000_000.0
NS_PER_S = 1_000_000_000.0


def us_to_ns(us: float) -> float:
    """Convert microseconds to nanoseconds."""
    return us * NS_PER_US


def ms_to_ns(ms: float) -> float:
    """Convert milliseconds to nanoseconds."""
    return ms * NS_PER_MS


def s_to_ns(s: float) -> float:
    """Convert seconds to nanoseconds."""
    return s * NS_PER_S


def ns_to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / NS_PER_US


def ns_to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return ns / NS_PER_MS


def ns_to_s(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_S


# -- electrical ------------------------------------------------------------

MV_PER_V = 1_000.0


def mv_to_v(mv: float) -> float:
    """Convert millivolts to volts."""
    return mv / MV_PER_V


def v_to_mv(v: float) -> float:
    """Convert volts to millivolts."""
    return v * MV_PER_V


def mohm_to_ohm(mohm: float) -> float:
    """Convert milliohms to ohms."""
    return mohm / 1_000.0


def dynamic_current(cdyn_nf: float, vcc: float, freq_ghz: float) -> float:
    """Dynamic current draw ``I = Cdyn * V * f`` in amps.

    ``cdyn_nf`` is the effective switched capacitance in nF; with voltage in
    volts and frequency in GHz the result is exactly in amps.
    """
    return cdyn_nf * vcc * freq_ghz


def dynamic_power(cdyn_nf: float, vcc: float, freq_ghz: float) -> float:
    """Dynamic power ``P = Cdyn * V^2 * f`` in watts."""
    return cdyn_nf * vcc * vcc * freq_ghz


# -- bandwidth -------------------------------------------------------------


def bits_per_second(bits: float, elapsed_ns: float) -> float:
    """Throughput in bit/s for ``bits`` transferred over ``elapsed_ns``."""
    if elapsed_ns <= 0.0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_ns} ns")
    return bits * NS_PER_S / elapsed_ns
