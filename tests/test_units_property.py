"""Property tests: repro.units converter pairs are inverse bijections.

Float round-trips through a multiply/divide pair are *not* bit-exact
for arbitrary doubles (``(x * 1000) / 1000`` can differ from ``x`` by
one ULP when the intermediate rounds), so the property asserted here is
the strongest one that is actually true of IEEE-754 arithmetic:

* every round-trip lands within 1 ULP of the input, and
* integer-valued inputs (the common case for ns timestamps and mv
  rails, which the codebase keeps integral) round-trip bit-exactly
  through the multiply-then-divide direction, as long as the scaled
  intermediate stays below 2**53 (``x * k`` is then exact, and the
  correctly-rounded division recovers the representable ``x``).  The
  divide-first direction is *not* exact even for integers —
  ``mv_to_v(1001)`` already rounds — which is exactly why the tolerance
  above is 1 ULP and not 0.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units

#: (forward, inverse) converter pairs exported by repro.units, with the
#: multiplying converter first.
CONVERTER_PAIRS = [
    (units.us_to_ns, units.ns_to_us),
    (units.ms_to_ns, units.ns_to_ms),
    (units.s_to_ns, units.ns_to_s),
    (units.v_to_mv, units.mv_to_v),
]

finite = st.floats(min_value=1e-12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
#: Bounded so value * 1e9 stays below 2**53 for every pair.
integral = st.integers(min_value=1, max_value=10**6)


def ulps_apart(a, b):
    """How many representable doubles separate ``a`` and ``b``."""
    steps = 0
    x = a
    while x != b and steps <= 4:
        x = math.nextafter(x, b)
        steps += 1
    return steps


class TestConverterInverses:
    @pytest.mark.parametrize("fwd, inv", CONVERTER_PAIRS,
                             ids=lambda f: getattr(f, "__name__", "pair"))
    @given(value=finite)
    def test_round_trip_within_one_ulp(self, fwd, inv, value):
        assert ulps_apart(inv(fwd(value)), value) <= 1
        assert ulps_apart(fwd(inv(value)), value) <= 1

    @pytest.mark.parametrize("fwd, inv", CONVERTER_PAIRS,
                             ids=lambda f: getattr(f, "__name__", "pair"))
    @given(value=integral)
    def test_integer_values_round_trip_exactly(self, fwd, inv, value):
        assert inv(fwd(float(value))) == float(value)

    @pytest.mark.parametrize("fwd, inv", CONVERTER_PAIRS,
                             ids=lambda f: getattr(f, "__name__", "pair"))
    @given(value=finite)
    def test_monotone_and_sign_preserving(self, fwd, inv, value):
        assert fwd(value) > 0 and inv(value) > 0
        assert fwd(value * 2) > fwd(value)
