"""Operating-point table: shared per configuration, equal to the cold formulas."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.isa import IClass
from repro.pdn import GuardbandModel, LoadLine
from repro.pmu import LimitPolicy, TurboLicenseTable, VFCurve
from repro.pmu.dvfs import pstate_ladder
from repro.soc import PRESETS, System, cannon_lake_i3_8121u, preset
from repro.units import mohm_to_ohm

#: Every preset plus one ablation copy, which gets a table of its own.
CONFIGS = [preset(name) for name in PRESETS] + [
    cannon_lake_i3_8121u().with_overrides(r_ll_mohm=2.4)]


class TestSharing:
    def test_systems_of_one_preset_share_one_table(self):
        first = System(cannon_lake_i3_8121u())
        second = System(cannon_lake_i3_8121u())
        assert first.pmu.table is second.pmu.table

    def test_override_gets_its_own_table(self):
        stock = System(cannon_lake_i3_8121u())
        ablated = System(cannon_lake_i3_8121u().with_overrides(r_ll_mohm=2.4))
        assert ablated.pmu.table is not stock.pmu.table
        assert ablated.pmu.table.guardband.loadline.r_ll_ohm == 0.0024


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_every_answer_equals_the_cold_formula(data):
    """Each entry, on its filling miss and on a later hit, is the cold float.

    The reference models are built fresh from the configuration's fields,
    so they share nothing with the table.  Class tuples come unsorted and
    with repeats: the table keys on the order it is given.
    """
    config = data.draw(st.sampled_from(CONFIGS))
    table = config.operating_points()
    curve = VFCurve(config.vf_points)
    guardband = GuardbandModel(LoadLine(mohm_to_ohm(config.r_ll_mohm)))
    limits = LimitPolicy(curve, guardband, config.vcc_max, config.icc_max)
    licenses = TurboLicenseTable(dict(config.turbo_ceilings))
    ladder = pstate_ladder(curve, config.min_freq_ghz, config.max_turbo_ghz,
                           config.pstate_step_ghz)
    assert table.ladder == tuple(ladder)

    freq = data.draw(st.sampled_from([state.freq_ghz for state in ladder]))
    requested = data.draw(st.sampled_from([state.freq_ghz for state in ladder]))
    class_tuples = st.lists(st.sampled_from(list(IClass)), min_size=1,
                            max_size=config.n_cores).map(tuple)
    classes = data.draw(class_tuples)
    licensed = data.draw(class_tuples)
    iclass = data.draw(st.sampled_from(list(IClass)))

    baseline = curve.vcc_for(freq)

    def allowed(licensed_classes):
        ceiling = min(requested, licenses.package_ceiling(licensed_classes))
        return limits.max_allowed(ceiling, classes, ladder).freq_ghz

    for _ in range(2):
        assert table.vcc(freq) == baseline
        assert table.class_step_v(iclass, freq) == guardband.delta_v(
            iclass, baseline, freq)
        assert table.rail_target(freq, classes) == guardband.target_vcc(
            baseline, classes, freq)
        assert table.verdict(freq, classes) == limits.evaluate(freq, classes)
        assert table.allowed_freq(requested, classes, licensed) == allowed(
            licensed)
        assert table.allowed_freq(requested, classes) == allowed(classes)
