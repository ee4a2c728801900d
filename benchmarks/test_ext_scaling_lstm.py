"""Benchmarks: the two extension studies (multi-cube scaling, LSTM).

Not paper artifacts — they regenerate the §IX future-work scaling study
and the §VI LSTM-mapping claim with this reproduction's models.
"""

from repro.experiments import ext_lstm, ext_scaling


def test_ext_scaling():
    result = ext_scaling.run()
    print()
    print(result.to_table())
    # Conv-heavy workloads scale nearly linearly to 16 cubes.
    assert result.efficiency_at("scene", 16) > 0.85
    # Efficiency declines monotonically with cube count.
    scene_eff = [r.parallel_efficiency for r in result.scene]
    assert scene_eff == sorted(scene_eff, reverse=True)
    # LSTM (smaller layers, all-gathers) scales worse than the conv net.
    assert (result.efficiency_at("lstm", 16)
            < result.efficiency_at("scene", 16))


def test_ext_lstm_mapping():
    result = ext_lstm.run()
    print()
    print(result.to_table())
    luts = result.gate_luts
    assert luts["gate_i"] == luts["gate_f"] == luts["gate_o"] == "sigmoid"
    assert luts["gate_g"] == "tanh"
    assert result.report.throughput_gops > 10.0
