"""Section 6.5 — the side-channel variant, quantified.

Its claims: the ``side_channel.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import side_channel_inference
from repro.analysis.figures import format_table


def test_bench_sidechannel(benchmark):
    result = benchmark.pedantic(side_channel_inference, rounds=1, iterations=1)

    banner("Section 6.5: instruction-class inference accuracy")
    for location, accuracy in result.accuracy.items():
        print(f"\n{location}: {accuracy * 100:.0f}% of victim phases "
              f"classified correctly")
        matrix = result.confusion[location]
        wrong = [(a, b, n) for (a, b), n in matrix.items() if a != b]
        if wrong:
            print(format_table(["victim ran", "spy inferred", "count"],
                               [[a, b, n] for a, b, n in wrong]))
        else:
            print("  (no confusions)")

    banner("Key recovery from key-dependent code paths")
    for location, bits in result.key_bits_recovered.items():
        print(f"{location}: {bits}/{result.key_bits_total} key bits recovered")

    for location, accuracy in result.accuracy.items():
        benchmark.extra_info[f"accuracy_{location}"] = round(accuracy, 3)
