"""Extension — overall effectiveness via statistical soft-error
injection (paper Section 7: "soft-error injection to measure the
actual effectiveness of our techniques").

Faults are sampled from the same distribution the Figure-2 error model
integrates over (every dynamic branch execution x offset/flag bit
equally likely), so the measured outcome rates cross-validate the
analytic model: the hardware-detected rate tracks P(F), the benign
rate tracks P(no-error), and the techniques' job is to convert the
remaining SDC mass into signature detections.
"""

from repro.analysis.report import format_table
from repro.faults import (Category, Outcome, PipelineConfig,
                          compute_error_model,
                          run_effectiveness_campaign)
from repro.workloads import load

PROGRAMS = ("254.gap", "197.parser")
#: outcomes nothing reported: silent corruption and hangs
UNREPORTED_HARM = (Outcome.SDC, Outcome.HANG)
COUNT = 60


def _measure():
    data = {}
    for name in PROGRAMS:
        program = load(name, "test")
        model = compute_error_model(program)
        campaigns = {}
        for technique in (None, "ecf", "edgcf", "rcf"):
            config = PipelineConfig("dbt", technique)
            campaigns[technique or "none"] = run_effectiveness_campaign(
                program, config, count=COUNT, seed=2006)
        data[name] = (model, campaigns)
    return data


def test_overall_effectiveness(benchmark, publish):
    data = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for name, (model, campaigns) in data.items():
        for label, result in campaigns.items():
            rows.append([
                name, label,
                f"{result.rate(Outcome.BENIGN):.2f}",
                f"{result.rate(Outcome.DETECTED_HARDWARE):.2f}",
                f"{result.rate(Outcome.DETECTED_SIGNATURE):.2f}",
                f"{result.rate(Outcome.SDC):.2f}",
                f"{result.rate(Outcome.HANG):.2f}",
            ])
        rows.append([name, "(model)",
                     f"{model.probability(Category.NO_ERROR):.2f}",
                     f"{model.probability(Category.F):.2f}", "-", "-",
                     "-"])
    text = ("Overall effectiveness — model-sampled soft errors "
            f"({COUNT} per config)\n"
            + format_table(["benchmark", "config", "benign", "hw-det",
                            "sig-det", "SDC", "hang"], rows))
    publish("effectiveness", text)

    for name, (model, campaigns) in data.items():
        none = campaigns["none"]
        # Unprotected runs suffer silent corruption.
        assert none.rate(Outcome.SDC) > 0.0, name
        # Every technique eliminates (or at least strictly reduces) the
        # unreported-harm mass; the paper techniques reduce it to zero
        # under ALLBB on these samples.
        for label in ("ecf", "edgcf", "rcf"):
            result = campaigns[label]
            assert result.rate(*UNREPORTED_HARM) <= \
                none.rate(*UNREPORTED_HARM)
        assert campaigns["edgcf"].rate(*UNREPORTED_HARM) == 0.0, name
        assert campaigns["rcf"].rate(*UNREPORTED_HARM) == 0.0, name
        # Cross-validation against the analytic model (loose bounds:
        # 60 samples).
        hw = none.rate(Outcome.DETECTED_HARDWARE)
        assert abs(hw - model.probability(Category.F)) < 0.20, name
        benign = none.rate(Outcome.BENIGN)
        assert abs(benign - model.probability(Category.NO_ERROR)) \
            < 0.20, name
