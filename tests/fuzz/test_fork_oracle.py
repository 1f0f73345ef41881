"""The fork oracle: on generated programs, every fault's forked run
(rewound from the golden ladder, stopping where it rejoins the golden
run) must give the record a fresh run gives, field for field."""

from __future__ import annotations

import pytest

from repro.checking import Policy
from repro.faults.campaign import PipelineConfig
from repro.faults.injector import FaultSpec, OffsetBitFault
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.fuzz.oracle import ForkDivergence, check_fork

#: Static rewriting needs direct branches; ECCA also needs no returns.
#: The DBT translates indirect branches too.
KNOBS = FuzzKnobs.tiny().scaled(indirect=False)
LANES = (("native", None), ("static", "rcf"), ("static", "ecca"))
#: DBT recovery runs run fresh: only runs without recovery fork there.
DBT_LANES = (("dbt", "rcf"), ("dbt", None))
BACKENDS = ("interp", "block")
COMBOS = [(pipeline, technique, backend, recover)
          for pipeline, technique in LANES
          for backend in BACKENDS
          for recover in (False, True)]
COMBOS += [(pipeline, technique, backend, False)
           for pipeline, technique in DBT_LANES
           for backend in BACKENDS]
#: Three programs for the first six combinations, two for the rest.
SEEDS = 38


def _program(seed: int, pipeline: str, technique: str | None):
    if pipeline == "dbt":
        return generate_program(seed, FuzzKnobs.tiny())
    knobs = KNOBS.scaled(functions=0) if technique == "ecca" else KNOBS
    return generate_program(seed, knobs)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_forked_runs_match_fresh_runs(seed):
    """Each seed runs one pipeline, backend and recovery setting, in
    turn, so every combination sees at least two programs."""
    pipeline, technique, backend, recover = COMBOS[seed % len(COMBOS)]
    config = PipelineConfig(pipeline, technique, Policy.ALLBB,
                            backend=backend, recover=recover)
    program = _program(seed, pipeline, technique)
    divergences, runs = check_fork(program, config, seed=seed)
    assert runs > 4
    assert [d.describe() for d in divergences] == []


def test_divergence_names_the_differing_fields():
    divergence = ForkDivergence(
        label="native", spec=FaultSpec(0x1000, 1, OffsetBitFault(3)),
        fields=("icount", "cycles"))
    assert divergence.describe().endswith("[icount, cycles]")
