"""Tests for the transparency and detection oracles.

The "broken technique" variants below are deliberate regressions:
``SkipGenSigEdgCF`` forgets the GEN_SIG update on direct exits (a
transparency/detection bug the differential oracle must catch), and
``NoCheckEdgCF`` keeps updating signatures but never branches to the
error handler (errors become escapes).
"""

import pytest
from _broken import NoCheckEdgCF, SkipGenSigEdgCF, edgcf_factory

from repro.checking import Policy
from repro.faults.classify import Category
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.fuzz.oracle import (OracleError,
                               check_detection, check_transparency,
                               claimed_categories, run_oracles,
                               transparency_configs,
                               uses_dynamic_exits,
                               uses_indirect_branches)
from repro.isa import assemble

TINY = FuzzKnobs.tiny()


class TestClaimedCategories:
    def test_edgcf_and_rcf_claim_the_paper_categories(self):
        full = frozenset({Category.B, Category.C, Category.D,
                          Category.E, Category.F})
        assert claimed_categories("edgcf") == full
        assert claimed_categories("rcf") == full

    def test_weaker_baselines_claim_only_hardware(self):
        # the formal sufficient condition fails for ECF/CFCSS/ECCA, so
        # the oracle only holds them to the hardware-detected category
        for technique in ("ecf", "cfcss", "ecca"):
            assert claimed_categories(technique) == frozenset(
                {Category.F})


class TestConfigMatrix:
    def test_indirect_program_drops_static_side(self):
        program = generate_program(0)  # default knobs emit jmpr tables
        assert uses_indirect_branches(program)
        configs = transparency_configs(program)
        assert all(c.pipeline == "dbt" for c in configs)

    def test_intraprocedural_program_gets_whole_cfg_baselines(self):
        program = generate_program(
            1, FuzzKnobs(indirect=False, functions=0))
        assert not uses_indirect_branches(program)
        assert not uses_dynamic_exits(program)
        techniques = {(c.pipeline, c.technique)
                      for c in transparency_configs(program)}
        assert ("static", "cfcss") in techniques
        assert ("static", "ecca") in techniques


class TestTransparency:
    def test_stock_tree_is_transparent(self):
        for seed in (0, 1):
            program = generate_program(seed, TINY)
            failures = check_transparency(program)
            assert failures == [], [f.describe() for f in failures]

    def test_golden_must_halt(self):
        program = assemble("main: jmp main", name="loop")
        with pytest.raises(OracleError):
            check_transparency(program, max_steps=1000)

    def test_skipped_gensig_is_caught(self):
        program = generate_program(0, TINY)
        configs = [c for c in transparency_configs(program)
                   if c.technique == "edgcf"]
        failures = check_transparency(
            program, configs=configs,
            technique_factory=edgcf_factory(SkipGenSigEdgCF))
        assert failures, "broken edgcf must diverge from golden"
        # A false positive is a divergent run, not a crash: captures
        # never run a golden reference of the broken technique, so
        # nothing raises before the run is digested.
        for failure in failures:
            assert failure.is_crash is False, failure.describe()
            assert "detected" in failure.fields, failure.describe()


class TestDetection:
    def test_stock_edgcf_has_no_escapes(self):
        program = generate_program(1, TINY)
        escapes, runs = check_detection(program, "edgcf", max_sites=6)
        assert runs > 0
        assert escapes == []

    def test_missing_check_produces_escapes(self):
        program = generate_program(1, TINY)
        escapes, runs = check_detection(
            program, "edgcf", max_sites=8,
            technique_factory=edgcf_factory(NoCheckEdgCF))
        assert runs > 0
        assert escapes, "unchecked edgcf must leak branch errors"
        assert all(e.category in ("B", "C", "D", "E", "F")
                   for e in escapes)


class TestRunOracles:
    def test_combined_report_on_stock_tree(self):
        program = generate_program(2, TINY)
        report = run_oracles(program, policies=(Policy.ALLBB,),
                             detect=True,
                             detect_techniques=("edgcf",),
                             max_sites=4, seed=2)
        assert report.ok
        assert report.seed == 2
        assert report.transparency_configs > 0
        assert report.detection_runs > 0
