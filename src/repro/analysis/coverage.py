"""Coverage-matrix builders: the paper's qualitative claims table.

Produces, per technique, the detection behaviour for each branch-error
category (guest-level campaigns) and for faults on the inserted
branches themselves (cache-level campaigns — the Figure-14 safety
column and RCF's headline advantage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.program import Program
from repro.faults import (CampaignExecutor, CampaignResult, Category,
                          Outcome, PipelineConfig,
                          generate_category_faults, run_cache_campaign)
from repro.analysis.report import format_table

#: The default comparison set: the paper's DBT techniques plus the
#: static whole-CFG baselines.
DEFAULT_CONFIGS = (
    PipelineConfig("dbt", None),
    PipelineConfig("static", "cfcss"),
    PipelineConfig("static", "ecca"),
    PipelineConfig("dbt", "ecf"),
    PipelineConfig("dbt", "edgcf"),
    PipelineConfig("dbt", "rcf"),
)


@dataclass
class CoverageMatrix:
    """Per-(config, category) campaign outcomes."""

    program_name: str
    results: dict[str, CampaignResult] = field(default_factory=dict)
    cache_results: dict[str, CampaignResult] = field(
        default_factory=dict)
    #: per-config forensics bundle entries (``--forensics`` only)
    forensics: dict[str, list[dict]] = field(default_factory=dict)

    def covered(self, label: str, category: Category) -> bool:
        return self.results[label].covers(category)

    def table(self) -> str:
        categories = (Category.A, Category.B, Category.C, Category.D,
                      Category.E, Category.F)
        headers = ["configuration"] + [c.value for c in categories]
        if self.cache_results:
            headers.append("inserted-branches")
        rows = []
        for label, result in self.results.items():
            cells: list[object] = [label]
            for category in categories:
                missed = result.count(Outcome.SDC, Outcome.HANG,
                                      category=category)
                cell = "covered" if missed == 0 else f"MISS({missed})"
                infra = result.count(Outcome.INFRA_ERROR,
                                     category=category)
                if infra:
                    # Harness failures: counted apart from coverage.
                    cell += f" !{infra}infra"
                cells.append(cell)
            if self.cache_results:
                cache = self.cache_results.get(label)
                if cache is None:
                    cells.append("-")
                else:
                    cells.append("covered" if cache.undetected == 0
                                 else f"MISS({cache.undetected})")
            rows.append(cells)
        return format_table(
            headers, rows,
            title=f"Coverage matrix — {self.program_name} "
                  "(MISS(n) = n undetected harmful errors)")


def compute_coverage_matrix(program: Program,
                            configs=DEFAULT_CONFIGS,
                            per_category: int = 10,
                            seed: int = 2006,
                            include_cache_level: bool = True,
                            cache_max_sites: int = 20,
                            jobs: int = 1,
                            retries: int | None = None,
                            timeout: float | None = None,
                            journal: str | None = None,
                            resume: bool = False,
                            forensics: int | None = None,
                            forensics_path=None,
                            backend: str = "interp",
                            on_progress=None,
                            stop_check=None) -> CoverageMatrix:
    """Run guest-level (and optionally cache-level) campaigns for each
    configuration.  ``jobs > 1`` parallelizes each campaign's runs;
    ``retries``/``timeout``/``journal``/``resume`` configure the
    fault-tolerant runtime (one journal file serves the whole matrix —
    entries are keyed by config and spec content, so the campaigns
    cannot contaminate each other).  ``forensics=N`` replays up to N
    sampled escapes per configuration through the golden-divergence
    analyzer, appending the entries to ``forensics_path``.
    ``backend`` selects the execution tier every campaign runs on
    (the matrix itself is backend-invariant — digests match across
    tiers — so this only changes wall-clock).
    ``on_progress(completed, total)`` aggregates spec progress across
    every configuration's campaign; ``stop_check`` stops between chunks
    (see :class:`repro.faults.executor.CampaignExecutor`)."""
    faults = generate_category_faults(program, per_category=per_category,
                                      seed=seed)
    matrix = CoverageMatrix(program_name=program.source_name)
    if backend != "interp":
        from dataclasses import replace
        configs = tuple(replace(config, backend=backend)
                        for config in configs)
    guest_total = faults.total() * len(configs)
    guest_done = [0]
    for config in configs:
        def campaign_progress(completed, total,
                              base=guest_done[0]):
            if on_progress is not None:
                on_progress(base + completed, guest_total)
        executor = CampaignExecutor(program, config, jobs=jobs,
                                    retries=retries, timeout=timeout,
                                    journal=journal, resume=resume,
                                    on_progress=campaign_progress,
                                    stop_check=stop_check)
        result = executor.run_campaign(faults)
        guest_done[0] += faults.total()
        matrix.results[config.label()] = result
        if forensics:
            from repro.forensics import write_campaign_forensics
            matrix.forensics[config.label()] = write_campaign_forensics(
                program, config, executor.escape_specs(),
                max_samples=forensics, path=forensics_path)
        if include_cache_level and config.pipeline == "dbt" \
                and config.technique:
            matrix.cache_results[config.label()] = run_cache_campaign(
                program, config, max_sites=cache_max_sites, seed=seed,
                jobs=jobs, retries=retries, timeout=timeout,
                journal=journal, resume=resume,
                stop_check=stop_check)
    return matrix
