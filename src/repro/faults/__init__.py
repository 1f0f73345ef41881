"""Transient-fault machinery: the analytic error model (Figures 2/3),
deterministic fault injectors for every pipeline, and campaign
runners with outcome classification."""

from repro.faults.classify import (ALL_ERROR_CATEGORIES, Category,
                                   SDC_CATEGORIES, classify_flag_fault,
                                   classify_landing, classify_offset_fault,
                                   corrupted_target)
from repro.faults.model import (COLUMNS, ErrorModelResult,
                                compute_error_model,
                                compute_suite_error_model)
from repro.faults.injector import (CacheFaultSpec, CacheLevelInjector,
                                   DbtInjector, DirectionFault, FaultSpec,
                                   FlagBitFault, NativeInjector,
                                   OffsetBitFault, RedirectFault,
                                   RegisterFaultSpec, SchedFaultSpec,
                                   SchedInjector,
                                   enumerate_cache_branch_sites)
from repro.faults.sampling import (run_effectiveness_campaign,
                                   sample_model_faults)
from repro.faults.campaign import (CampaignResult, CategoryFaults,
                                   Golden, Outcome, Pipeline,
                                   PipelineConfig, RunRecord,
                                   enumerate_instrumentation_branch_sites,
                                   generate_category_faults,
                                   generate_register_faults,
                                   generate_sched_faults,
                                   generate_thread_faults, run_campaign,
                                   run_cache_campaign,
                                   run_data_fault_campaign)
from repro.faults.cache import (cache_stats, campaign_key, clear_caches,
                                program_digest, set_cache_enabled)
from repro.faults.campaign import infra_error_record
from repro.faults.executor import (CampaignExecutor, MapError,
                                   parallel_map, resolve_jobs)
from repro.faults.journal import CampaignJournal, spec_digest
from repro.faults.supervisor import (PoolSupervisor, SupervisedTask,
                                     WorkerInitError)

__all__ = [
    "ALL_ERROR_CATEGORIES", "Category", "SDC_CATEGORIES",
    "classify_flag_fault", "classify_landing", "classify_offset_fault",
    "corrupted_target",
    "COLUMNS", "ErrorModelResult", "compute_error_model",
    "compute_suite_error_model",
    "CacheFaultSpec", "CacheLevelInjector", "DbtInjector",
    "DirectionFault", "FaultSpec", "FlagBitFault", "NativeInjector",
    "OffsetBitFault", "RedirectFault", "RegisterFaultSpec",
    "SchedFaultSpec", "SchedInjector",
    "enumerate_cache_branch_sites",
    "generate_register_faults", "generate_sched_faults",
    "generate_thread_faults", "run_data_fault_campaign",
    "CampaignResult", "CategoryFaults", "Golden",
    "Outcome", "Pipeline", "PipelineConfig", "RunRecord",
    "enumerate_instrumentation_branch_sites", "generate_category_faults",
    "run_campaign", "run_cache_campaign",
    "run_effectiveness_campaign",
    "sample_model_faults",
    "CampaignExecutor", "MapError", "parallel_map", "resolve_jobs",
    "CampaignJournal", "spec_digest", "infra_error_record",
    "PoolSupervisor", "SupervisedTask", "WorkerInitError",
    "cache_stats", "campaign_key", "clear_caches", "program_digest",
    "set_cache_enabled",
]
