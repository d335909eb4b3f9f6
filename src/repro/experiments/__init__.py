"""Experiment drivers — one per table/figure of the paper.

============  ==========================================  =======================
Experiment    Paper artefact                              Driver
============  ==========================================  =======================
E-F1          Figure 1 (stride miss-ratio distribution)   :mod:`.figure1`
E-T2 / E-SD   Table 2 (IPC & miss ratio) + std-dev claim  :mod:`.table2`
E-T3          Table 3 (high-conflict programs)            :mod:`.table3`
E-MR          Section 2.1 miss-ratio comparison           :mod:`.miss_ratio_study`
E-HOLE        Section 3.3 hole model vs simulation        :mod:`.holes_study`
E-CA          Section 3.1 column-associative option       :mod:`.column_assoc_study`
E-CP          Section 3 / 3.4 hardware cost & CLA timing  :mod:`.critical_path`
E-RP          replacement x organisation ablation         :mod:`.replacement_study`
============  ==========================================  =======================

The trace-level studies describe a run the same way (:mod:`.grid`): traces
and :class:`OrganisationSpec` organisations, plus frozen option values —
:class:`~repro.engine.SweepOptions` and :class:`TraceOptions` — that the
CLI builds and every driver takes.
Input they reject before simulating raises :class:`InputError`.

:mod:`.claims` checks the paper's claims against one run of these drivers
(``repro-experiments claims``); it is not imported here.
"""

from .column_assoc_study import ColumnAssocStudyResult, run_column_assoc_study
from .config import (
    INDEX_SCHEMES,
    ORGANISATION_KINDS,
    PAPER_HASH_BITS,
    PAPER_L1_8KB,
    PAPER_L1_16KB,
    TABLE2_CONFIGS,
    CacheGeometry,
    InputError,
    OrganisationSpec,
    build_cache,
    table2_processor_configs,
)
from .critical_path import CriticalPathResult, run_critical_path_study
from .figure1 import Figure1Result, run_figure1, stride_miss_ratio
from .grid import ProgramTrace, StrideTrace, TraceOptions, run_grid, simulate
from .holes_study import HoleStudyResult, run_holes_study
from .miss_ratio_study import (
    MissRatioStudyResult,
    run_miss_ratio_study,
    study_organisations,
)
from .replacement_study import ReplacementStudyResult, run_replacement_study
from .table2 import Table2Result, miss_ratio_std_dev, run_table2
from .table3 import Table3Result, run_table3

__all__ = [
    "CacheGeometry",
    "InputError",
    "ORGANISATION_KINDS",
    "OrganisationSpec",
    "ProgramTrace",
    "StrideTrace",
    "TraceOptions",
    "run_grid",
    "simulate",
    "PAPER_L1_8KB",
    "PAPER_L1_16KB",
    "PAPER_HASH_BITS",
    "INDEX_SCHEMES",
    "TABLE2_CONFIGS",
    "build_cache",
    "table2_processor_configs",
    "Figure1Result",
    "run_figure1",
    "stride_miss_ratio",
    "Table2Result",
    "run_table2",
    "miss_ratio_std_dev",
    "Table3Result",
    "run_table3",
    "MissRatioStudyResult",
    "study_organisations",
    "run_miss_ratio_study",
    "ReplacementStudyResult",
    "run_replacement_study",
    "HoleStudyResult",
    "run_holes_study",
    "ColumnAssocStudyResult",
    "run_column_assoc_study",
    "CriticalPathResult",
    "run_critical_path_study",
]
