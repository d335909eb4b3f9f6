"""repro — reproduction of "The Design and Performance of a Conflict-Avoiding Cache".

Topham, Gonzalez & Gonzalez, MICRO-30 (1997).

The package is organised bottom-up:

* :mod:`repro.core` — the I-Poly placement function and the baselines it is
  compared against (conventional bit selection, skewed XOR),
  plus the GF(2) machinery and the XOR-tree hardware cost model.
* :mod:`repro.cache` — single-level cache organisations (set-associative,
  fully-associative, skewed, victim, column-associative) and the two-level
  virtual-real organisation with Inclusion that the paper recommends.
* :mod:`repro.memory` — addresses, the page table and the main-memory / bus
  timing model.
* :mod:`repro.trace` — synthetic address-trace generators and the Spec95-like
  workload models used in place of the original benchmark traces.
* :mod:`repro.cpu` — the out-of-order superscalar processor model used for
  the IPC experiments (Tables 2 and 3), including the stride-based memory
  address predictor.
* :mod:`repro.models` — analytical models (Inclusion holes, CLA timing).
* :mod:`repro.analysis` — metric aggregation, Figure-1 histograms and table
  formatting.
* :mod:`repro.experiments` — one driver per table/figure of the paper.
"""

from . import analysis, cache, core, cpu, experiments, memory, models, trace

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "cpu",
    "experiments",
    "cache",
    "core",
    "memory",
    "models",
    "trace",
    "__version__",
]
