#!/usr/bin/env python3
"""Two-level virtual-real hierarchy: Inclusion, holes, and the analytical model.

Section 3 of the paper argues that the clean way to deploy I-Poly indexing at
L1 is the two-level virtual-real organisation of Wang, Baer & Levy: a
virtually-indexed, virtually-tagged L1 (so the hash can use as many address
bits as it likes) over a physically-indexed L2 that enforces Inclusion.  The
cost is the occasional "hole": when L2 evicts a line that is still live in
L1, the L1 copy must be invalidated.

This example builds that hierarchy — an 8 KB skewed I-Poly L1 indexed by
virtual addresses over a physically-indexed conventional L2 — drives it with
a synthetic workload, and compares the measured hole rate per L2 miss with
the analytical prediction of equations (vii)-(ix).

Both levels are described once, as ``OrganisationSpec`` values, and built
for the chosen engine.  ``--engine vectorized`` runs the same experiment
through the batch engine (:class:`repro.engine.BatchVirtualRealHierarchy`):
the trace is synthesised as NumPy columns (``workload_arrays``), translation
runs array-at-a-time, and both cache levels and the Inclusion protocol run
in one trace-order loop (compiled when a C compiler is available),
producing identical counters.  ``--json`` emits the
measurements as a machine-readable object instead of the narrated report.

Run it with::

    python examples/virtual_real_hierarchy.py
    python examples/virtual_real_hierarchy.py --l2-kilobytes 1024 --accesses 100000
    python examples/virtual_real_hierarchy.py --engine vectorized --json
"""

import argparse
import json
import sys

from repro.cache import VirtualRealHierarchy, WritePolicy
from repro.engine import ENGINES, AddressBatch, BatchVirtualRealHierarchy
from repro.experiments import CacheGeometry, OrganisationSpec
from repro.memory import PageTable
from repro.models import HoleModel
from repro.trace import build_trace
from repro.trace.batching import workload_arrays

PAGE_SIZE = 4096
L1_BYTES = 8 * 1024
BLOCK = 32

#: The 8 KB two-way skewed I-Poly L1 (19 hashed address bits).
L1_SPEC = OrganisationSpec(scheme="a2-Hp-Sk", geometry=CacheGeometry(L1_BYTES))


def l2_spec(l2_bytes):
    """A conventional two-way write-back L2 of ``l2_bytes``."""
    return OrganisationSpec(scheme="a2", geometry=CacheGeometry(l2_bytes),
                            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)


def run_experiment(l2_bytes, accesses, engine, seed):
    """Simulate the hierarchy on the chosen engine; returns a result dict."""
    page_table = PageTable(page_size=PAGE_SIZE, allocation="scatter", seed=seed)
    l1, l2 = L1_SPEC.build(engine), l2_spec(l2_bytes).build(engine)
    model = HoleModel(l1_bytes=L1_BYTES, l2_bytes=l2_bytes, block_size=BLOCK)

    # A mixed workload: the streaming-heavy swim model exercises L2 capacity.
    if engine == "vectorized":
        hierarchy = BatchVirtualRealHierarchy(l1, l2, page_table)
        hierarchy.run(AddressBatch.from_arrays(
            *workload_arrays("swim", length=accesses, seed=seed)))
    else:
        hierarchy = VirtualRealHierarchy(l1, l2, translate=page_table.translate,
                                         page_size=PAGE_SIZE)
        for access in build_trace("swim", length=accesses, seed=seed):
            hierarchy.access(access.address, is_write=access.is_write)

    return {
        "engine": engine,
        "workload": "swim",
        "seed": seed,
        "accesses": accesses,
        "l1_bytes": L1_BYTES,
        "l2_bytes": l2_bytes,
        "block_size": BLOCK,
        "page_size": PAGE_SIZE,
        "l1_load_miss_ratio": hierarchy.l1.stats.load_miss_ratio,
        "l2_misses": hierarchy.l2.stats.misses,
        "holes_created": hierarchy.holes_created,
        "alias_invalidations": hierarchy.alias_invalidations,
        "hole_rate_per_l2_miss": hierarchy.hole_rate_per_l2_miss,
        "model_hole_probability": model.hole_probability,
        "page_faults": page_table.page_faults,
        "inclusion_holds": hierarchy.check_inclusion(),
    }


def render(result):
    l2_kb = result["l2_bytes"] // 1024
    lines = [
        f"8 KB skewed I-Poly L1 (virtual index) over {l2_kb} KB conventional "
        f"L2 (physical index), {result['accesses']} accesses of the "
        f"'{result['workload']}' model [{result['engine']} engine]",
        "",
        f"L1 load miss ratio:        {result['l1_load_miss_ratio']:8.2%}",
        f"L2 misses:                 {result['l2_misses']:8d}",
        f"L1 holes created:          {result['holes_created']:8d}",
        f"alias invalidations:       {result['alias_invalidations']:8d}",
        f"page faults:               {result['page_faults']:8d}",
        f"hole rate per L2 miss:     {result['hole_rate_per_l2_miss']:8.4f}",
        f"analytical P_H (eq. ix):   {result['model_hole_probability']:8.4f}",
        f"inclusion invariant holds: {result['inclusion_holds']}",
        "",
        "The analytical model is an upper-bound-style estimate assuming",
        "direct-mapped levels and fully uncorrelated indices; the simulated",
        "hierarchy sits at or below it, supporting the paper's conclusion",
        "that holes have a negligible effect on L1 miss ratio.",
    ]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--l2-kilobytes", type=int, default=256,
                        help="L2 capacity in KB (default 256)")
    parser.add_argument("--accesses", type=int, default=60_000,
                        help="trace length (default 60000)")
    parser.add_argument("--engine", choices=list(ENGINES), default="reference",
                        help="scalar reference protocol or the batch engine")
    parser.add_argument("--seed", type=int, default=2027,
                        help="seed for the trace model and page allocator")
    parser.add_argument("--json", action="store_true",
                        help="emit the measurements as machine-readable JSON")
    args = parser.parse_args(argv)

    result = run_experiment(args.l2_kilobytes * 1024, args.accesses,
                            args.engine, args.seed)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
