"""Ablation benches for design choices of the I-Poly cache organisations.

Not a paper artefact per se, but the design-space questions the paper's
Section 2/3 discussion raises:

* skewed versus non-skewed I-Poly indexing (a2-Hp vs a2-Hp-Sk);
* irreducible versus reducible modulus polynomials;
* replacement-policy interaction with skewing (LRU vs random vs PLRU).
"""

import pytest

from repro.cache.replacement import make_replacement_policy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.index import IPolyIndexing
from repro.experiments.figure1 import run_figure1
from repro.trace.workloads import build_trace


@pytest.mark.benchmark(group="ablation")
def test_skewing_ablation(benchmark):
    """Skewed I-Poly should be at least as conflict-resistant as non-skewed."""
    result = benchmark.pedantic(
        lambda: run_figure1(max_stride=1024, sweeps=8, stride_step=2,
                            schemes=["a2-Hp", "a2-Hp-Sk"]),
        rounds=1, iterations=1)
    summary = result.summary()
    print()
    print(result.render())
    assert summary["a2-Hp-Sk"] <= summary["a2-Hp"]


@pytest.mark.benchmark(group="ablation")
def test_irreducible_vs_reducible_polynomial(benchmark):
    """An irreducible modulus avoids the stride pathologies a reducible one keeps.

    x^7 + 1 is reducible (divisible by x + 1); using it as the modulus leaves
    entire stride families mapping onto few sets, while the default
    irreducible polynomial spreads them.
    """
    def run(poly):
        fn = IPolyIndexing(128, ways=2, skewed=False, address_bits=19,
                           polynomials=[poly])
        cache = SetAssociativeCache(8 * 1024, 32, 2, index_function=fn)
        worst = 0.0
        for stride in range(2, 512, 2):
            cache.flush()
            cache.reset_stats()
            for sweep in range(6):
                for i in range(64):
                    cache.access(i * stride * 8)
            worst = max(worst, cache.stats.miss_ratio)
        return worst

    reducible = 0b10000001          # x^7 + 1 = (x+1)(x^6+x^5+...+1)
    irreducible = 0b10000011        # x^7 + x + 1

    worst_irreducible = benchmark.pedantic(lambda: run(irreducible),
                                           rounds=1, iterations=1)
    worst_reducible = run(reducible)
    print(f"\nworst stride miss ratio: irreducible={worst_irreducible:.2f} "
          f"reducible={worst_reducible:.2f}")
    assert worst_irreducible <= worst_reducible


@pytest.mark.benchmark(group="ablation")
def test_replacement_policy_interaction(benchmark, bench_accesses):
    """LRU, random and PLRU all keep the I-Poly advantage on a bad program."""
    def miss_ratio(policy_name):
        fn = IPolyIndexing(128, ways=2, skewed=True, address_bits=19)
        cache = SetAssociativeCache(8 * 1024, 32, 2, index_function=fn,
                                    replacement=make_replacement_policy(policy_name))
        for access in build_trace("swim", length=bench_accesses // 2):
            cache.access(access.address, is_write=access.is_write)
        return cache.stats.load_miss_ratio

    ratios = benchmark.pedantic(
        lambda: {name: miss_ratio(name) for name in ("lru", "random", "plru")},
        rounds=1, iterations=1)
    print(f"\nswim / I-Poly skewed, by replacement policy: "
          + ", ".join(f"{k}={100 * v:.1f}%" for k, v in ratios.items()))
    # Whatever the replacement policy, the I-Poly cache stays far below the
    # conventional cache's ~65-75% miss ratio on this workload.
    for name, ratio in ratios.items():
        assert ratio < 0.35, name
