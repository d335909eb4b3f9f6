#!/usr/bin/env python3
"""Processor-level study: how cache indexing moves IPC on an out-of-order core.

This is a miniature of the paper's Table 2/3 experiment: the synthetic
models of the three high-conflict Spec95 programs (tomcatv, swim, wave5) and
one well-behaved program (gcc) are run on the 4-way out-of-order core of
Section 4 under four machine configurations:

* 8 KB conventional cache;
* 16 KB conventional cache (doubling the cache);
* 8 KB skewed I-Poly cache with the XOR stage on the critical path;
* the same plus the stride-based memory address predictor.

Run it with::

    python examples/processor_ipc.py [instructions_per_program]

Expect the high-conflict programs to gain 25-50% IPC from I-Poly indexing —
more than they gain from doubling the cache — while gcc barely moves, and
the address predictor to recover the cycle lost to the XOR stage.
"""

import sys

from repro.cpu import OutOfOrderProcessor, ProcessorConfig, build_program

CONFIGURATIONS = {
    "8K conventional": dict(),
    "16K conventional": dict(cache_size_bytes=16 * 1024),
    "8K I-Poly (XOR in path)": dict(index_scheme="a2-Hp-Sk",
                                    xor_in_critical_path=True),
    "8K I-Poly + addr. pred.": dict(index_scheme="a2-Hp-Sk",
                                    xor_in_critical_path=True,
                                    address_prediction=True),
}

PROGRAMS = ["tomcatv", "swim", "wave5", "gcc"]


def main(argv):
    instructions = int(argv[1]) if len(argv) > 1 else 15_000

    print(f"Simulating {instructions} committed instructions per program "
          "(paper: 100M)\n")
    header = f"{'program':<10}" + "".join(f"{label:>26}" for label in CONFIGURATIONS)
    print(header)
    print("-" * len(header))

    baseline_ipc = {}
    for program_name in PROGRAMS:
        # One program for every configuration: the compiled core builds
        # its columns once and shares them (without a C compiler the Python
        # core regenerates the instruction stream per configuration).
        program = build_program(program_name, length=instructions)
        cells = []
        for label, overrides in CONFIGURATIONS.items():
            processor = OutOfOrderProcessor(
                ProcessorConfig(index_engine="vectorized", **overrides))
            result = processor.run(program)
            if label == "8K conventional":
                baseline_ipc[program_name] = result.ipc
            gain = 100 * (result.ipc / baseline_ipc[program_name] - 1)
            cells.append(f"{result.ipc:6.2f} ipc {result.load_miss_ratio_percent:5.1f}%m "
                         f"{gain:+5.1f}%")
        print(f"{program_name:<10}" + "".join(f"{c:>26}" for c in cells))

    print("\nColumns show IPC, load miss ratio, and IPC change versus the 8K")
    print("conventional cache.  The high-conflict programs benefit from I-Poly")
    print("indexing far more than from doubling the cache; the address")
    print("predictor hides the XOR stage's extra cycle.")


if __name__ == "__main__":
    main(sys.argv)
