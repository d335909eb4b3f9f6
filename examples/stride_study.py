#!/usr/bin/env python3
"""Stride study: a scaled-down Figure 1 with an ASCII histogram.

The paper's Figure 1 sweeps every vector stride from 1 to 4095 through four
cache organisations and plots how many strides fall into each miss-ratio
decile.  This example runs a subsampled sweep (every 8th stride by default,
~2 seconds) and prints the resulting histograms plus the pathological-stride
summary, so you can see the qualitative result quickly.  ``repro-experiments
figure1 --max-stride 4096 --stride-step 1`` runs the dense sweep, and
``repro-experiments claims`` checks Figure 1's claims on every other
stride.

Run it with::

    python examples/stride_study.py [max_stride] [stride_step]
"""

import sys

from repro.experiments import run_figure1


def main(argv):
    max_stride = int(argv[1]) if len(argv) > 1 else 2048
    stride_step = int(argv[2]) if len(argv) > 2 else 8

    print(f"Sweeping strides 1..{max_stride - 1} (step {stride_step}) through "
          "an 8 KB, 2-way, 32-byte-line cache\n")
    result = run_figure1(max_stride=max_stride, sweeps=8, stride_step=stride_step)
    print(result.render())

    print("\nReading the result:")
    print("  * 'a2'       — conventional bit-selection indexing")
    print("  * 'a2-Hx-Sk' — skewed-associative XOR indexing")
    print("  * 'a2-Hp'    — I-Poly indexing, same polynomial in both ways")
    print("  * 'a2-Hp-Sk' — I-Poly indexing, distinct polynomial per way")
    print("\nThe paper's observation: only the skewed I-Poly scheme keeps every")
    print("stride out of the pathological (>50% miss) region.")


if __name__ == "__main__":
    main(sys.argv)
