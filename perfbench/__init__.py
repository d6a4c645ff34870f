"""Reader→sink benchmark: TCP client → CepServer → DurableEngine → sink.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/DESIGN.md``.
"""
