"""Pipeline benchmark for endpoint_rt: workloads, output gate and tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
