"""One set-up sample of the benchmark, taken in a fresh process.

  probe.py WORKLOAD SEED

prints {"setup_s": ...}: the time to import tilq and build the workload's
inputs (for verify-n3 that includes the solve).
"""
import json
import sys
import time


def main(workload, seed):
    start = time.perf_counter()
    import workloads  # imports tilq
    workloads.build(workload, int(seed))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(*sys.argv[1:])
