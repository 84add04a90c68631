"""Time one set-up in a fresh process and print it in seconds: from the
first line of this file through importing `mpslc` from the checkout's
`src/` until the workload's inputs and parameters are ready.

    python3 bench/setup_once.py grid 1

`run.py` runs this several times per run and reports the median as
`setup_s`, so the import, which one process pays once, is sampled as
often as the rest of the set-up.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402


def main(argv) -> int:
    workload, seed = argv
    run.import_program()
    import workloads

    workloads.WORKLOADS[workload](int(seed))
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
