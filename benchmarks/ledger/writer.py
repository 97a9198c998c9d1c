"""The ``ingest_reload`` writer, as a child process of the benchmark.

    python writer.py <image.cdb> <parcel> [<cpu>,<cpu>...]

Prints ``ready``, then runs one ``workloads.write_cycle`` per cycle number
read from standard input and answers each with its commit seconds, one
number a line.  End of input ends it, so it cannot outlive the benchmark
process that holds the other end of the pipe.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import run

run.import_program()

import workloads  # noqa: E402  (needs the path set above)


def main(argv: list[str]) -> int:
    source, parcel = Path(argv[0]), argv[1]
    cpus = [int(cpu) for cpu in argv[2].split(",")] if len(argv) > 2 and argv[2] else []
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)
    baseline = workloads.feed_baseline(parcel)
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(workloads.write_cycle(source, int(line), parcel, baseline)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
