"""Known-defect probe: not a workload and not gated.

Runs the memcached workload's closed-loop client (2 connections, every
reply checked against a per-connection dict) against the server's
threaded mode and its ``-e`` epoll mode, and one short sqlite script
that re-inserts a live key.  Prints each run's error rate and stalls;
NOTES.md records the figures.  Exits 0 whatever it finds.

    python3 walibench/probe.py --runs 5 --requests 300
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def memcached_runs(mode: str, runs: int, requests: int) -> None:
    from workloads import Memcached

    label = mode or "threaded"
    stalled = wrong = attempted = 0
    for seed in range(1, runs + 1):
        rep = Memcached(seed, mode=mode, requests=requests).rep()
        attempted += rep.attempted
        wrong += rep.failed
        stalled += rep.stalls
        print(f"memcached {label:8s} seed={seed}: failed "
              f"{rep.failed}/{rep.attempted} stalls={rep.stalls} "
              f"{'; '.join(rep.notes)}")
    print(f"memcached {label:8s} total: error_rate "
          f"{wrong / max(attempted, 1):.4f} ({wrong}/{attempted}), "
          f"stalled runs {stalled}/{runs}")


def sqlite_reinsert() -> None:
    """``insert k a; insert k b; delete k; get k; count``: a dict model
    answers ``(nil)`` and 0."""
    from repro.apps import build
    from repro.wali import WaliRuntime

    rt = WaliRuntime()
    rt.kernel.vfs.write_file(
        "/tmp/dup.sql",
        b"insert k a\ninsert k b\ncount\ndelete k\nget k\ncount\nexit\n")
    rt.load(build("mini_sqlite"),
            argv=["sqlite", "/data/dup.db", "/tmp/dup.sql"]).run()
    got = rt.kernel.console_output().decode().split()
    print(f"sqlite re-insert of a live key: guest {got}, dict model "
          f"['OK', 'OK', '1', 'DELETED', '(nil)', '0']")
    rt.kernel.blockdev.stop_daemon()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--requests", type=int, default=300,
                    help="requests per connection in each run")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    memcached_runs("", args.runs, args.requests)
    memcached_runs("-e", args.runs, args.requests)
    sqlite_reinsert()
    return 0


if __name__ == "__main__":
    sys.exit(main())
