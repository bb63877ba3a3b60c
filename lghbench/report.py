"""Print every metric of every workload, with units, and the failing jobs.

Run from the root of a checkout:

    python3 lghbench/report.py [--seed N] [--seconds S] [--trace]

Runs each workload of ``BENCHMARK.json`` once, then the ``defects``
corpus: jobs whose answers disagree with the oracle at the seed commit.
Their failures are counted, not hidden, so ``fail_frac`` is nonzero
exactly on them.  With ``--trace`` the per-layer metrics, each layer's
share of the traced wall time and the stress check of each workload
follow.
"""

import argparse
import sys

import run
import workloads

# Each workload exists to load one layer: the metric that must be at least
# half of the traced wall time, and counts that must be zero.
STRESS = {
    "interactive": None,
    "groebner": ("poly.buchberger.self_s", ["linalg.rank.calls"]),
    "elimination": ("linalg.rank.self_s", []),
    "windows": ("hochschild.window.self_s", []),
}


def show_run(workload, doc, summary):
    fail_frac = doc["failed"] / doc["attempted"]
    print("%s  (seed %d, %d jobs, %d attempted, fail_frac %.4f)"
          % (workload, summary["seed"], summary["jobs"], doc["attempted"],
             fail_frac))
    for name, m in sorted(doc["metrics"].items()):
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if "samples" in summary:
        print("  %-34s %14d count (%d beyond p90)"
              % ("job_s samples", summary["samples"], summary["beyond_p90"]))
    for job, problems in sorted(summary["failing_jobs"].items()):
        print("  FAIL %s: %s" % (job, "; ".join(sorted(set(problems)))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    untraced = {}
    for workload in list(workloads.WORKLOADS) + list(workloads.EXTRA):
        doc, summary = run.measure(workload, args.seed, args.seconds, False)
        untraced[workload] = doc
        show_run(workload, doc, summary)
    if not args.trace:
        return 0
    ok = True
    for workload, stress in STRESS.items():
        doc, summary = run.measure(workload, args.seed, args.seconds, True)
        show_run(workload + " (traced)", doc, summary)
        shares = ", ".join("%s %.1f%%" % (k, 100 * v) for k, v in
                           sorted(summary["shares"].items(),
                                  key=lambda kv: -kv[1]))
        print("  layer shares of traced wall: %s" % shares)
        m = {k: v["value"] for k, v in doc["metrics"].items()}
        if stress is None:
            e2e = {k: v["value"] for k, v in
                   untraced[workload]["metrics"].items()}
            held = e2e["setup_s"] >= 0.5 * e2e["job_s.p50"]
            what = "setup_s %.3f >= half of job_s.p50 %.3f" % (
                e2e["setup_s"], e2e["job_s.p50"])
        else:
            metric, zeros = stress
            held = m[metric] >= 0.5 * m["trace.wall_s"] and \
                all(m[z] == 0 for z in zeros)
            what = "%s %.3f >= half of trace.wall_s %.3f%s" % (
                metric, m[metric], m["trace.wall_s"],
                "".join(", %s = %d" % (z, m[z]) for z in zeros))
        print("  stress check %s: %s" % ("holds" if held else "FAILS", what))
        ok = ok and held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
