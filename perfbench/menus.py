"""The fixed menus every run's inputs are drawn from.

The seeded generator (:mod:`perfbench.gen`) only picks from these
tables; the program under test sees nothing else.  Each table says why
it holds what it holds.  Changing one changes what the benchmark
measures, so do it only in a change that redefines the benchmark, and
measure the baseline again afterwards.
"""

#: All twelve tools: the rows of the paper's Figures 5 and 6.  Their
#: instrumentation styles differ (one procedure for malloc, every
#: memory reference for cache, every instruction for taint), so the
#: rewrite cost per cell spans 10x.
TOOLS = ("branch", "cache", "dyninst", "gprof", "inline", "io",
         "malloc", "pipe", "prof", "syscall", "taint", "unalign")

#: O1 is the paper's save strategy; O4 adds analysis-routine inlining
#: and bracket coalescing.  The two ends of the range run different
#: parts of atom and om, so a change to either end shows.
OPTS = ("O1", "O4")

#: All twenty workload programs (the SPEC92 stand-ins).
WORKLOADS = ("bfs", "bitops", "cc1", "churn", "compress", "crc",
             "eqntott", "espresso", "fib", "fileio", "hashtab", "li",
             "life", "matrix", "merge", "nqueens", "quick", "sc",
             "sieve", "strings")

#: Scale arguments per workload, as (short, mid, long).  A short run
#: takes about 10k simulated cycles for every program that allows it,
#: so per-run set-up (loading, region compiles) dominates it, and an
#: instrumented short run costs about the same whichever program a tool
#: meets: a tool's report adds a near-constant number of cycles, so
#: equal baselines keep its cycle ratio near-constant too.  Mid and long
#: runs retire 20k-400k instructions, so dispatch dominates them.
#: crc, eqntott, life, nqueens and sc cannot make a 10k-cycle run (their
#: smallest runs take 3k-224k instructions of fixed work or jump from
#: 6k to 17k cycles), so they never run instrumented (see ``LIGHT``).
SCALE_ARGS = {
    "bfs": ("10", "160", "400"),
    "bitops": ("4", "80", "300"),
    "cc1": ("1", "10", "30"),
    "churn": ("20", "300", "1000"),
    "compress": ("28", "256", "1024"),
    "crc": ("8", "512", "2048"),
    "eqntott": ("1", "4", "16"),
    "espresso": ("6", "16", "64"),
    "fib": ("9", "13", "17"),
    "fileio": ("14", "50", "200"),
    "hashtab": ("18", "160", "600"),
    "li": ("14", "50", "150"),
    "life": ("1", "2"),
    "matrix": ("4", "8", "12"),
    "merge": ("12", "128", "512"),
    "nqueens": ("3", "5", "6"),
    "quick": ("20", "128", "512"),
    "sc": ("1", "2", "4"),
    "sieve": ("100", "1500", "6000"),
    "strings": ("16", "256", "1024"),
}

#: Workloads that run instrumented, at their short argument.  A tool
#: multiplies simulated cycles by 1.1x (malloc) up to 260x (taint), so
#: only 10k-cycle runs keep an instrumented run within a few seconds.
LIGHT = ("bfs", "bitops", "cc1", "churn", "compress", "espresso", "fib",
         "fileio", "hashtab", "li", "matrix", "merge", "quick", "sieve",
         "strings")

#: Balanced cell sets: a run's 24 (tool, opt) slots take their
#: workloads from these two fixed lists, each shuffled by the seed.
#: Every seed therefore runs the same multiset of workloads and differs
#: only in which tool meets which workload.  This keeps a seed's
#: geometric-mean cycle ratio close to every other seed's: a draw with
#: replacement let one seed pair taint with the heaviest programs and
#: another with the lightest.  fig5-instrument's output check runs 12
#: of these cells, one per tool.
O1_WORKLOADS = ("churn", "compress", "espresso", "fib", "fileio",
                "hashtab", "li", "matrix", "merge", "quick", "sieve",
                "strings")
O4_WORKLOADS = ("bfs", "bitops", "cc1", "churn", "compress", "fib",
                "hashtab", "li", "matrix", "merge", "quick", "sieve")

# ---- fig5-instrument ----------------------------------------------------

#: p90 needs at least ten ops beyond it, so each workload's fixed
#: number of rounds gives at least this many ops (fig5-instrument: nine
#: 12-op rounds, five at O1 and four at O4).
MIN_OPS = 100

# ---- fig6-run -----------------------------------------------------------

#: Uninstrumented runs per round beyond each instrumented run's matched
#: baseline, at the (short, mid, long) argument.  Short runs outnumber
#: the rest so that p50 falls inside their tight cluster (about 10k
#: cycles each, where loading dominates) instead of on the edge between
#: two clusters, where a few ops more or less would move it; mid and
#: long runs bring dispatch-bound work into the mix.  A round is 60 ops
#: (12 instrumented + 12 matched + 36), so the two rounds that cover all
#: 24 cells also pass MIN_OPS.
FIG6_EXTRA_RUNS = (28, 4, 4)

# ---- serve-mix ----------------------------------------------------------

#: Two tenants, so per-tenant cache namespaces both fill and hit.
TENANTS = ("alpha", "beta")

#: Tools for eval requests: the four with the least run-time overhead
#: (1.1x-12x cycles), so the machine work behind a request stays warm
#: and short and the protocol, pool hop and caches carry the cost.
SERVE_TOOLS = ("inline", "io", "malloc", "syscall")

#: Share of each round's distinct requests that are ``run`` (exe bytes
#: of a ``LIGHT`` program at its short argument); the rest are ``eval``
#: (a TaskSpec at the short argument).  Short plain runs form a tight
#: cluster of latencies, and with 65% of requests in it p50 falls
#: inside the cluster instead of on the edge between runs and evals,
#: where a request more or less would move it.  From the second round
#: on, half the evals repeat a cell their tenant asked for in an earlier
#: round (a tenant-cache hit) and half ask for one it has not seen (a
#: miss: instrument, then put).
SERVE_RUN_SHARE = 0.65

#: Steps per client per round, and how many of them are paired: both
#: clients send the identical request at once, so the daemon
#: deduplicates one request in each pair (a dedup rate of 4 in 24
#: instead of whatever collisions chance gives).  Clients meet at a
#: barrier between rounds, so a repeat never races the first request
#: for its cell and cache hits happen exactly where the generator put
#: them.  Five rounds make 120 requests.
SERVE_STEPS_PER_ROUND = 12
SERVE_PAIRED_STEPS = 4

#: The daemon's batching window and pool width are left at their
#: defaults (5 ms, one worker per CPU).  Two clients queue at most two
#: requests, so admission control and shedding are out of reach here.
SERVE_CLIENTS = 2

# ---- seeds ----------------------------------------------------------------

#: Never used while this benchmark or a change measured with it was
#: tuned.  Re-run a claimed gain on this seed before accepting it.
HELD_OUT_SEED = 7919
