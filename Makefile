.PHONY: all build test test-quick bench-smoke bench-json bench-cache \
	replay-smoke serve-smoke trace-smoke health-smoke bench-compare \
	dispatch-bench stress clean

all: build

build:
	dune build

# Full tier-1 suite (unit + property + integration + CLI).
test:
	dune runtest

# Fast subset (the @runtest-quick alias): skips dataset-generation,
# CLI-subprocess and integration suites. Use for tight edit-test loops.
test-quick:
	dune build @runtest-quick

# One quick bench scenario (query throughput at default scale, <10s) as
# a smoke check that the bench harness still runs.
bench-smoke:
	dune build @bench-smoke

# Machine-readable bench output: one benchmark run (the qps, session,
# concurrent, append and serve experiments plus the dispatch microbench
# sweep, merged into bench/bench.json), validated by bench/check_json.exe
# and gated against the committed baseline by bench/compare_json.exe;
# then the pool-vs-serial digest stress, the serve -> capture -> replay
# loopback round trip, the request-tracing smoke and the live-health
# smoke.
bench-json:
	dune build @bench-json @bench-compare @stress @serve-smoke @trace-smoke \
		@health-smoke

# Session-cache benchmark: Zipf-repeated query streams, cached vs
# uncached (lib/serve).
bench-cache:
	dune build @bench-cache

# Capture -> replay round trip: record a 200-query canned workload and
# replay it (uncached and cached) expecting zero digest mismatches.
replay-smoke:
	dune build @replay-smoke

# Serve -> capture -> replay over a real loopback socket: an in-process
# olar-serve daemon records a canned workload which the CLI then
# replays against the saved pre-serving lattice; zero mismatches.
serve-smoke:
	dune build @serve-smoke

# Request-tracing smoke: serve a canned workload with tracing sampled
# 1-in-2 and validate the emitted spans file (roots, phase children,
# domain tags, child-first order) plus the /statusz phase accounting.
trace-smoke:
	dune build @trace-smoke

# Live-health smoke: healthy daemon grades ok with live windows and GC
# attribution; a flooded tiny-queue daemon sheds and /healthz agrees
# exactly with the pure Health engine over the /statusz window.
health-smoke:
	dune build @health-smoke

# Perf-regression gate on its own: run the benchmark (unless bench.json
# is up to date) and diff qps against BENCH_T10I4.json (default
# tolerance -20%).
bench-compare:
	dune build @bench-compare

# Dispatch-overhead microbench: null-query requests/sec at 1/2/4/8
# domains through the continuous-dispatch pool.
dispatch-bench:
	dune build @dispatch-bench

# Pool-vs-serial stress: the same deterministic workload executed
# serially and through an 8-domain pool (x3), requiring bitwise-
# identical FNV digests at cache budgets 0 and 8 MiB.
stress:
	dune build @stress

clean:
	dune clean
