GO ?= go

.PHONY: all build test vet race race-hot fuzz-smoke bench bench-smoke bench-compare fleet-smoke verify clean

all: build

build:
	$(GO) build ./...

# vet is the static gate: go vet, plus gofmt, which fails on any file it
# would reformat.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot is the focused race gate for the concurrency-heavy packages:
# the evaluation engine, the telemetry substrate, the annealer, the
# kernel packages whose introspection taps feed a shared ring from
# concurrent workers, the write-behind disk and remote cache tiers, the
# multi-tenant job scheduler, and the shared cache access-time table.
race-hot:
	$(GO) test -race ./internal/evalengine ./internal/telemetry ./internal/explore ./internal/pipeline ./internal/sim ./internal/introspect ./internal/evalstore ./internal/evalremote ./internal/xpserve ./internal/timing

# fuzz-smoke fuzzes the two parsers of untrusted cache input — the record
# decoder (disk files, peer bodies) and the key parser (filenames, URLs) —
# for 10s each, on top of their committed seed corpora.
fuzz-smoke:
	$(GO) test ./internal/evalstore -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s
	$(GO) test ./internal/evalengine -run '^$$' -fuzz '^FuzzParseKey$$' -fuzztime 10s

# bench reports the headline reproduction metrics plus the evaluation
# engine's cache hit rate and sim-latency quantiles (cacheHit%, simP50ms,
# simP95ms), then re-records the kernel benchmark set into
# BENCH_kernel.json (ns/op, allocs/op, and speedup over the recorded
# pre-rework baseline).
bench:
	$(GO) test -run '^$$' -bench 'Table4|Table5' -benchtime=1x .
	$(GO) run ./cmd/benchjson -out BENCH_kernel.json -benchtime 20x

# bench-smoke runs every benchmark in the tree exactly once: a cheap guard
# that benchmark code compiles and completes, without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-compare runs the kernel benchmark set fresh and diffs it against
# the committed recording, failing past a 15% ns/op regression.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_kernel.json -benchtime 20x

# fleet-smoke is the multi-process end-to-end gate: real xpserved peers
# serving real xpscalar clients over HTTP — the warm/dead-peer cache
# contract and the cross-process trace-propagation contract (pinned trace
# ID, byte-identical Table 4, one merged Chrome trace).
fleet-smoke:
	$(GO) test ./cmd/xpscalar/ -run 'TestFleet' -count=1 -timeout 600s

# verify is the pre-merge gate: static checks, a full build, the test
# suite under the race detector, and one pass of the headline reproduction
# benchmarks (Table 4 exploration, Table 5 cross-configuration matrix).
verify: vet build race bench

clean:
	$(GO) clean ./...
