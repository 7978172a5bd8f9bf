# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test race bench bench-smoke bench-check determinism cover fuzz-smoke lint live-smoke loc traffic

# staticcheck is pinned so local runs and CI agree on findings; when the
# binary is absent (offline sandboxes), lint still runs simlint + go vet
# and prints a skip notice instead of failing.
STATICCHECK_VERSION := 2025.1.1
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...
	go test -race -count=1 -run 'Deterministic|Parallel|Golden' ./internal/...

# live-smoke exercises the netapi/livenet backend over real loopback
# sockets (a UDP + TLS DNS responder on 127.0.0.1 ephemeral ports) and
# runs the backend conformance suite against simnet and livenet, all
# under the race detector. Hermetic: no external network access.
live-smoke:
	go test -race -count=1 ./internal/netapi/...

# lint runs the repo's own analyzer suite (cmd/simlint: determinism,
# pool-ownership, hot-path, backend-purity and dead-API rules), go vet,
# and staticcheck.
# simlint fails on any finding not covered by a //simlint:allow pragma.
lint:
	go run ./cmd/simlint ./...
	go vet ./...
ifdef STATICCHECK
	staticcheck ./...
else
	@echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"
endif

# bench runs the repository benchmark (bench/README.md): all five
# workloads plus the per-layer numbers, a few minutes.
bench:
	bash bench/run.sh

# cover prints the per-function coverage summary CI publishes.
cover:
	go test -coverprofile=/tmp/cover.out ./...
	go tool cover -func=/tmp/cover.out | tail -20

# traffic shows which code the default experiment suite executes: it
# builds cmd/experiments with coverage of every repro package (main
# included: with -coverpkg=repro/internal/... alone the binary writes no
# counters), runs the suite, and prints each package's statement
# coverage. Code no experiment reaches is code only tests keep alive.
# The textfmt profile opens with go tool cover -html. Not a gate.
TRAFFIC := /tmp/repro-traffic

traffic:
	rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)/cov
	go build -cover -coverpkg=repro/... -o $(TRAFFIC)/experiments ./cmd/experiments
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/experiments > /dev/null
	go tool covdata percent -i=$(TRAFFIC)/cov
	go tool covdata textfmt -i=$(TRAFFIC)/cov -o $(TRAFFIC)/traffic.out
	@echo "traffic: go tool cover -html=$(TRAFFIC)/traffic.out"

# fuzz-smoke runs each fuzz target briefly against its seed corpus plus
# fresh mutations; crashes land in testdata/fuzz as regression inputs.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/dnsmsg
	go test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/tlsmini
	go test -run '^$$' -fuzz FuzzServerRecords -fuzztime 10s ./internal/tlsmini
	go test -run '^$$' -fuzz FuzzPrefixReader -fuzztime 10s ./internal/dox
	go test -run '^$$' -fuzz FuzzParsePacket -fuzztime 10s ./internal/quic
	go test -run '^$$' -fuzz FuzzParseExchange -fuzztime 10s ./internal/h3
	go test -run '^$$' -fuzz FuzzH2Frames -fuzztime 10s ./internal/h2

# bench-smoke compiles and runs every benchmark for one iteration, so
# benchmarks cannot bit-rot.
bench-smoke:
	go test -run XXX -bench . -benchtime 1x ./...

# bench-check gates the simulated results on the committed golden
# digests: it runs the benchmark module's tests, then a short run of
# each workload at seed 2022, and fails unless every run reports
# "correct":true (its digests match bench/golden/). Run times are not
# judged here.
BENCH_WORKLOADS := single_query web_load proxy_cache hostile_net suite

bench-check:
	go test -C bench ./...
	@for w in $(BENCH_WORKLOADS); do \
		line=$$(bash bench/run.sh --workload $$w --seed 2022 --seconds 4 --trace 0) || exit 1; \
		echo "$$line"; \
		case "$$line" in \
			*'"correct":true'*) echo "$$w: digests match bench/golden" ;; \
			*) echo "bench-check: $$w does not match bench/golden" >&2; exit 1 ;; \
		esac; \
	done

# determinism runs the byte-identity tests: TestReportsMatchGolden (the
# whole suite at parallelism 1 and 8, each run against the golden
# reports) and the campaign-level Deterministic tests.
determinism:
	go test -count=1 -run 'Deterministic|Golden' ./...

# loc prints the non-test Go lines of each internal/, cmd/ and examples/
# package, then the non-test Go lines of the whole tree outside bench/:
# the size figure a simplification change reports before and after.
loc:
	@for d in $$(find internal cmd examples -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%7d  total outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
