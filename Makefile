GO ?= go

# Pinned auxiliary linter versions — the single source of truth; CI's
# unconditional staticcheck/govulncheck steps and lint-deps both read them.
# `make lint` skips the tools (with a notice) only when they are not
# installed, so offline local runs still lint with esidb-lint + vet.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test race vet fmt-check lint lint-tool lint-new lint-deps staticcheck govulncheck ci bench cluster-smoke replication-smoke crash-matrix obs-overhead-smoke index-smoke bench-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

lint-tool:
	$(GO) build -o bin/esidb-lint ./cmd/esidb-lint

# Fast inner loop while writing an analyzer: fixture tests + roster pin only,
# no whole-tree load.
lint-new:
	$(GO) test ./internal/analysis/ -run 'Fixture|SuiteComplete' -count=1

# Install the pinned auxiliary linters (network required; CI and one-time
# developer setup, never part of an offline build).
lint-deps:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Unconditional pinned runs — what CI uses; fails hard if the tool cannot run.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

lint: fmt-check vet lint-tool
	$(GO) vet -vettool=$(CURDIR)/bin/esidb-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin: honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (pin: golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

ci: lint build race cluster-smoke replication-smoke crash-matrix obs-overhead-smoke index-smoke bench-smoke

# End-to-end differential check: a 3-shard loopback HTTP cluster must
# answer range, compound and k-NN queries identically to a single node.
cluster-smoke:
	bash scripts/cluster-smoke.sh

# Replication fault drill: 2 shards × 2 replicas over loopback HTTP, load
# through the coordinator (semi-sync follower acks), kill a leader,
# promote its follower, and assert whole answers + accepted writes after.
replication-smoke:
	bash scripts/replication-smoke.sh

# Observability cost gate: always-on query statistics (tracing off) must
# cost the range-query hot path less than 3%.
obs-overhead-smoke:
	bash scripts/obs-overhead-smoke.sh

# S-tree sublinearity gate: on selective workloads the indexed mode must
# visit strictly fewer tree nodes per query than there are candidates.
index-smoke:
	bash scripts/index-smoke.sh

# The benchmark harness is its own module (benchmark/go.mod), so the root
# build and `go test ./...` never compile it. This proves an API-deleting
# change still builds it and that its smoke suite (TestSmokeSuite) passes.
bench-smoke:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Durability fault matrix: kill the log at every write/fsync budget and the
# storage engine at every seal/compaction failpoint, recover, and assert no
# acked write is lost, no unacked write half-applies, and the recovered
# store matches an uncrashed twin. The cluster package adds the replication
# legs: followers crashing mid-catch-up reopen and converge back to leader
# parity. A listed package in which the pattern matches no test fails the
# target: a renamed suite must not pass silently.
crash-matrix:
	@out="$$($(GO) test -race -count=1 -run 'Crash|Recovery|WAL|Compact|Drain' ./internal/core/ ./internal/store/ ./internal/store/segment/ ./internal/server/ ./internal/cluster/ 2>&1)"; \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -q 'no tests to run'; then \
		echo "crash-matrix: the -run pattern matched no test in a listed package"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

clean:
	rm -rf bin
