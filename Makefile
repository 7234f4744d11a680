GO ?= go
QAVLINT := $(CURDIR)/bin/qavlint
FUZZTIME ?= 10s

.PHONY: all build test race cpu lint lint-self qavlint fmt fuzz chaos cluster bench-check nohttptest clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cpu runs the rewrite and plan packages at GOMAXPROCS 1 and 2, so
# both sides of rewrite's worker loop (forEach: redundancy elimination,
# multi-view) run whatever the machine's core count; plan execution is
# serial and runs here for its panic and cancellation tests.
cpu:
	$(GO) test -race -cpu 1,2 ./internal/rewrite ./internal/plan

# qavlint builds the analyzer suite binary into ./bin.
qavlint:
	$(GO) build -o $(QAVLINT) ./cmd/qavlint

# lint runs gofmt, go vet, and the qavlint suite both standalone and
# through go vet's -vettool protocol — the same gate CI applies.
lint: qavlint
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(QAVLINT) ./...
	$(GO) vet -vettool=$(QAVLINT) ./...

# lint-self runs the analyzer suite's own tests (dataflow tables,
# // want testdata modules, repo-clean integration) under -race.
lint-self:
	$(GO) test -race ./internal/lint/...

fmt:
	gofmt -w .

# chaos runs the randomized fault-injection suite under the race
# detector: CHAOS_SEED/CHAOS_RUNS override the fixed defaults.
CHAOS_SEED ?= 20260806
CHAOS_RUNS ?= 200
chaos:
	QAV_CHAOS_SEED=$(CHAOS_SEED) QAV_CHAOS_RUNS=$(CHAOS_RUNS) \
		$(GO) test -race -run '^TestChaos' -v .
	$(GO) test -race -run '^TestSoakMixedLoadWithFaults$$' .

# cluster runs the multi-replica storms (kill/restart/slow rounds and
# router-fault plans against engine-backed replicas) plus the router's
# own unit suite, all under the race detector.
cluster:
	QAV_CHAOS_SEED=$(CHAOS_SEED) QAV_CHAOS_RUNS=$(CHAOS_RUNS) \
		$(GO) test -race -run '^TestCluster' -v .
	$(GO) test -race ./internal/router

# bench-check vets and tests the bench module: bench/ is its own Go
# module, so the root ./... patterns never compile it, and an engine API
# change could otherwise break bench/run.sh with the root suite green.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# nohttptest fails if any binary under cmd/ links net/http/httptest:
# the recorder and test server belong in tests, and the in-process
# fabric (router.HandlerTransport) writes its own responses.
nohttptest:
	@bad=$$(for p in $$($(GO) list ./cmd/...); do \
		$(GO) list -deps $$p | grep -qx 'net/http/httptest' && echo $$p; \
	done); \
	if [ -n "$$bad" ]; then echo "binaries linking net/http/httptest:"; echo "$$bad"; exit 1; fi

# fuzz smoke-runs every fuzz target for FUZZTIME each.
fuzz:
	$(GO) test ./internal/tpq -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schema -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmltree -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rewrite -run '^$$' -fuzz '^FuzzRewriteRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rewrite -run '^$$' -fuzz '^FuzzMCRMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzJoinsMatchTreeDP$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzAnswerBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/router -run '^$$' -fuzz '^FuzzAffinityKey$$' -fuzztime $(FUZZTIME)

clean:
	rm -rf bin
