# Makefile — thin entry points over the Go toolchain and ci.sh.
#
#   make build   compile everything
#   make test    unit tests
#   make lint    go vet + the project's own analyzers (unroller-vet)
#   make vet-json  the analyzer suite with machine-readable findings
#   make vettool rebuild unroller-vet and run it under `go vet`
#                (unitchecker mode, incremental + cached)
#   make race    unit tests under the race detector
#   make fuzz    smoke run of every fuzz target (bitpack, core, the
#                routing reference, the dataplane shortest-path
#                installer and journal recovery against its reference
#                recovery 5s each, dataplane packet wire format,
#                collectorsvc report frames, journal segments, and the
#                static FIB verifier 10s each)
#   make oracle  the cross-plane verification gate under -race:
#                every named scenario at 1/4/16 workers reconciled against
#                static FIB ground truth, plus the multi-seed property
#                sweep
#   make cluster the collectord cluster gate under -race: membership
#                convergence, asymmetric/full partitions, node kill +
#                journal-reconciled rejoin, exactly-once cluster-wide
#   make bench   full benchmark run with allocation stats
#   make ci      the full gate (ci.sh): build, a test file in every main
#                package, vet, unroller-vet, race tests, oracle gate,
#                fuzz smoke, perfbench (its own module: vet, tests and a
#                1 s run of each workload), bench smoke

GO ?= go

.PHONY: build test lint vet-json vettool race fuzz oracle cluster bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/unroller-vet ./...

vet-json:
	$(GO) run ./cmd/unroller-vet -json ./...

vettool:
	$(GO) build -o bin/unroller-vet ./cmd/unroller-vet
	$(GO) vet -vettool=bin/unroller-vet ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 5s ./internal/bitpack
	$(GO) test -run '^$$' -fuzz '^FuzzWriterRoundTrip$$' -fuzztime 5s ./internal/bitpack
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeHeader$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzVisitSequence$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzStepReference$$' -fuzztime 5s ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzInstallShortestPaths$$' -fuzztime 5s ./internal/dataplane
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverReference$$' -fuzztime 5s ./internal/collectorsvc
	$(GO) test -run '^$$' -fuzz '^FuzzPacket$$' -fuzztime 10s ./internal/dataplane
	$(GO) test -run '^$$' -fuzz '^FuzzReportFrame$$' -fuzztime 10s ./internal/collectorsvc
	$(GO) test -run '^$$' -fuzz '^FuzzJournalSegment$$' -fuzztime 10s ./internal/collectorsvc
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyFIB$$' -fuzztime 10s ./internal/verify

oracle:
	$(GO) test -race -run 'TestOracle' -count 1 ./internal/scenario

cluster:
	$(GO) test -race -count 1 ./internal/cluster

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

ci:
	sh ci.sh
