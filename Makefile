GO ?= go

.PHONY: all build test fmt vet lint race race-shard race-gating simcheck premerge fuzz-smoke cosimd-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails when any file is not gofmt-clean, naming the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The stock static analysis passes.
vet:
	$(GO) vet ./...

# simlint, the determinism lint (see DESIGN.md "Determinism
# contract"). Stdlib-only, so this needs nothing beyond the toolchain.
lint:
	$(GO) run ./cmd/simlint ./...

# A short coverage-guided run of the checkpoint-envelope fuzzer over
# the committed seed corpus (internal/snapshot/testdata/fuzz), so CI
# exercises real sealed/corrupted/truncated envelopes, not just the
# in-code f.Add seeds — one of the mask arbiters against their
# scan-based reference on random router states
# (internal/noc/router_ref_test.go), one of the gated full-system
# tile sweep against the exhaustive one on random machines
# (internal/fullsys/gating_test.go), one of the calendar queue
# against the binary heap it replaced on random schedule/pop/capture
# programs (internal/sim/typedq_test.go), one of the gated DRAM
# controller tick against the two-walk tick it replaced on random
# timings, bank counts, arrival bursts and mid-queue captures
# (internal/dram/dram_test.go) — and one of the restore
# bodies behind the envelope: one payload position of a mid-run
# checkpoint mutated and the CRC re-sealed, over every mode
# (payload_fuzz_test.go; twenty seconds, because replaying its 1 081
# committed seeds for baseline coverage takes most of ten).
fuzz-smoke:
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 10s
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzArbiterEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/fullsys -run '^$$' -fuzz '^FuzzTileGating$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzCalendarQueue$$' -fuzztime 10s
	$(GO) test ./internal/dram -run '^$$' -fuzz '^FuzzDRAMGating$$' -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz '^FuzzCheckpointPayload$$' -fuzztime 20s

# End-to-end smoke of the co-simulation server: starts cosimd on a
# loopback port with deliberately tiny limits (6 sessions, 3 resident,
# 1 parked), drives a sweep through the HTTP API (submit, NDJSON
# /events streams, status and result fetch), and verifies every served
# fingerprint against a direct in-process run of the same config —
# plus a byte-identical, zero-cycle cache hit on resubmission. Exits
# nonzero unless both eviction tiers were exercised: warm_restores > 0
# (a parked session adopted) and spills > 0 with disk restores (a
# checkpoint written and resumed from).
cosimd-smoke:
	$(GO) run ./cmd/cosimd -smoke -quiet

# Dynamic pre-merge gates: the race detector across the whole module,
# and the simcheck build, which arms sim.Assert and the event-queue
# self-checks (schedule-into-the-past, the calendar's structural
# recount).
race:
	$(GO) test -race ./...

# The NoC step path's bit-identity matrix under the race detector: every
# mode x both router architectures x worker counts 0 (the default one
# shard) / 2 / 4 / 8 against the exhaustive sequential sweep (checkpoint
# bytes + final results), plus the internal/noc shard property tests.
# Every gated run steps through the shard partition, so this is the
# data-race proof for the code all of them execute — blocking in CI.
race-shard:
	$(GO) test -race -run 'TestShardedBitIdenticalAllModes' -count=1 .
	$(GO) test -race -run 'Shard' -count=1 ./internal/noc ./internal/core

# The full-system tile gating under the race detector: random machines
# stepped gated and exhaustive in lockstep, with a snapshot of the
# gated system — taken while tiles sleep — restored and stepped beside
# them. -run-scoped so a gating regression fails with its own name.
# Blocking in CI.
race-gating:
	$(GO) test -race -run 'TestGatedTickEqualsExhaustive' -count=1 ./internal/fullsys

simcheck:
	$(GO) test -tags simcheck ./...

# Everything a PR must pass.
premerge: build fmt vet lint test race simcheck
