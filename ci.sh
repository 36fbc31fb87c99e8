#!/bin/sh
# ci.sh - the checks a change must pass: tier-1 build + tests, vet, and
# the race-detector leg over the packages with concurrency surface.
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l $(git ls-files '*.go'))"
go test ./...
go test -race -count=1 ./internal/sched ./internal/core ./internal/suite \
    ./internal/trace ./internal/mem ./internal/xrand ./internal/faults \
    ./internal/serve ./internal/resilience ./internal/stream ./internal/ml \
    ./internal/perfingest ./internal/fleet ./internal/lifecycle \
    ./internal/ensemble
# The chaos legs: every serving failure mode at once, a fleet backend
# killed mid-classify-storm, and the model lifecycle driven through
# drift -> retrain -> shadow -> promote -> rollback, all
# race-instrumented.
go test -race -count=1 -run TestChaos ./internal/serve ./internal/fleet
# Classification runs inline on each handler goroutine, concurrently
# with the registry and the lifecycle mirror: repeat the concurrent
# classify burst, the classify-storm-across-promotion test, the cold
# concurrent detector + ensemble classifies (the ensemble trainer's
# nested registry Get), the client's binary frames answered before
# they are sent (a frame net/http is still writing must never be
# reused) and faulted trace replays beside a watch session on the
# server's one shared collector under the race detector.
go test -race -count=10 -run 'TestServeConcurrentMatchesSequential|TestChaosDriftRetrainPromoteRollback|TestColdConcurrentClassifiesTrainOnce|TestClassifyBinaryFrameNotReusedInFlight|TestFaultedServerConcurrentReplaysAndWatch' ./internal/serve
go test -run '^$' -fuzz FuzzParseTrace -fuzztime 10s ./internal/trace
# The byte-level trace parser must accept the same traces and fail with
# the same errors as the strings-based reference parser.
go test -run '^$' -fuzz FuzzParseMatchesReference -fuzztime 10s ./internal/trace
# Arbitrary access mixes keep the simulator's coherence invariants and
# counter identities after every scheduling round.
go test -run '^$' -fuzz FuzzMachine -fuzztime 10s ./internal/machine
go test -run '^$' -fuzz FuzzParsePerf -fuzztime 10s ./internal/perfingest
go test -run '^$' -fuzz FuzzParseWindowSpec -fuzztime 10s ./internal/stream
go test -run '^$' -fuzz FuzzParseLifecycleSpec -fuzztime 10s ./internal/lifecycle
go test -run '^$' -fuzz FuzzParseEnsembleSpec -fuzztime 10s ./internal/ensemble
# Inference equivalence and wire robustness: the flat tree must stay
# bit-identical to the pointer tree, and garbage binary frames must
# always land in typed errors.
go test -run '^$' -fuzz FuzzFlatVsPointerTree -fuzztime 10s ./internal/ml
go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/serve
