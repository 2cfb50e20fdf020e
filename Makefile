# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench vet fmt cover evaluate examples clean check smoke modelcheck loc

all: build test

# Pre-merge gate: static checks, then the whole module under the race
# detector (the fixed-seed fault-injection runs on every protocol, the
# model checker's mutation suite and the relaxed engine's worker-count
# tests included), then the repo benchmark's own module under the race
# detector (its layer map pins engine file and function names, see
# CONTRIBUTING.md; its tracing test runs a two-worker relaxed cell, so
# the instructions warps share and the warp contexts SMs recycle are
# raced there).
check: vet
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test -race ./...

# Exhaustive small-state model check: enumerate every interleaving of
# the 2-SM micro machine for all four protocols (G-TSC through §V-D
# rollover), plus the mutation tests that prove the checker has teeth.
modelcheck:
	$(GO) test -v -run 'TestExhaustive|TestMutation' ./internal/model

# Kill-and-resume smoke: interrupt real binaries with real signals,
# check that gtscsim reports its stop cycle, resume a gtscbench sweep
# from its journal, and diff against an uninterrupted sweep.
smoke:
	bash scripts/kill_resume_smoke.sh

# Net Go line counts per package since BASE (default: the previous
# commit), code and tests apart, as every change reports them. Counts
# come from git diff, so stage new files before running it on an
# uncommitted tree: make loc BASE=HEAD.
BASE ?= HEAD~1
loc:
	@git diff --numstat --no-renames $(BASE) -- '*.go' | awk '\
	{ n = split($$3, p, "/"); pkg = (n == 1) ? "." : p[1]; \
	  for (i = 2; i < n; i++) pkg = pkg "/" p[i]; \
	  kind = ($$3 ~ /_test\.go$$/) ? "tests" : "code"; \
	  net[pkg, kind] += $$1 - $$2; pkgs[pkg] = 1; total[kind] += $$1 - $$2 } \
	END { printf "%-32s %7s %7s\n", "package", "code", "tests"; \
	  for (pkg in pkgs) printf "%-32s %+7d %+7d\n", pkg, net[pkg, "code"], net[pkg, "tests"] | "sort"; \
	  close("sort"); printf "%-32s %+7d %+7d\n", "total", total["code"], total["tests"] }'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One testing.B benchmark per paper table/figure (+ extensions).
bench:
	$(GO) test -bench=. -benchmem .

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./internal/...

# Regenerate the paper's full evaluation at paper scale (Table II,
# Figs 12-17, ablations, extensions) into results_paper_scale.txt.
evaluate:
	$(GO) run ./cmd/gtscbench | tee results_paper_scale.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/paperwalkthrough
	$(GO) run ./examples/irregulargraph
	$(GO) run ./examples/leasesweep
	$(GO) run ./examples/atomichistogram

clean:
	$(GO) clean ./...
