GO ?= go

.PHONY: all build fmt vet lint test race vuln loc

all: build fmt vet lint test

build:
	$(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -structtag -copylocks ./...

# The repository's own invariant analyzers (docs/LINT.md), driven through
# go vet's -vettool protocol so the sweep rides cmd/go's action cache.
# `go run ./cmd/smr-lint ./...` runs the same suite standalone.
lint:
	$(GO) build -o bin/smr-lint ./cmd/smr-lint
	$(GO) vet -vettool=$(CURDIR)/bin/smr-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go line count (benchmark module and analyzer fixtures excluded),
# the figure simplification changes report before and after.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/' -e '/testdata/' | xargs cat | wc -l

# Pinned govulncheck (matches .github/workflows/ci.yml); requires network.
vuln:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@v1.1.4
	govulncheck ./...
