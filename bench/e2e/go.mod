// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it. The
// module path keeps the `alex/` prefix, which is what lets it import
// alex/internal/... through the replace below.
module alex/bench/e2e

go 1.22

require alex v0.0.0

replace alex => ../..
