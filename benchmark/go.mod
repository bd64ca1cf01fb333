// The benchmark is a module of its own so that it builds with its own
// build file and stays out of the repository's `go build ./...` and
// `go test ./...`. The module path keeps the minraid/ prefix, which is
// what lets it import minraid/internal/... through the replace below.
module minraid/benchmark

go 1.22

require minraid v0.0.0

replace minraid => ../
