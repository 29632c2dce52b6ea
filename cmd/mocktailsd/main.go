// Command mocktailsd is the synthesis-as-a-service daemon: it holds
// Mocktails statistical profiles resident in a sharded,
// content-addressed store and streams synthetic traces to HTTP clients,
// amortising one fit across arbitrarily many replays.
//
// Usage:
//
//	mocktailsd [-addr localhost:8677] [-store-budget 256MiB] [-shards 16]
//	           [-max-streams 128] [-max-fits 4] [-max-inflight 512]
//	           [-fit-timeout 2m] [-drain 15s] [-debug] [-j N]
//
// See docs/API.md for the HTTP API. `mocktails serve` is an alias.
package main

import (
	"os"

	"repro/internal/serve"
)

func main() {
	serve.Main("mocktailsd", os.Args[1:])
}
