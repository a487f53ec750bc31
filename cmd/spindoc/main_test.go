package main

import (
	"testing"

	"spin/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "spindoc", main) }

// TestGoldenOutput pins the document-preview run (Table 3 and the time
// breakdown) byte for byte; it is deterministic virtual time, so a drift
// means some clock reading moved. Regenerate only for an intended
// cost-model change, with
//
//	go run ./cmd/spindoc > cmd/spindoc/testdata/spindoc.golden
func TestGoldenOutput(t *testing.T) {
	clitest.Golden(t, "testdata/spindoc.golden")
}
