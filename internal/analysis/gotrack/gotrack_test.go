package gotrack_test

import (
	"testing"

	"alex/internal/analysis/analysistest"
	"alex/internal/analysis/gotrack"
)

func TestGotrack(t *testing.T) {
	analysistest.Run(t, gotrack.Analyzer,
		"testdata/src/a", // orphan launches (an accept loop serving untracked connections)
		"testdata/src/b", // done-channel, WaitGroup, stop-channel ties; a context is none
	)
}
