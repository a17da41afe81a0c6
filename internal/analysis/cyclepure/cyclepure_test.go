package cyclepure_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/cyclepure"
)

func TestCyclepure(t *testing.T) {
	analysistest.Run(t, "testdata/src/cyclepuretest", cyclepure.Analyzer)
}

// TestCyclepureComponentRoots checks that the engine.Component contract's
// entry points are roots without any directive.
func TestCyclepureComponentRoots(t *testing.T) {
	analysistest.Run(t, "testdata/src/componenttest", cyclepure.Analyzer)
}
