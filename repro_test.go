// Integration test regenerating a paper figure end to end through the
// parallel experiment engine twice at a fixed seed: the engine's
// determinism contract at the figure level. The comparisons against
// the sequential reference path live with that path, in
// internal/experiments.
package repro

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

const introSeed = 1996

// integrationScale is QuickScale trimmed so the figure runs stay
// test-suite friendly.
func integrationScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Duration = 45 * time.Second
	return s
}

// TestEngineRunIsRepeatable re-runs the same matrix on the parallel
// engine twice: identical seeds must give identical figures run to
// run, not just sequential to parallel.
func TestEngineRunIsRepeatable(t *testing.T) {
	s := integrationScale()
	first, err := experiments.RunTraceWith(experiments.Parallel(), s, "1b", introSeed)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := experiments.RunTraceWith(experiments.Parallel(), s, "1b", introSeed)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	a := experiments.FigureCDF("Figure 3", "1b", first)
	b := experiments.FigureCDF("Figure 3", "1b", second)
	if a != b {
		t.Fatalf("same-seed reruns diverge:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
