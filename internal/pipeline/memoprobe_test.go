package pipeline

import (
	"context"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/types"
)

// Work counters of the alloc-gate sample (stratifiedSample, one worker,
// a fresh cons table) before the checker stopped probing the memo for
// transitions that are empty by construction: a return on a state whose
// process is not returning, and the τ-expansion of a state with no
// calling process. They are deterministic: every probe is a hit or a
// miss whatever the table's epoch resets did.
const (
	sampleProbesBefore  = 42075
	sampleTauExpansions = 8610
	sampleMaxStatesSum  = 1430
	sampleSumStatesSum  = 16625
)

// TestSkippedMemoProbes pins the probe diet: on the alloc-gate sample the
// cons table sees at least 35% fewer probes than before, while the
// oracle's work metrics — and so every record — stay as they were.
func TestSkippedMemoProbes(t *testing.T) {
	sample := stratifiedSample(testgen.Generate().Scripts, allocSampleStride)
	reg := telemetry.NewRegistry()
	records, _, err := Run(context.Background(), Config{
		Name:    "probe-diet",
		Scripts: sample,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    types.DefaultSpec(),
		Workers: 1,
		Tel:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	probes := c["checker.cons_hits"] + c["checker.cons_misses"]
	var maxSum, sumSum int
	for _, r := range records {
		maxSum += r.MaxStates
		sumSum += r.SumStates
	}
	t.Logf("%d traces: %d probes (%d before), tau_expansions %d, Σmax_states %d, Σsum_states %d",
		len(records), probes, sampleProbesBefore, c["checker.tau_expansions"], maxSum, sumSum)
	if float64(probes) > 0.65*sampleProbesBefore {
		t.Errorf("%d memo probes, want at most 65%% of the %d before", probes, sampleProbesBefore)
	}
	if c["checker.tau_expansions"] != sampleTauExpansions || maxSum != sampleMaxStatesSum || sumSum != sampleSumStatesSum {
		t.Errorf("oracle work moved: tau_expansions %d (want %d), Σmax_states %d (want %d), Σsum_states %d (want %d)",
			c["checker.tau_expansions"], sampleTauExpansions, maxSum, sampleMaxStatesSum, sumSum, sampleSumStatesSum)
	}
}
