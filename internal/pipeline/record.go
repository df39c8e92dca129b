package pipeline

import (
	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/trace"
)

// RecordError is one checker diagnosis in its serialized form, mirroring
// checker.StepError field for field.
type RecordError struct {
	Line     int      `json:"line"`
	Observed string   `json:"observed"`
	Allowed  []string `json:"allowed,omitempty"`
}

// Record is one checked trace as the pipeline persists it: the cache key,
// the full checker verdict (every Result observable, so summaries need no
// traces in memory), and the rendered checked trace (Fig 4), so `.checked`
// files and diagnosis digests can be produced from cache hits without
// re-execution. Every field is deterministic — no timestamps, durations or
// hit/miss provenance — which is what makes the finalized JSONL
// byte-identical across shard layouts, resumes and cache states.
type Record struct {
	Key      string        `json:"key"`
	Name     string        `json:"name"`
	Accepted bool          `json:"accepted"`
	Errors   []RecordError `json:"errors,omitempty"`
	Steps    int           `json:"steps"`
	// MaxStates, TauExpansions and SumStates are the oracle work metrics of
	// checker.Result, preserved so aggregated summaries match a monolithic
	// in-memory run exactly.
	MaxStates     int    `json:"max_states"`
	TauExpansions int    `json:"tau_expansions"`
	SumStates     int    `json:"sum_states"`
	CapHit        bool   `json:"cap_hit,omitempty"`
	Checked       string `json:"checked"`

	// Cached reports whether this record came from the result cache rather
	// than a fresh execution. Run-local provenance only: never serialized.
	Cached bool `json:"-"`
}

// NewRecord builds the record for one freshly checked trace; checked is
// its rendered checked trace (checker.CheckRendered, or RenderChecked).
func NewRecord(key string, t *trace.Trace, r checker.Result, checked string) Record {
	rec := Record{
		Key:           key,
		Name:          r.Name,
		Accepted:      r.Accepted,
		Steps:         r.Steps,
		MaxStates:     r.MaxStates,
		TauExpansions: r.TauExpansions,
		SumStates:     r.SumStates,
		CapHit:        r.StateSetCapHit,
		Checked:       checked,
	}
	if rec.Name == "" {
		rec.Name = t.Name
	}
	for _, e := range r.Errors {
		rec.Errors = append(rec.Errors, RecordError{
			Line: e.Line, Observed: e.Observed, Allowed: e.Allowed,
		})
	}
	return rec
}

// Result reconstitutes the checker verdict the record was built from.
func (rec Record) Result() checker.Result {
	r := checker.Result{
		Name:           rec.Name,
		Accepted:       rec.Accepted,
		Steps:          rec.Steps,
		MaxStates:      rec.MaxStates,
		TauExpansions:  rec.TauExpansions,
		SumStates:      rec.SumStates,
		StateSetCapHit: rec.CapHit,
	}
	for _, e := range rec.Errors {
		r.Errors = append(r.Errors, checker.StepError{
			Line: e.Line, Observed: e.Observed, Allowed: e.Allowed,
		})
	}
	return r
}

// Summarise aggregates records into the standard analysis.RunSummary —
// the bridge that lets sfs-run and sfs-report report from a JSONL sink
// instead of a monolithic in-memory ([]Trace, []Result) pair.
func Summarise(config string, records []Record) *analysis.RunSummary {
	results := make([]checker.Result, len(records))
	for i, rec := range records {
		results[i] = rec.Result()
	}
	return analysis.Summarise(config, nil, results)
}
