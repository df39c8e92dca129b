package checker

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// StepError records one non-conformant step and its diagnosis (Fig 4).
type StepError struct {
	Line     int
	Observed string
	Allowed  []string
}

// Message renders the Fig 4 diagnostic block.
func (e StepError) Message() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Error: %d: %s\n", e.Line, e.Observed)
	fmt.Fprintf(&b, "# unexpected results: %s\n", e.Observed)
	if len(e.Allowed) > 0 {
		fmt.Fprintf(&b, "# allowed are only: %s\n", strings.Join(e.Allowed, ", "))
		fmt.Fprintf(&b, "# continuing with %s\n", strings.Join(e.Allowed, ", "))
	} else {
		b.WriteString("# no behaviour allowed here; resetting process state\n")
	}
	return b.String()
}

// Result is the outcome of checking one trace.
type Result struct {
	Name        string
	Accepted    bool
	Errors      []StepError
	Steps       int
	MaxStates   int // peak size of the tracked state set (§7.1's key metric)
	UsedSpecial bool
	// TauExpansions counts the τ-successor states generated while closing
	// the state set over internal transitions. Sequential traces need one
	// expansion round per return; concurrent traces with several pending
	// calls are where the number grows — it measures how much interleaving
	// nondeterminism the oracle had to absorb.
	TauExpansions int
	// SumStates accumulates the state-set size at every step; together with
	// Steps it yields the mean set size (see MeanStates).
	SumStates int
	// StateSetCapHit records that the tracked set reached MaxStateSet and
	// was truncated (or the τ-closure was cut short): states the real
	// system might be in were dropped, so a rejection afterwards may be a
	// false alarm and an acceptance may rest on luck. The cap exists only
	// to bound pathological blowup; a hit is worth surfacing to the user.
	StateSetCapHit bool
	// TauRounds / TauParallelRounds / TauNanos are telemetry: the number
	// of τ-closure frontier-expansion rounds this trace cost, how many of
	// them were large enough to fan across the worker pool, and the wall
	// time spent inside the closure. They never influence the verdict and
	// are not part of the serialized record.
	TauRounds         int
	TauParallelRounds int
	TauNanos          int64
	// CrashPoints counts the crash labels checked in this trace (crash
	// mode only). Telemetry, like TauRounds: not part of the serialized
	// record — the record's byte format is pinned by golden fixtures.
	CrashPoints int
}

// MeanStates is the mean tracked state-set size per step.
func (r Result) MeanStates() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.SumStates) / float64(r.Steps)
}

// Checker checks traces against one variant of the model.
type Checker struct {
	Spec types.Spec
	// MaxStateSet caps the tracked set to guard against pathological
	// blowup; the paper's engineering keeps real sets tiny. Truncation is
	// reported via Result.StateSetCapHit.
	MaxStateSet int
	// TauWorkers bounds the goroutines used inside a single trace for the
	// τ-closure and the transition union (≤ 0 selects GOMAXPROCS, 1 is
	// fully sequential). Results do not depend on it.
	TauWorkers int
	// DisableDedup turns off deduplication of the state set — only for the
	// ablation benchmarks; never set it in real checking.
	DisableDedup bool
	// Tel receives the checker's telemetry (counters per trace, τ-closure
	// attribution); nil selects telemetry.Default. Purely observational:
	// results are byte-identical whatever registry is installed.
	Tel *telemetry.Registry
	// Memo, when non-nil, is the suite-level cons table: transition
	// fan-outs are interned per (source state object, label) and replayed
	// across traces (scripts share their fixture prefix — and the shared
	// initial state — so most of a suite's τ-closure work walks the same
	// interned object graph). A replay is Trans applied to that very
	// object, so results are byte-identical with the table on or off;
	// the golden parity fixtures pin it. Ignored under DisableDedup (the
	// ablation's unhashed states would race the table's publication
	// protocol).
	Memo *osspec.ConsTable

	// initOnce/initial share one hashed+frozen initial state across every
	// trace this checker checks: all traces start identical, and the
	// pointer-equality fast paths in StateEqual and the cons table make
	// the per-trace first steps cheap.
	initOnce sync.Once
	initial  *osspec.OsState

	// scratch pools per-trace working storage (see traceScratch): one
	// dedup set and two state buffers serve a whole trace instead of
	// allocating per reduce, per τ-closure and per transition union —
	// the dominant per-step allocations once the cons table absorbs the
	// transition work.
	scratch sync.Pool
}

// traceScratch is one trace's reusable working storage. Its buffers never
// back the trace's current state set: closure holds each step's
// τ-closure (dead once the step's union is computed), and spare receives
// the next transition union, trading places with the state set it
// replaces.
type traceScratch struct {
	set     *osspec.StateSet
	closure []*osspec.OsState
	spare   []*osspec.OsState
	stats   osspec.ClosureStats
}

func (c *Checker) getScratch() *traceScratch {
	if sc, ok := c.scratch.Get().(*traceScratch); ok {
		return sc
	}
	return &traceScratch{set: osspec.NewStateSet(64)}
}

// putScratch drops every state reference the scratch holds (a pooled
// scratch must not pin a finished trace's states) and pools it.
func (c *Checker) putScratch(sc *traceScratch) {
	sc.set.Reset()
	clear(sc.closure[:cap(sc.closure)])
	clear(sc.spare[:cap(sc.spare)])
	c.scratch.Put(sc)
}

// New returns a checker for the given spec variant.
func New(spec types.Spec) *Checker {
	return &Checker{Spec: spec, MaxStateSet: 4096}
}

func (c *Checker) workers() int {
	if c.TauWorkers > 0 {
		return c.TauWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// memo returns the cons table to use, nil when memoisation is off. The
// DisableDedup ablation skips pre-hashing, so the table's hashed-and-frozen
// publication protocol would race; it never memoises.
func (c *Checker) memo() *osspec.ConsTable {
	if c.DisableDedup {
		return nil
	}
	return c.Memo
}

// initialState returns the model's initial state, built once per checker
// and published hashed+frozen so concurrently-checked traces share it as a
// pure read.
func (c *Checker) initialState() *osspec.OsState {
	c.initOnce.Do(func() {
		s := osspec.NewOsState(c.Spec)
		s.Hash()
		s.Freeze()
		c.initial = s
	})
	return c.initial
}

// Check runs the oracle over a trace: S_{i+1} = ∪_{s∈S_i} os_trans(s, lbl_i),
// with deduplication by hash-consed state identity. The trace is accepted
// iff the final set is non-empty and no step required recovery.
func (c *Checker) Check(t *trace.Trace) Result {
	res, _ := c.CheckCtx(context.Background(), t)
	return res
}

// CheckCtx is Check with cooperative cancellation: ctx is consulted
// between trace steps and between τ-closure expansion rounds inside each
// step's worker fan-out. On cancellation the partial Result (inspected so
// far, verdict meaningless) is returned with ctx.Err().
func (c *Checker) CheckCtx(ctx context.Context, t *trace.Trace) (Result, error) {
	return c.check(ctx, t, nil)
}

// CheckRendered is CheckCtx that also returns the rendered checked trace —
// exactly RenderChecked(t, res) — built from the label texts the check
// already rendered for its memo keys, so no label is rendered twice. The
// rendering is not counted in checker.check_ns. On cancellation the text
// is empty.
func (c *Checker) CheckRendered(ctx context.Context, t *trace.Trace) (Result, string, error) {
	texts := make([]string, len(t.Steps))
	res, err := c.check(ctx, t, texts)
	if err != nil {
		return res, "", err
	}
	return res, renderChecked(t, res, texts), nil
}

// check is CheckCtx; a non-nil texts (len(t.Steps)) receives each step's
// label rendering.
func (c *Checker) check(ctx context.Context, t *trace.Trace, texts []string) (Result, error) {
	start := time.Now()
	memo := c.memo()
	res := Result{Name: t.Name, Accepted: true}
	states := []*osspec.OsState{c.initialState()}
	workers := c.workers() // hoisted: GOMAXPROCS reads showed up per step
	sc := c.getScratch()
	defer c.putScratch(sc)

	for i, st := range t.Steps {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Steps++
		res.SumStates += len(states)
		if len(states) > res.MaxStates {
			res.MaxStates = len(states)
		}
		// One rendering per label serves the memo key and the checked
		// trace (the key is a kind tag plus the label's text).
		var key string
		if memo != nil || texts != nil {
			key = osspec.LabelKey(st.Label)
			if texts != nil {
				texts[i] = osspec.LabelText(st.Label, key)
			}
		}
		switch lbl := st.Label.(type) {
		case types.ReturnLabel:
			states = c.stepReturn(ctx, states, lbl, key, st, &res, sc, workers)
		default:
			src := states
			_, isDestroy := st.Label.(types.DestroyLabel)
			_, isCrash := st.Label.(types.CrashLabel)
			if isDestroy || isCrash {
				// Close over τ before a destroy so interleavings where a
				// pending call was processed before the process vanished
				// stay represented. Today the model's destroy effects are
				// invisible to other processes (no capacity accounting),
				// so this only pre-computes work the next return's closure
				// would do — but it keeps the oracle sound if destroy ever
				// gains observable effects. Sequential traces have no
				// pending calls here, so it is a no-op for them.
				//
				// Before a crash the closure is load-bearing: a call in
				// flight at power-loss may or may not have had its effect
				// land, so both the pre-τ and post-τ states (with their
				// different pending-effect logs) must contribute crash
				// candidates.
				src = c.tauClosure(ctx, states, &res, sc, workers)
				if len(src) > res.MaxStates {
					res.MaxStates = len(src)
				}
			}
			if isCrash {
				res.CrashPoints++
			}
			next := c.unionTrans(sc.spare[:0], src, st.Label, key, workers)
			if len(next) == 0 {
				sc.spare = next
				res.Accepted = false
				res.Errors = append(res.Errors, StepError{
					Line:     st.Line,
					Observed: st.Label.String(),
					Allowed:  nil,
				})
				// Recovery: drop the label entirely.
				continue
			}
			sc.spare = states[:0]
			states = c.reduce(next, &res, sc.set)
		}
	}
	if len(states) == 0 {
		res.Accepted = false
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	c.record(res, time.Since(start))
	return res, nil
}

// record attributes one completed trace's work to the checker's registry.
// One batch of atomic adds per trace — never per step — so the oracle's
// hot loop stays unmetered.
func (c *Checker) record(res Result, elapsed time.Duration) {
	tel := telemetry.Or(c.Tel)
	tel.Counter("checker.traces").Inc()
	tel.Counter("checker.steps").Add(int64(res.Steps))
	tel.Counter("checker.states_explored").Add(int64(res.SumStates))
	tel.Counter("checker.tau_expansions").Add(int64(res.TauExpansions))
	tel.Counter("checker.tau_rounds").Add(int64(res.TauRounds))
	tel.Counter("checker.tau_rounds_parallel").Add(int64(res.TauParallelRounds))
	if res.CrashPoints > 0 {
		tel.Counter("checker.crash_points").Add(int64(res.CrashPoints))
	}
	if !res.Accepted {
		tel.Counter("checker.rejected").Inc()
	}
	if res.StateSetCapHit {
		tel.Counter("checker.cap_hits").Inc()
	}
	tel.Gauge("checker.max_states").SetMax(int64(res.MaxStates))
	tel.Histogram("checker.check_ns").Observe(int64(elapsed))
	tel.Histogram("checker.tau_closure_ns").Observe(res.TauNanos)
}

// stepReturn matches an observed return value. The state set is first
// closed over τ steps — every interleaving in which the pending calls of
// any processes were processed internally before this return was observed
// is a legal linearisation. For sequential traces at most one process is
// mid-call and the closure is a single expansion round; for concurrent
// traces this closure is where the §3 state-set strategy does its real
// work, and where MaxStates peaks.
func (c *Checker) stepReturn(ctx context.Context, states []*osspec.OsState, lbl types.ReturnLabel, key string, st trace.Step, res *Result, sc *traceScratch, workers int) []*osspec.OsState {
	expanded := c.tauClosure(ctx, states, res, sc, workers)
	if len(expanded) > res.MaxStates {
		res.MaxStates = len(expanded)
	}

	next := c.unionTrans(sc.spare[:0], expanded, st.Label, key, workers)
	if len(next) > 0 {
		sc.spare = states[:0]
		return c.reduce(next, res, sc.set)
	}
	sc.spare = next

	// Non-conformant: diagnose and continue with the allowed values (Fig 4).
	allowed := allowedSet(expanded, lbl.Pid)
	res.Accepted = false
	res.Errors = append(res.Errors, StepError{
		Line:     st.Line,
		Observed: lbl.Ret.String(),
		Allowed:  allowed,
	})
	var recovered []*osspec.OsState
	for _, s := range expanded {
		recovered = append(recovered, osspec.RecoverReturns(s, lbl.Pid)...)
	}
	if len(recovered) == 0 {
		for _, s := range expanded {
			recovered = append(recovered, osspec.ResetToRunning(s, lbl.Pid))
		}
	}
	return c.reduce(recovered, res, sc.set)
}

// tauClosure closes the state set over internal transitions (see
// osspec.TauClosureWith), respecting the checker's dedup ablation and set
// cap and accounting the expansions in the result's statistics. A
// cancelled ctx cuts the closure short; CheckCtx notices at the next step
// boundary and abandons the trace, so the truncated set is never used for
// a verdict.
func (c *Checker) tauClosure(ctx context.Context, states []*osspec.OsState, res *Result, sc *traceScratch, workers int) []*osspec.OsState {
	t0 := time.Now()
	cs := &sc.stats // lives in the pooled scratch: a local would escape
	*cs = osspec.ClosureStats{}
	out, n, capHit := osspec.TauClosureWith(states, osspec.ClosureOpts{
		Dedup:   !c.DisableDedup,
		Cap:     c.MaxStateSet,
		Workers: workers,
		Ctx:     ctx,
		Stats:   cs,
		Memo:    c.memo(),
		Scratch: sc.set,
		Out:     sc.closure,
	})
	sc.closure = out[:0] // keep any growth for the next step
	res.TauExpansions += n
	res.TauRounds += cs.Rounds
	res.TauParallelRounds += cs.ParallelRounds
	res.TauNanos += int64(time.Since(t0))
	if capHit {
		res.StateSetCapHit = true
	}
	return out
}

// unionTrans applies one label to every tracked state and appends the
// successors to dst, fanning the per-state work across the worker pool
// (osspec.MapStates). Successors are concatenated in source order, so the
// result — and every later dedup decision — is byte-identical to the
// sequential computation. All source states are frozen
// (Check/reduce/tauClosure guarantee it), which makes the shared reads
// race-free. With a cons table the per-state fan-out is interned
// suite-wide and replayed for equal (state, label) pairs; key is lbl's
// osspec.LabelKey whenever the memo is on.
func (c *Checker) unionTrans(dst, states []*osspec.OsState, lbl types.Label, key string, workers int) []*osspec.OsState {
	if workers <= 1 {
		// The pipeline's default: no fan-out, so no closure either.
		for _, s := range states {
			dst = append(dst, c.trans(s, lbl, key)...)
		}
		return dst
	}
	return osspec.UnionStates(dst, states, workers, func(s *osspec.OsState) []*osspec.OsState {
		return c.trans(s, lbl, key)
	})
}

// trans is one state's fan-out under lbl: replayed from (or interned
// into) the cons table when memoising, pre-hashed for dedup otherwise.
// The returned slice must not be mutated.
func (c *Checker) trans(s *osspec.OsState, lbl types.Label, key string) []*osspec.OsState {
	if r, ok := lbl.(types.ReturnLabel); ok && !osspec.Returning(s, r.Pid) {
		// Empty by construction (Trans's guard): not worth a memo probe,
		// whose miss would intern an empty entry.
		return osspec.Trans(s, lbl)
	}
	if memo := c.memo(); memo != nil {
		if succs, ok := memo.Get(s, key); ok {
			return succs
		}
		return memo.Put(s, key, osspec.Trans(s, lbl)) // hashes and freezes
	}
	succs := osspec.Trans(s, lbl)
	if !c.DisableDedup {
		for _, ns := range succs {
			ns.Hash()
		}
	}
	return succs
}

func allowedSet(states []*osspec.OsState, pid types.Pid) []string {
	seen := make(map[string]bool)
	for _, s := range states {
		if d, ok := osspec.AllowedReturn(s, pid); ok {
			seen[d] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// reduce dedupes the state set by hash-consed identity (or only caps it,
// for the ablation benchmark), records cap truncation, and freezes the
// survivors so the next fan-out may share them across goroutines. sc is
// the trace's scratch set, reset here; its previous contents are done with
// by the time reduce runs (the closure/union results only reference
// states, never the set).
func (c *Checker) reduce(states []*osspec.OsState, res *Result, sc *osspec.StateSet) []*osspec.OsState {
	if c.DisableDedup {
		if c.MaxStateSet > 0 && len(states) > c.MaxStateSet {
			states = states[:c.MaxStateSet]
			res.StateSetCapHit = true
		}
		for _, s := range states {
			s.Freeze()
		}
		return states
	}
	set := sc
	if set == nil {
		set = osspec.NewStateSet(len(states))
	} else {
		set.Reset()
	}
	out := states[:0]
	for i, s := range states {
		if !set.Add(s) {
			continue
		}
		s.Freeze()
		out = append(out, s)
		if c.MaxStateSet > 0 && len(out) >= c.MaxStateSet {
			// Only report a truncation if some remaining state is genuinely
			// distinct: a tail of duplicates would have been merged anyway,
			// and a false "best-effort verdict" warning sends the user
			// chasing a larger cap for nothing.
			for _, rest := range states[i+1:] {
				if set.Add(rest) {
					res.StateSetCapHit = true
					break
				}
			}
			break
		}
	}
	return out
}
