package sibylfs

// Helpers for tests that drive the Session API with nothing to cancel:
// each runs one Session method under context.Background and fails the
// test on error.

import (
	"context"
	"testing"
)

// generate builds one universe — (*Session).Generate, GenerateConcurrent
// or GenerateCrash — on a session without a cache.
func generate(tb testing.TB, universe func(*Session, context.Context) ([]*Script, error)) []*Script {
	tb.Helper()
	suite, err := universe(New(), context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return suite
}

// execute runs scripts on fresh instances from factory through s.
func execute(tb testing.TB, s *Session, scripts []*Script, factory Factory) []*Trace {
	tb.Helper()
	traces, err := s.Execute(context.Background(), scripts, factory)
	if err != nil {
		tb.Fatal(err)
	}
	return traces
}

// executeConcurrent runs scripts through s's concurrent executor.
func executeConcurrent(tb testing.TB, s *Session, scripts []*Script, factory Factory, opts ConcurrentOptions) []*Trace {
	tb.Helper()
	traces, err := s.ExecuteConcurrent(context.Background(), scripts, factory, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return traces
}

// check runs s's oracle over traces.
func check(tb testing.TB, s *Session, traces []*Trace) []CheckResult {
	tb.Helper()
	results, err := s.Check(context.Background(), traces)
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// checkOne checks one trace against spec.
func checkOne(tb testing.TB, spec Spec, tr *Trace) CheckResult {
	tb.Helper()
	r, err := New(WithSpec(spec)).CheckOne(context.Background(), tr)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}
