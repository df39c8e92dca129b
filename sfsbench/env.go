package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// env is what a benchmark run needs from its surroundings; tests build a
// small one of their own.
type env struct {
	self     string // binary re-invoked as `self child SPEC.json`
	serveBin string // the sfs-serve daemon (remote-warm)
	work     string // scratch root inside the checkout, removed on exit
	answers  *answers
	// sample keeps every Nth sequential script (1 = the whole suite);
	// schedules is nondet-cold's K; setups is how many times set-up is
	// repeated for setup_s.
	sample    int
	schedules int
	setups    int
	// setupBudget: set-up is repeated beyond setups, up to maxSetups
	// times, while the set-ups so far took less than this many seconds,
	// so that the median of a millisecond-scale set-up is not one
	// scheduler hiccup.
	setupBudget float64
	// workers bounds the client's pipeline workers and GOMAXPROCS.
	workers int
	log     io.Writer
}

// Load shape: one client process with at most two workers (and never
// more than the machine's CPUs), K concurrent schedules, three or more
// set-ups.
const (
	maxWorkers         = 2
	defaultSchedules   = 100
	defaultSetups      = 3
	defaultSetupBudget = 2.0
)

// withEnv builds the production environment rooted at the working
// directory (the repository root), runs fn under a signal-cancelled
// context and removes the scratch directory afterwards. It returns the
// process exit code.
func withEnv(fn func(context.Context, *env) error) int {
	e, err := newEnv()
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = fn(ctx, e)
		stop()
		os.RemoveAll(e.work)
		os.Remove(filepath.Dir(e.work)) // only once no other run uses it
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench:", err)
		return 1
	}
	return 0
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	serveBin := filepath.Join(filepath.Dir(self), "sfs-serve")
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("sfs-serve binary (build with run.sh): %w", err)
	}
	a, err := loadAnswers()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_work"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_work"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		self:        self,
		serveBin:    serveBin,
		work:        work,
		answers:     a,
		sample:      1,
		schedules:   defaultSchedules,
		setups:      defaultSetups,
		setupBudget: defaultSetupBudget,
		workers:     min(maxWorkers, runtime.NumCPU()),
		log:         os.Stderr,
	}, nil
}

// childOutcome is one child process as the parent saw it.
type childOutcome struct {
	res   childResult
	spawn time.Time
	wall  time.Duration
	cpu   time.Duration // user + system
	rss   int64         // peak resident set, bytes
}

// runChild runs sp in a fresh child process, timing it from spawn to
// exit. dir holds the spec and result files.
func (e *env) runChild(ctx context.Context, sp childSpec, dir string) (childOutcome, error) {
	var out childOutcome
	if sp.Workers == 0 {
		sp.Workers = e.workers
	}
	if sp.Sample == 0 {
		sp.Sample = e.sample
	}
	f, err := os.CreateTemp(dir, "spec-*.json")
	if err != nil {
		return out, err
	}
	sp.Result = f.Name() + ".result"
	err = json.NewEncoder(f).Encode(sp)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	cmd := exec.CommandContext(ctx, e.self, "child", f.Name())
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(sp.Workers))
	cmd.Stdout, cmd.Stderr = e.log, e.log
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	out.spawn = time.Now()
	err = cmd.Run()
	out.wall = time.Since(out.spawn)
	if err != nil {
		return out, fmt.Errorf("child %s run: %w", sp.Universe, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		out.rss = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	data, err := os.ReadFile(sp.Result)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out.res)
}
