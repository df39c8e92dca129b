package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// daemon is one sfs-serve process serving the shared result store on a
// loopback port, with its debug endpoint (its own telemetry) on another.
type daemon struct {
	cmd      *exec.Cmd
	url      string // service API base
	debugURL string // /stats.json lives here
	drained  chan struct{}
}

// probe bounds every request the benchmark makes to the daemon, so a hung
// daemon fails the run instead of stalling it.
var probe = &http.Client{Timeout: 10 * time.Second}

var (
	listenRE = regexp.MustCompile(`sfs-serve: listening on (http://\S+?)/? `)
	debugRE  = regexp.MustCompile(`debug server listening on (http://\S+?)/?$`)
)

// startDaemon starts sfs-serve on dataDir with ephemeral loopback ports
// and returns once it answers its health probe.
func startDaemon(ctx context.Context, bin, dataDir string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-data-dir", dataDir, "-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0", "-jobs", "1", "-w", strconv.Itoa(workers))
	cmd.Env = append(cmd.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan struct{})
	// The reader learns both addresses from the start-up lines, then keeps
	// draining stderr so the daemon never blocks on a full pipe.
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := debugRE.FindStringSubmatch(sc.Text()); m != nil {
				d.debugURL = m[1]
			}
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				d.url = m[1]
				close(ready)
				break
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case <-ready:
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("sfs-serve exited during start-up")
	case <-deadline.C:
		d.stop()
		return nil, fmt.Errorf("sfs-serve did not start within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := probe.Get(d.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("sfs-serve not healthy within 30s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// stats reads the daemon's own telemetry snapshot.
func (d *daemon) stats() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := probe.Get(d.debugURL + "/stats.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("sfs-serve stats: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits for it and its stderr reader.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.drained
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return <-exited
	}
}

// userHZ is the unit of the CPU times in /proc/PID/stat.
const userHZ = 100

// cpuTime is the daemon's user plus system CPU time so far, from
// /proc/PID/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("sfs-serve /proc stat: %q", data)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sfs-serve /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}
