package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestInvalidMAGFailsBeforeTraining pins the expensive regression: slctrace
// used to train the workload's entropy table (minutes for real corpora) and
// only then fail pipeline construction on an invalid MAG.
func TestInvalidMAGFailsBeforeTraining(t *testing.T) {
	code, _, stderr := runCLI("-bench", "NN", "-codec", "tslc-opt", "-mag", "7")
	if code != 1 {
		t.Fatalf("invalid MAG exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "invalid MAG") {
		t.Fatalf("stderr does not report the invalid MAG: %s", stderr)
	}
	if strings.Contains(stderr, "training") || strings.Contains(stderr, "table") {
		t.Fatalf("did work before rejecting the MAG: %s", stderr)
	}
}

func TestUnknownBenchExitsWithAvailableSet(t *testing.T) {
	code, _, stderr := runCLI("-bench", "no-such-bench")
	if code != 1 {
		t.Fatalf("unknown bench exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "available") {
		t.Fatalf("stderr does not list the available benchmarks: %s", stderr)
	}
}

func TestUnknownCodecExitsWithAvailableSet(t *testing.T) {
	code, _, stderr := runCLI("-bench", "NN", "-codec", "no-such-codec")
	if code != 1 {
		t.Fatalf("unknown codec exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "available") {
		t.Fatalf("stderr does not list the available codecs: %s", stderr)
	}
}

func TestStrayArgumentsExitNonZero(t *testing.T) {
	if code, _, _ := runCLI("-bench", "NN", "stray"); code != 2 {
		t.Fatalf("stray arguments exited %d, want 2", code)
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestNoBenchExitsNonZero(t *testing.T) {
	if code, _, _ := runCLI(); code != 2 {
		t.Fatalf("missing -bench exited %d, want 2", code)
	}
}

// TestTraceAndReplaySucceeds drives the success path end to end: the trace
// is recorded through Runner.Trace and replayed through the simulator.
func TestTraceAndReplaySucceeds(t *testing.T) {
	code, stdout, stderr := runCLI("-bench", "TP", "-codec", "e2mc", "-sim")
	if code != 0 {
		t.Fatalf("exited %d, want 0; stderr: %s", code, stderr)
	}
	for _, want := range []string{"  kernel ", "raw CR ", "timing replay: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
