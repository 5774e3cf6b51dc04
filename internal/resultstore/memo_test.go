package resultstore

import (
	"fmt"
	"math"
	"testing"
)

// TestMemoResolvesThroughStore pins Memo's resolution order — decodable hit,
// else compute and write back — and its counters: a warm call is a hit with
// no compute, an undecodable record is a miss and a bad record that the
// recompute rewrites, and a failed write-back is logged, not returned.
func TestMemoResolvesThroughStore(t *testing.T) {
	s := openTestStore(t, Options{})
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	computes := 0
	memo := func(st *Store, m Material, v float64) (float64, error) {
		return Memo(st, "cell", m, JSON[float64](), logf, func() (float64, error) {
			computes++
			return v, nil
		})
	}
	check := func(step string, got float64, err error, want float64, wantComputes int, wantStats Stats) {
		t.Helper()
		if err != nil || got != want {
			t.Fatalf("%s: got %v, %v; want %v", step, got, err, want)
		}
		if computes != wantComputes {
			t.Fatalf("%s: %d computes, want %d", step, computes, wantComputes)
		}
		if st := s.Stats(); st != wantStats {
			t.Fatalf("%s: stats %+v, want %+v", step, st, wantStats)
		}
	}

	got, err := memo(nil, Material{"x": 1}, 7)
	check("nil store", got, err, 7, 1, Stats{})
	got, err = memo(s, Material{"x": 1}, 7)
	check("cold", got, err, 7, 2, Stats{Misses: 1, Puts: 1})
	got, err = memo(s, Material{"x": 1}, 99)
	check("warm", got, err, 7, 2, Stats{Hits: 1, Misses: 1, Puts: 1})

	key, err := s.Key("cell", Material{"x": 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes(key, "cell", "json", []byte(`"not a number"`)); err != nil {
		t.Fatal(err)
	}
	got, err = memo(s, Material{"x": 2}, 3)
	check("undecodable", got, err, 3, 3, Stats{Hits: 1, Misses: 2, Puts: 3, BadRecords: 1})
	got, err = memo(s, Material{"x": 2}, 99)
	check("rewritten", got, err, 3, 3, Stats{Hits: 2, Misses: 2, Puts: 3, BadRecords: 1})

	if len(logs) != 0 {
		t.Fatalf("unexpected log lines: %q", logs)
	}
	// JSON cannot encode NaN: the write-back fails, the value still returns.
	got, err = memo(s, Material{"x": 3}, math.NaN())
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("failed write-back: got %v, %v; want NaN and no error", got, err)
	}
	if len(logs) != 1 {
		t.Fatalf("failed write-back logged %q, want one line", logs)
	}
}
