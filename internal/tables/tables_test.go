package tables

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/workloads"
)

func tpWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	tp, err := workloads.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTableCacheRetrainsOnVersion2Record pins the table wire-format bump: a
// version-2 record (with the dropped gap-array interval byte) already in the
// store is undecodable, so the cache retrains instead of serving it, counts
// it as a store miss and a bad record, and overwrites it with a current
// record.
func TestTableCacheRetrainsOnVersion2Record(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := tpWorkload(t)
	var fresh Cache
	tab, err := fresh.Table(tp)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte{2, cur[1], 4}, cur[2:]...)
	key, err := st.Key(kindTable, tableMaterial(tp))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBytes(key, kindTable, "bin", v2); err != nil {
		t.Fatal(err)
	}

	cache := Cache{Store: func() *resultstore.Store { return st }}
	if _, err := cache.Table(tp); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Retrains != 1 || s.DiskHits != 0 {
		t.Fatalf("version-2 record: retrains %d, disk hits %d; want 1 and 0", s.Retrains, s.DiskHits)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 || s.BadRecords != 1 {
		t.Fatalf("version-2 record: store stats %+v, want 0 hits, 1 miss, 1 bad record", s)
	}
	got, hit, err := st.GetBytes(key)
	if err != nil || !hit {
		t.Fatalf("rewritten record: hit %v, err %v", hit, err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("retrain did not overwrite the version-2 record with the current one")
	}
}

// TestConcurrentTableTrainsOnce races cold callers on one store-backed
// cache (under -race in CI): they share one training, one table and one
// store round trip.
func TestConcurrentTableTrainsOnce(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := tpWorkload(t)
	cache := Cache{Store: func() *resultstore.Store { return st }}
	const callers = 4
	got := make([]any, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := cache.Table(tp)
			if err != nil {
				t.Error(err)
			}
			got[i] = tab
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different table than caller 0", i)
		}
	}
	if s := cache.Stats(); s.Requests != callers || s.Retrains != 1 || s.DiskHits != 0 {
		t.Fatalf("cache stats %+v, want %d requests, 1 retrain, 0 disk hits", s, callers)
	}
	if s := st.Stats(); s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("store stats %+v, want 1 miss and 1 put", s)
	}
}
