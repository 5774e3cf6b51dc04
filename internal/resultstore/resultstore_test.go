package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Fingerprint == "" {
		opts.Fingerprint = "test-fp"
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyCanonicalisation pins the addressing contract: assembly order
// never matters, every field of the material matters, and so do the kind
// and the code fingerprint.
func TestKeyCanonicalisation(t *testing.T) {
	base := Material{
		"workload":  "tp-0123",
		"codec":     "tslc-opt",
		"mag":       32,
		"threshold": 128,
		"workers":   4,
	}
	permuted := Material{}
	for _, k := range []string{"workers", "threshold", "mag", "codec", "workload"} {
		permuted[k] = base[k]
	}
	k1, err := NewKey("fp", "cell", base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey("fp", "cell", permuted)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("permuted-but-equal material hashes differ: %s vs %s", k1, k2)
	}

	change := func(field string, v any) Material {
		m := Material{}
		for k, val := range base {
			m[k] = val
		}
		m[field] = v
		return m
	}
	variants := map[string]Material{
		"mag":        change("mag", 64),
		"threshold":  change("threshold", 256),
		"workers":    change("workers", 1),
		"codec name": change("codec", "e2mc"),
		"workload":   change("workload", "nn-4567"),
		"extra knob": change("new-field", true),
	}
	seen := map[Key]string{k1: "base"}
	for name, m := range variants {
		k, err := NewKey("fp", "cell", m)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", name, prev)
		}
		seen[k] = name
	}
	// Kind and fingerprint (which carries the schema/code generation) are
	// part of the address too.
	if k, _ := NewKey("fp", "comp", base); k == k1 {
		t.Error("kind does not affect the key")
	}
	if k, _ := NewKey("fp2", "cell", base); k == k1 {
		t.Error("code fingerprint does not affect the key")
	}
	// Nested structures hash by content as well.
	type cfg struct{ A, B int }
	n1, _ := NewKey("fp", "cell", Material{"cfg": cfg{1, 2}})
	n2, _ := NewKey("fp", "cell", Material{"cfg": cfg{1, 3}})
	if n1 == n2 {
		t.Error("nested struct field change does not affect the key")
	}
}

func TestStoreRoundTripAndStats(t *testing.T) {
	s := openTestStore(t, Options{})
	key, err := s.Key("cell", Material{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name string
		Vals []float64
	}
	want := rec{"tp", []float64{1.5, -0.25, 3e-300}}

	if _, ok, err := Get(s, key, JSON[rec]()); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := Put(s, key, "cell", JSON[rec](), want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := Get(s, key, JSON[rec]()); err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	} else if got.Name != want.Name || len(got.Vals) != 3 || got.Vals[2] != want.Vals[2] {
		t.Errorf("round trip mangled record: %+v", got)
	}

	gkey, _ := s.Key("golden", Material{"w": "tp"})
	golden := []float64{1, 2.5, -7}
	if err := Put(s, gkey, "golden", Gob[[]float64](), golden); err != nil {
		t.Fatal(err)
	}
	gout, ok, err := Get(s, gkey, Gob[[]float64]())
	if err != nil || !ok {
		t.Fatalf("gob get: ok=%v err=%v", ok, err)
	}
	for i := range golden {
		if gout[i] != golden[i] {
			t.Errorf("gob round trip: %v != %v", gout, golden)
		}
	}

	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.BadRecords != 0 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 2 puts", st)
	}
}

// TestCorruptRecordsAreMissesNotTrusted flips, truncates and garbles record
// files; every form of damage must surface as a recomputable miss, never as
// decoded data.
func TestCorruptRecordsAreMissesNotTrusted(t *testing.T) {
	payload := []byte(`{"Name":"good"}`)
	corruptions := map[string]func([]byte) []byte{
		"payload bit flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-2] ^= 0x40
			return c
		},
		"truncated payload": func(b []byte) []byte { return b[:len(b)-4] },
		"truncated header":  func(b []byte) []byte { return b[:8] },
		"no header line":    func([]byte) []byte { return []byte("not a record at all") },
		"empty file":        func([]byte) []byte { return nil },
		"wrong schema": func(b []byte) []byte {
			cur := []byte(fmt.Sprintf(`{"v":%d`, SchemaVersion))
			return bytes.Replace(b, cur, []byte(`{"v":9999`), 1)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := openTestStore(t, Options{})
			key, _ := s.Key("cell", Material{"case": name})
			if err := s.PutBytes(key, "cell", "json", payload); err != nil {
				t.Fatal(err)
			}
			path := s.objectPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o666); err != nil {
				t.Fatal(err)
			}
			out, ok, err := Get(s, key, JSON[struct{ Name string }]())
			if err != nil {
				t.Fatalf("corrupt record returned error instead of miss: %v", err)
			}
			if ok {
				t.Fatalf("corrupt record trusted: decoded %+v", out)
			}
			if st := s.Stats(); st.BadRecords != 1 {
				t.Errorf("BadRecords = %d, want 1", st.BadRecords)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Error("corrupt record file not deleted")
			}
			// The slot is rewritable and then readable again.
			if err := s.PutBytes(key, "cell", "json", payload); err != nil {
				t.Fatal(err)
			}
			if out, ok, err := Get(s, key, JSON[struct{ Name string }]()); err != nil || !ok || out.Name != "good" {
				t.Fatalf("recompute-then-reread failed: ok=%v err=%v out=%+v", ok, err, out)
			}
		})
	}
}

// TestUndecodableJSONIsMiss covers schema drift: a valid record whose
// payload no longer decodes into the caller's type is a miss.
func TestUndecodableJSONIsMiss(t *testing.T) {
	s := openTestStore(t, Options{})
	key, _ := s.Key("cell", Material{})
	if err := s.PutBytes(key, "cell", "json", []byte(`{"Name": ["wrong","shape"]}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Get(s, key, JSON[struct{ Name string }]()); err != nil || ok {
		t.Fatalf("undecodable payload: ok=%v err=%v", ok, err)
	}
	// The counters must reflect that the caller will recompute: a decode
	// failure is a miss, never a hit (the warm-run acceptance check reads
	// exactly these numbers).
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.BadRecords != 1 {
		t.Errorf("decode failure counted as hits=%d misses=%d bad=%d, want 0/1/1",
			st.Hits, st.Misses, st.BadRecords)
	}
}

func TestLRUGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp", MaxBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 100)
	var keys []Key
	for i := 0; i < 8; i++ {
		k, _ := s.Key("cell", Material{"i": i})
		keys = append(keys, k)
		if err := s.PutBytes(k, "cell", "bin", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Records are ~180 bytes each; a 600-byte cap holds only the most
	// recent three. The early puts must be gone, the last must survive.
	var survivors int
	for _, k := range keys {
		if _, ok, err := s.GetBytes(k); err != nil {
			t.Fatal(err)
		} else if ok {
			survivors++
		}
	}
	if survivors == 0 || survivors >= 8 {
		t.Errorf("LRU GC kept %d of 8 records under a 600-byte cap", survivors)
	}
	if _, ok, _ := s.GetBytes(keys[len(keys)-1]); !ok {
		t.Error("most recent record was evicted")
	}
	if _, ok, _ := s.GetBytes(keys[0]); ok {
		t.Error("least recent record survived past the cap")
	}
}

func TestClear(t *testing.T) {
	s := openTestStore(t, Options{})
	k, _ := s.Key("cell", Material{})
	if err := s.PutBytes(k, "cell", "bin", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetBytes(k); err != nil || ok {
		t.Fatalf("record survived Clear: ok=%v err=%v", ok, err)
	}
	if err := s.PutBytes(k, "cell", "bin", []byte("data")); err != nil {
		t.Fatalf("store unusable after Clear: %v", err)
	}
}

// TestReconcileRebuildsIndex deletes the index out from under a store; a
// reopened store must adopt the orphaned objects and keep serving them.
func TestReconcileRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := s1.Key("cell", Material{"i": 1})
	if err := s1.PutBytes(k, "cell", "bin", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.GetBytes(k); err != nil || !ok || string(got) != "payload" {
		t.Fatalf("orphaned object lost after reindex: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentStoresShareDirectory races two Store instances (standing in
// for two Runner processes) over one directory: mixed same-key and
// distinct-key traffic must never corrupt the index or a record. Run under
// -race in CI.
func TestConcurrentStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir, Options{Fingerprint: "fp"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(), open()
	const keys = 12
	payloadFor := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }

	var wg sync.WaitGroup
	errs := make(chan error, 4*keys)
	for _, s := range []*Store{a, b} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					k, err := s.Key("cell", Material{"i": i})
					if err != nil {
						errs <- err
						return
					}
					if err := s.PutBytes(k, "cell", "bin", payloadFor(i)); err != nil {
						errs <- err
						return
					}
					got, ok, err := s.GetBytes(k)
					if err != nil {
						errs <- err
						return
					}
					if ok && !bytes.Equal(got, payloadFor(i)) {
						errs <- fmt.Errorf("key %d read back %q", i, got)
						return
					}
				}
			}(s, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Afterwards every record is present, valid, and a fresh store (fresh
	// index load) agrees.
	c := open()
	for i := 0; i < keys; i++ {
		k, _ := c.Key("cell", Material{"i": i})
		got, ok, err := c.GetBytes(k)
		if err != nil || !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("key %d after concurrent writes: ok=%v err=%v got=%q", i, ok, err, got)
		}
	}
	if st := c.Stats(); st.BadRecords != 0 {
		t.Errorf("concurrent writes produced %d bad records", st.BadRecords)
	}
}
