//go:build eventsdebug

package events

import "fmt"

// eventsdebug: released pool records are filled with a poison pattern.
// acquire verifies the poison is intact — a mismatch means some component
// wrote to an event record after releasing it (use-after-release) — and
// dispatch verifies the record is not poisoned — a hit means a released
// record reached the heap (double-release or index corruption). The checks
// cost a few comparisons per event, so they live behind a build tag; CI runs
// the events and sim tests with -tags eventsdebug -race.
const (
	poisonKind uint8  = 0xEE
	poisonWord uint64 = 0xDEADBEEFDEADBEEF
)

var poisonRec = rec{ev: Event{
	Addr: poisonWord,
	Aux:  poisonWord,
	A:    0xEEEEEEEE,
	B:    0xEEEEEEEE,
	Kind: poisonKind,
	Op:   poisonKind,
}}

func checkAcquire(r *rec) {
	if r.ev != poisonRec.ev {
		panic(fmt.Sprintf("events: pooled record written after release: %+v", r.ev))
	}
}

func checkDispatch(r *rec) {
	if r.ev == poisonRec.ev {
		panic("events: dispatching a released (poisoned) record")
	}
}
