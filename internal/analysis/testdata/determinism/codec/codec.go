// Package codec exercises the determinism analyzer on a codec package: a
// smallest-encoding search over a map picks among equal-size encodings in
// map iteration order, so the emitted payload changes from call to call;
// the same search over an array indexed by encoding is deterministic.
package codec

type geometry struct{ base, delta int }

func (g geometry) bits() int { return g.base*8 + 128/g.base*(1+8*g.delta) }

func fits(block []byte, g geometry) bool { return len(block)%g.base == 0 }

var byMap = map[int]geometry{0: {8, 4}, 1: {2, 1}}

func smallestByMap(block []byte) (int, int) {
	best, bestBits := -1, 1024
	for enc, g := range byMap { // want `range over map byMap has an order-dependent body`
		if b := g.bits(); b < bestBits && fits(block, g) {
			best, bestBits = enc, b
		}
	}
	return best, bestBits
}

var byArray = [2]geometry{{8, 4}, {2, 1}}

func smallestByArray(block []byte) (int, int) {
	best, bestBits := -1, 1024
	for enc, g := range byArray { // array order is fixed: clean
		if b := g.bits(); b < bestBits && fits(block, g) {
			best, bestBits = enc, b
		}
	}
	return best, bestBits
}
