// Package lossy exercises the determinism analyzer on the SLC stack: a mode
// decision must not draw from the process-global generator.
package lossy

import "math/rand"

func pickMode(bits, threshold int) bool {
	return bits-threshold < rand.Intn(8) // want `rand\.Intn draws from the process-global generator`
}

func pickModeSeeded(bits, threshold int, seed int64) bool {
	r := rand.New(rand.NewSource(seed)) // explicitly seeded: deterministic
	return bits-threshold < r.Intn(8)
}
