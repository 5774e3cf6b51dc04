package compress

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the codec registry: every compression technique registers
// itself under a stable lowercase name (from an init function in its own
// package), and everything above the codec layer — the experiment runner,
// the pipeline, the cmd/ binaries — selects codecs by name. Adding a new
// technique is a new package with a Register call; no central switch needs
// to grow.

// BuildContext carries the inputs a codec factory may need. Fields that a
// codec does not use are ignored; fields it requires are validated by the
// factory (a codec with NeedsTable set is never built without a table by
// the runner, but direct callers get a descriptive error).
type BuildContext struct {
	// MAG is the memory access granularity the codec will run at. Lossy
	// codecs need it for the bit-budget decision; lossless codecs ignore it.
	MAG MAG

	// Table is the workload-trained entropy table (an *e2mc.Table) for
	// codecs whose Info.NeedsTable is set; nil otherwise. It is typed as any
	// because the e2mc package imports this one — the registry stays at the
	// bottom of the dependency graph and factories assert the concrete type.
	Table any

	// ThresholdBits is the lossy threshold in bits (the largest number of
	// extra bits a lossy codec may approximate away, paper §III-B). Zero
	// selects the codec's default; lossless codecs ignore it.
	ThresholdBits int

	// ErrorBound is the absolute error bound for error-bounded lossy codecs
	// (Info.LossyBounded): every value the codec reconstructs must satisfy
	// |reconstructed − original| ≤ ErrorBound. Zero selects the codec's
	// default bound; codecs without the trait ignore it.
	ErrorBound float64
}

// Factory builds one codec instance from a build context.
type Factory func(ctx BuildContext) (Codec, error)

// Info describes one registered codec: its factory plus the traits the
// runner and simulator need to wire it into an evaluation cell.
type Info struct {
	// New builds the codec.
	New Factory

	// NeedsTable marks codecs that require a workload-trained entropy table
	// in BuildContext.Table (E2MC, HyComp's entropy path, SLC).
	NeedsTable bool

	// Lossy marks codecs whose Compress may discard information. A lossy
	// codec serves only safe-to-approximate regions; exact regions fall back
	// to the codec named by Base.
	Lossy bool

	// LossyBounded marks lossy codecs that honour an absolute error bound
	// (BuildContext.ErrorBound): every reconstructed value is within the
	// bound of the original, rather than the TSLC contract of a bounded
	// approximated symbol span. Implies Lossy.
	LossyBounded bool

	// Base is the registry name of the lossless codec that serves exact
	// regions when this codec is lossy ("e2mc" for the TSLC variants).
	Base string

	// Identity marks the no-compression baseline: blocks are stored raw and
	// the pipeline skips compression entirely.
	Identity bool

	// CompressCycles and DecompressCycles are the codec's memory-controller
	// pipeline latencies (paper §IV-A), consumed by the timing simulator.
	CompressCycles   int
	DecompressCycles int
}

var registry = struct {
	sync.RWMutex
	m map[string]Info
}{m: make(map[string]Info)}

// Register adds a codec under a unique lowercase name. It is called from
// codec package init functions and panics on a duplicate or invalid
// registration, as a registration bug should fail at program start.
func Register(name string, info Info) {
	if name == "" {
		panic("compress: Register with empty name")
	}
	if info.New == nil {
		panic(fmt.Sprintf("compress: Register(%q) with nil factory", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("compress: Register(%q) called twice", name))
	}
	registry.m[name] = info
}

// Lookup returns the registration for a codec name.
func Lookup(name string) (Info, bool) {
	registry.RLock()
	defer registry.RUnlock()
	info, ok := registry.m[name]
	return info, ok
}

// Names returns all registered codec names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m { //slclint:allow determinism collected names are sorted before return
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build looks a codec up and constructs it, with a descriptive error naming
// the available set when the name is unknown.
func Build(name string, ctx BuildContext) (Codec, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, UnknownCodecError(name)
	}
	if info.NeedsTable && ctx.Table == nil {
		return nil, fmt.Errorf("compress: codec %q needs a trained entropy table", name)
	}
	return info.New(ctx)
}

// UnknownCodecError returns the error for an unregistered codec name,
// listing what is available.
func UnknownCodecError(name string) error {
	names := Names()
	return fmt.Errorf("compress: unknown codec %q (available: %v)", name, names)
}

func init() {
	Register("raw", Info{
		New:      func(BuildContext) (Codec, error) { return Raw{}, nil },
		Identity: true,
	})
}
