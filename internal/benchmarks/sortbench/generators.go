package sortbench

import (
	"math"

	"inputtune/internal/rng"
)

// Generator produces a sort input of roughly the requested size.
type Generator struct {
	Name string
	Gen  func(n int, r *rng.RNG) *List
}

// Generators is the synthetic battery spanning the feature space — the
// sort2 workload of the paper ("inputs generated from a collection of
// input generators meant to span the space of features").
func Generators() []Generator {
	return []Generator{
		{"random", GenRandom},
		{"sorted", GenSorted},
		{"reversed", GenReversed},
		{"nearly-sorted", GenNearlySorted},
		{"few-distinct", GenFewDistinct},
		{"gaussian", GenGaussian},
		{"exponential", GenExponential},
		{"organ-pipe", GenOrganPipe},
		{"sawtooth", GenSawtooth},
		{"runs", GenRuns},
	}
}

// GenRandom draws i.i.d. uniforms — quicksort/radix territory.
func GenRandom(n int, r *rng.RNG) *List {
	d := make([]float64, n)
	for i := range d {
		d[i] = r.Float64()
	}
	return &List{Data: d, Gen: "random"}
}

// GenSorted is fully ascending — insertion sort's best case, Lomuto
// quicksort's catastrophe.
func GenSorted(n int, r *rng.RNG) *List {
	d := make([]float64, n)
	x := 0.0
	for i := range d {
		x += r.Float64()
		d[i] = x
	}
	return &List{Data: d, Gen: "sorted"}
}

// GenReversed is strictly descending.
func GenReversed(n int, r *rng.RNG) *List {
	l := GenSorted(n, r)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		l.Data[i], l.Data[j] = l.Data[j], l.Data[i]
	}
	l.Gen = "reversed"
	return l
}

// GenNearlySorted perturbs a sorted list with ~2% random transpositions.
func GenNearlySorted(n int, r *rng.RNG) *List {
	l := GenSorted(n, r)
	l.Gen = "nearly-sorted"
	if n < 2 {
		return l
	}
	swaps := n / 50
	if swaps < 1 {
		swaps = 1
	}
	for s := 0; s < swaps; s++ {
		i, j := r.Intn(n), r.Intn(n)
		l.Data[i], l.Data[j] = l.Data[j], l.Data[i]
	}
	l.Gen = "nearly-sorted"
	return l
}

// GenFewDistinct draws from a tiny alphabet — heavy duplication, where
// distribution sorts shine and Lomuto quicksort degrades.
func GenFewDistinct(n int, r *rng.RNG) *List {
	k := r.IntRange(2, 8)
	alphabet := make([]float64, k)
	for i := range alphabet {
		alphabet[i] = r.Float64() * 100
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = alphabet[r.Intn(k)]
	}
	return &List{Data: d, Gen: "few-distinct"}
}

// GenGaussian draws normals.
func GenGaussian(n int, r *rng.RNG) *List {
	d := make([]float64, n)
	for i := range d {
		d[i] = r.Norm(0, 100)
	}
	return &List{Data: d, Gen: "gaussian"}
}

// GenExponential draws a heavy-tailed distribution (skews radix buckets).
func GenExponential(n int, r *rng.RNG) *List {
	d := make([]float64, n)
	for i := range d {
		d[i] = r.ExpFloat64() * 10
	}
	return &List{Data: d, Gen: "exponential"}
}

// GenOrganPipe ascends then descends.
func GenOrganPipe(n int, r *rng.RNG) *List {
	d := make([]float64, n)
	half := n / 2
	x := 0.0
	for i := 0; i < half; i++ {
		x += r.Float64()
		d[i] = x
	}
	for i := half; i < n; i++ {
		x -= r.Float64()
		d[i] = x
	}
	return &List{Data: d, Gen: "organ-pipe"}
}

// GenSawtooth repeats short ascending ramps.
func GenSawtooth(n int, r *rng.RNG) *List {
	period := r.IntRange(8, 64)
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(i%period) + r.Float64()*0.1
	}
	return &List{Data: d, Gen: "sawtooth"}
}

// GenRuns concatenates presorted runs — merge sort's natural prey.
func GenRuns(n int, r *rng.RNG) *List {
	d := make([]float64, 0, n)
	for len(d) < n {
		runLen := r.IntRange(16, 128)
		if runLen > n-len(d) {
			runLen = n - len(d)
		}
		start := r.Float64() * 1000
		x := start
		for i := 0; i < runLen; i++ {
			x += r.Float64()
			d = append(d, x)
		}
	}
	return &List{Data: d, Gen: "runs"}
}

// GenRegistry simulates the paper's sort1 workload, the Central Contractor
// Registration FOIA extract (docs/ARCHITECTURE.md § Substitutions, item
// 2). Extract slices vary widely: some are fully sorted by registration
// id, some are concatenations of per-agency sorted blocks, some carry
// heavy duplication from re-registrations, and recent appends arrive
// unsorted — so sortedness and duplication genuinely vary across inputs,
// as they do across FOIA slices.
func GenRegistry(n int, r *rng.RNG) *List {
	d := make([]float64, 0, n)
	maxDup := r.IntRange(1, 8)
	blocks := r.IntRange(1, 5) // main extract + per-batch appends, each id-sorted
	blockLen := n/blocks + 1
	for b := 0; b < blocks && len(d) < n; b++ {
		id := 1e6 * r.Float64()
		end := len(d) + blockLen
		for len(d) < end && len(d) < n {
			dup := r.IntRange(1, maxDup)
			for j := 0; j < dup && len(d) < n; j++ {
				d = append(d, id)
			}
			id += math.Floor(r.ExpFloat64()*10) + 1
		}
	}
	// Data corrections displace a small, varying fraction of rows.
	displaced := int(r.Range(0, 0.1) * float64(n))
	for s := 0; s < displaced; s++ {
		i, j := r.Intn(n), r.Intn(n)
		d[i], d[j] = d[j], d[i]
	}
	return &List{Data: d, Gen: "registry"}
}

// MixOptions controls the input battery.
type MixOptions struct {
	Count    int
	MinSize  int // default 64
	MaxSize  int // default 2048
	Seed     uint64
	RealLike bool // registry-only workload (sort1) instead of the battery
}

// GenerateMix produces a deterministic battery of inputs, cycling through
// generators with random sizes.
func GenerateMix(opts MixOptions) []*List {
	if opts.MinSize <= 0 {
		opts.MinSize = 64
	}
	if opts.MaxSize < opts.MinSize {
		opts.MaxSize = 2048
	}
	r := rng.New(opts.Seed)
	gens := Generators()
	out := make([]*List, opts.Count)
	for i := range out {
		n := r.IntRange(opts.MinSize, opts.MaxSize)
		if opts.RealLike {
			out[i] = GenRegistry(n, r)
		} else {
			out[i] = gens[i%len(gens)].Gen(n, r)
		}
	}
	return out
}
