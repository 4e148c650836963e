package clustering

import (
	"math"

	"inputtune/internal/rng"
)

// Generator produces a clustering instance of roughly the requested size.
type Generator struct {
	Name string
	Gen  func(n int, r *rng.RNG) *Points
}

// Generators spans tight/overlapping/structureless point sets — the
// clustering2 synthetic battery.
func Generators() []Generator {
	return []Generator{
		{"blobs", GenBlobs},
		{"overlapping", GenOverlapping},
		{"uniform", GenUniform},
		{"ring", GenRing},
		{"anisotropic", GenAnisotropic},
		{"outliers", GenOutliers},
	}
}

func newPoints(n int, gen string, r *rng.RNG) *Points {
	return &Points{
		X:    make([]float64, n),
		Y:    make([]float64, n),
		Gen:  gen,
		seed: r.Uint64(),
	}
}

// GenBlobs scatters k well-separated Gaussian clusters: easy — even prefix
// or random initialisation with few iterations reaches the target.
func GenBlobs(n int, r *rng.RNG) *Points {
	p := newPoints(n, "blobs", r)
	k := r.IntRange(2, 8)
	cx := make([]float64, k)
	cy := make([]float64, k)
	for c := range cx {
		cx[c] = r.Range(-100, 100)
		cy[c] = r.Range(-100, 100)
	}
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		p.X[i] = cx[c] + r.Norm(0, 3)
		p.Y[i] = cy[c] + r.Norm(0, 3)
	}
	return p
}

// GenOverlapping scatters close, wide Gaussians: initialisation quality
// and iteration count matter.
func GenOverlapping(n int, r *rng.RNG) *Points {
	p := newPoints(n, "overlapping", r)
	k := r.IntRange(3, 6)
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		p.X[i] = float64(c)*15 + r.Norm(0, 10)
		p.Y[i] = float64(c%2)*15 + r.Norm(0, 10)
	}
	return p
}

// GenUniform has no cluster structure at all.
func GenUniform(n int, r *rng.RNG) *Points {
	p := newPoints(n, "uniform", r)
	for i := 0; i < n; i++ {
		p.X[i] = r.Range(-100, 100)
		p.Y[i] = r.Range(-100, 100)
	}
	return p
}

// GenRing places points on an annulus — k-means approximates it with arc
// segments, needing enough centers and iterations.
func GenRing(n int, r *rng.RNG) *Points {
	p := newPoints(n, "ring", r)
	for i := 0; i < n; i++ {
		theta := r.Range(0, 2*math.Pi)
		rad := 50 + r.Norm(0, 3)
		p.X[i] = rad * math.Cos(theta)
		p.Y[i] = rad * math.Sin(theta)
	}
	return p
}

// GenAnisotropic stretches blobs along one axis.
func GenAnisotropic(n int, r *rng.RNG) *Points {
	p := newPoints(n, "anisotropic", r)
	k := r.IntRange(2, 5)
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		p.X[i] = float64(c)*60 + r.Norm(0, 20)
		p.Y[i] = float64(c)*10 + r.Norm(0, 2)
	}
	return p
}

// GenOutliers is blobs plus 5% uniform noise.
func GenOutliers(n int, r *rng.RNG) *Points {
	p := GenBlobs(n, r)
	p.Gen = "outliers"
	for i := 0; i < n; i++ {
		if r.Coin(0.05) {
			p.X[i] = r.Range(-200, 200)
			p.Y[i] = r.Range(-200, 200)
		}
	}
	return p
}

// GenLattice simulates the paper's clustering1 workload, the UCI Poker
// Hand data set (docs/ARCHITECTURE.md § Substitutions, item 3): discrete integer-valued
// attributes projected to 2-D, producing a small number of dense lattice
// sites with massive duplication.
func GenLattice(n int, r *rng.RNG) *Points {
	p := newPoints(n, "lattice", r)
	// Poker-hand-like: suits 1..4 and ranks 1..13 combined into lattice
	// coordinates; a few (suit, rank) combinations dominate.
	kHot := r.IntRange(4, 10)
	hotX := make([]float64, kHot)
	hotY := make([]float64, kHot)
	for c := range hotX {
		hotX[c] = float64(r.IntRange(1, 13))
		hotY[c] = float64(r.IntRange(1, 4))
	}
	for i := 0; i < n; i++ {
		if r.Coin(0.8) {
			c := r.Intn(kHot)
			p.X[i] = hotX[c]
			p.Y[i] = hotY[c]
		} else {
			p.X[i] = float64(r.IntRange(1, 13))
			p.Y[i] = float64(r.IntRange(1, 4))
		}
	}
	return p
}

// MixOptions controls the input battery.
type MixOptions struct {
	Count    int
	MinSize  int // default 100
	MaxSize  int // default 1000
	Seed     uint64
	RealLike bool // lattice-only workload (clustering1) instead of battery
}

// GenerateMix produces a deterministic battery of clustering inputs.
func GenerateMix(opts MixOptions) []*Points {
	if opts.MinSize <= 0 {
		opts.MinSize = 100
	}
	if opts.MaxSize < opts.MinSize {
		opts.MaxSize = 1000
	}
	r := rng.New(opts.Seed)
	gens := Generators()
	out := make([]*Points, opts.Count)
	for i := range out {
		n := r.IntRange(opts.MinSize, opts.MaxSize)
		if opts.RealLike {
			out[i] = GenLattice(n, r)
		} else {
			out[i] = gens[i%len(gens)].Gen(n, r)
		}
	}
	return out
}
