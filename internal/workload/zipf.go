package workload

import (
	"math"
	"math/rand"

	"rdmamon/internal/httpsim"
	"rdmamon/internal/sim"
)

// ZipfTrace generates requests against a static document population
// whose popularity follows Zipf's law: P(doc i) ∝ 1/i^α. Higher α
// means higher temporal locality (the paper sweeps α from 0.25 to
// 0.9 in Figure 7).
//
// Document sizes are Pareto-distributed (heavy-tailed, like real web
// content), and unpopular documents miss the in-memory cache, adding
// an I/O wait — so a low-α trace mixes many requests with very
// different resource demands, which is exactly the regime where
// accurate fine-grained monitoring pays off.
type ZipfTrace struct {
	N int

	cum       []float64 // cumulative popularity
	sizes     []int
	cacheRank int // docs with rank < cacheRank are memory-resident

	// Service-cost model.
	CPUBase   sim.Time // per-request fixed CPU
	CPURate   int64    // bytes/sec of CPU-bound processing (copy, TCP)
	DiskRate  int64    // bytes/sec for cache misses
	DiskSetup sim.Time // seek+queue per miss
}

// NewZipfTrace builds a trace over n documents with exponent alpha.
// Sizes are deterministic given seed.
func NewZipfTrace(n int, alpha float64, seed int64) *ZipfTrace {
	if n <= 0 {
		panic("workload: zipf needs n > 0")
	}
	z := &ZipfTrace{
		N:         n,
		cum:       make([]float64, n),
		sizes:     make([]int, n),
		cacheRank: n / 10,
		CPUBase:   200 * sim.Microsecond,
		CPURate:   30 << 20, // touch-every-byte work (PHP passthrough era)
		DiskRate:  60 << 20,
		DiskSetup: 1 * sim.Millisecond,
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		z.cum[i] = sum
	}
	for i := range z.cum {
		z.cum[i] /= sum
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Pareto(xm=2KB, a=1.2) noise times a rank-dependent scale:
		// popular documents skew small (that is why they are popular
		// and cacheable); the cold tail holds the big objects. Capped
		// at 1 MB.
		u := rng.Float64()
		size := 2048 * math.Pow(1-u, -1/1.2)
		size *= 0.5 + 4*float64(i)/float64(n)
		if size > 1<<20 {
			size = 1 << 20
		}
		z.sizes[i] = int(size)
	}
	return z
}

// SampleDoc returns a document rank (0-based; 0 is the most popular).
func (z *ZipfTrace) SampleDoc(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, z.N-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Size returns the document's size in bytes.
func (z *ZipfTrace) Size(doc int) int { return z.sizes[doc] }

// Cached reports whether the document is memory-resident.
func (z *ZipfTrace) Cached(doc int) bool { return doc < z.cacheRank }

// Request materializes a request for a freshly sampled document.
func (z *ZipfTrace) Request(rng *rand.Rand, id uint64, client int, now sim.Time) httpsim.Request {
	return z.RequestFor(z.SampleDoc(rng), id, client, now)
}

// RequestFor materializes a request for a specific document.
func (z *ZipfTrace) RequestFor(doc int, id uint64, client int, now sim.Time) httpsim.Request {
	size := z.sizes[doc]
	cpu := z.CPUBase + sim.Time(int64(size)*int64(sim.Second)/z.CPURate)
	var io sim.Time
	if !z.Cached(doc) {
		io = z.DiskSetup + sim.Time(int64(size)*int64(sim.Second)/z.DiskRate)
	}
	return httpsim.Request{
		ID: id, Class: "zipf",
		CPU: cpu, IOWait: io,
		Size: 250, Resp: size,
		Client: client, Issued: now,
	}
}
