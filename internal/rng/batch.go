package rng

import "math"

// This file is the log-free sampler behind the lane-batched
// simulation kernel (internal/sim, "Lane kernel" in DESIGN.md). The
// scalar hot path draws one exponential inter-arrival time per failure
// with Stream.Exponential, which puts one math.Log on the critical
// path of every event. The ziggurat (ExpZiggurat) accepts ~97.9% of
// draws with a compare against a precomputed layer table and touches
// math.Exp/math.Log only in the wedge and the tail. It consumes the
// stream differently from the inverse CDF (one uint64 per attempt plus
// rejection retries), so its draws are equal to Exponential's in
// distribution, not in value.
//
// Antithetic reflection. A reflected stream maps the layer index
// i → 255−i and the within-layer position u → maxUniform−u, and its
// wedge and tail uniforms are reflected by Float64 as everywhere else.
// Each of these is the complement of the raw bits it reads: i is the
// low 8 bits, u the high 53 bits, and maxUniform−u the high 53 bits
// complemented. So a reflected draw is exactly the plain ziggurat run
// on the complemented raw words (TestExpZigguratReflectionIsComplement
// pins this bit for bit). Complementing a uniform uint64 is a
// bijection, and whether a word feeds the ziggurat (complemented) or
// an integer draw such as a victim choice (raw) is decided by the words
// before it, so the words the algorithm sees are still i.i.d. uniform:
// a reflected draw is exactly Exp(rate), not merely anticorrelated with
// its plain twin. The pairing is weaker than the inverse CDF's exact
// quantile mirror, because rejection retries may desynchronize the two
// halves, but the correlation stays strongly negative.

// Ziggurat tables for the Exp(1) density f(x) = e⁻ˣ, 256 layers
// (Marsaglia & Tsang 2000). zigR is the base-strip boundary and zigV
// the common layer area; the tables are derived at init from the two
// constants so the construction is auditable rather than a wall of
// literals. Layer 0 is the base strip (rectangle [0, zigR] plus the
// analytic tail), layers 1..255 shrink towards the mode, zigX[256] = 0.
const (
	zigR = 7.69711747013104972
	zigV = 0.0039496598225815571993
)

var (
	zigX [257]float64 // layer right edges, decreasing
	zigF [257]float64 // e^(-zigX[i])
)

func init() {
	zigX[0] = zigV / math.Exp(-zigR) // virtual base-strip width: area/height
	zigX[1] = zigR
	for i := 2; i < 256; i++ {
		// Equal areas: zigV = zigX[i-1]·(f(zigX[i]) − f(zigX[i-1])).
		zigX[i] = -math.Log(zigV/zigX[i-1] + math.Exp(-zigX[i-1]))
	}
	zigX[256] = 0
	for i := range zigX {
		zigF[i] = math.Exp(-zigX[i])
	}
}

// ExpZiggurat returns an Exponential(rate) variate via the ziggurat
// method: one uint64 per attempt supplies both the layer index (low 8
// bits) and the 53-bit position within it, a single compare accepts
// the rectangular core (~97.9% of draws), and only the wedge and the
// analytic tail evaluate a transcendental. A reflected stream mirrors
// both the layer index and the within-layer position (the raw uint64
// sequence is untouched); the draw is still exactly Exp(rate) (see the
// file comment) and strongly negatively correlated with the plain one.
func (s *Stream) ExpZiggurat(rate float64) float64 {
	if rate <= 0 {
		panic("rng: ExpZiggurat with non-positive rate")
	}
	return s.expZig() / rate
}

func (s *Stream) expZig() float64 {
	for {
		bits := s.Uint64()
		i := int(bits & 0xFF)
		u := float64(bits>>11) / (1 << 53)
		if s.reflected {
			// Reflect both coordinates: layers have equal probability, so
			// i → 255−i preserves the distribution while mapping large-x
			// layers to small-x ones, and the within-layer position
			// mirrors — together a globally decreasing image of the plain
			// draw, which is what keeps antithetic pairs negatively
			// correlated under the ziggurat.
			i = 255 - i
			u = maxUniform - u
		}
		x := u * zigX[i]
		if x < zigX[i+1] {
			return x // inside the layer's rectangular core
		}
		if i == 0 {
			// Base strip beyond zigR: the tail of Exp(1) restarts
			// memorylessly at zigR.
			return zigR - math.Log(s.positiveFloat64())
		}
		// Wedge: accept x with probability proportional to the density
		// overhang between the layer's edges.
		if zigF[i]+(zigF[i+1]-zigF[i])*s.Float64() < math.Exp(-x) {
			return x
		}
	}
}
