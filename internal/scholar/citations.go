package scholar

import (
	"math"
	"math/rand/v2"
)

// CitationModel draws per-paper citation totals at a 36-month horizon, the
// window the paper lets its dataset age to before the Fig 2 reception
// analysis. Totals follow a discretized log-normal — the standard
// heavy-tailed, right-skewed model for citation counts — with an explicit
// zero-inflation mass for never-cited papers.
type CitationModel struct {
	Mu    float64 // log-scale location of the log-normal body
	Sigma float64 // log-scale spread
	PZero float64 // probability a paper is never cited in the window
}

// Draw samples one paper's citation count at 36 months.
func (m CitationModel) Draw(rng *rand.Rand) int {
	if m.PZero > 0 && rng.Float64() < m.PZero {
		return 0
	}
	x := math.Exp(m.Mu + m.Sigma*rng.NormFloat64())
	n := int(math.Round(x))
	if n < 1 {
		n = 1 // the body draws a cited paper; zero mass is handled above
	}
	return n
}

// Mean returns the model's expected citation count.
func (m CitationModel) Mean() float64 {
	return (1 - m.PZero) * math.Exp(m.Mu+m.Sigma*m.Sigma/2)
}

// AccrualCurve is the fraction of 36-month citations accrued by month t,
// modeling the well-documented slow first year followed by near-linear
// growth. It is exposed so the time-series analyses can interpolate
// mid-window snapshots; AccrualCurve(0) = 0 and AccrualCurve(36) = 1.
func AccrualCurve(month float64) float64 {
	switch {
	case month <= 0:
		return 0
	case month >= 36:
		return 1
	}
	// Smooth ramp: quadratic ease-in over the first year, then linear.
	if month < 12 {
		return 0.15 * (month / 12) * (month / 12)
	}
	return 0.15 + 0.85*(month-12)/24
}

// CitationsAtMonth scales a 36-month total to an intermediate month using
// the accrual curve (rounded to an integer count).
func CitationsAtMonth(total36 int, month float64) int {
	if total36 <= 0 {
		return 0
	}
	return int(math.Round(float64(total36) * AccrualCurve(month)))
}

// CareerModel generates a researcher's full per-publication citation
// vector from a latent experience scalar, producing profiles with the
// right-skewed shape of Figs 3-5: a few researchers with thousands of
// publications, most with fewer than 100.
type CareerModel struct {
	// PubMu/PubSigma parameterize the log-normal publication count.
	PubMu    float64
	PubSigma float64
	// CiteMu/CiteSigma parameterize per-paper citations.
	CiteMu    float64
	CiteSigma float64
	PZero     float64 // fraction of uncited papers
	MaxPubs   int     // safety cap; zero means 5000
}

// DrawCareer samples a publication-citation vector for one researcher into
// buf, allocating only when buf is too short, and returns it. latent shifts
// the publication count on the log scale: a latent of 0 is an average
// researcher for this model, positive values are more senior. The vector
// shares buf's memory, so a caller that passes the previous vector back
// as buf must be done reading it.
func (c CareerModel) DrawCareer(rng *rand.Rand, latent float64, buf []int) []int {
	maxPubs := c.MaxPubs
	if maxPubs == 0 {
		maxPubs = 5000
	}
	pubs := int(math.Round(math.Exp(c.PubMu + latent + c.PubSigma*rng.NormFloat64())))
	if pubs < 1 {
		pubs = 1
	}
	if pubs > maxPubs {
		pubs = maxPubs
	}
	cm := CitationModel{Mu: c.CiteMu, Sigma: c.CiteSigma, PZero: c.PZero}
	if cap(buf) < pubs {
		buf = make([]int, pubs)
	}
	vec := buf[:pubs]
	for i := range vec {
		vec[i] = cm.Draw(rng)
	}
	return vec
}
