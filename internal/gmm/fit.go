package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// EM fitting constants.
const (
	maxIter  = 200  // maximum EM iterations
	tol      = 1e-6 // log-likelihood convergence tolerance
	minSigma = 1e-3 // lower bound on component sigma
	restarts = 3    // independent k-means++ initialisations
)

// Fit estimates a k-component mixture from xs with the EM algorithm,
// initialised by k-means++ seeding. It returns the model and the final
// per-sample average log-likelihood. rng drives initialisation only; the EM
// iterations themselves are deterministic.
func Fit(xs []float64, k int, rng *rand.Rand) (*Model, float64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("gmm: k = %d must be positive", k)
	}
	if len(xs) < 2*k {
		return nil, 0, fmt.Errorf("gmm: %d samples insufficient for k=%d", len(xs), k)
	}
	var bestModel *Model
	bestLL := math.Inf(-1)
	for r := 0; r < restarts; r++ {
		m, ll, err := fitOnce(xs, k, rng)
		if err != nil {
			continue
		}
		if ll > bestLL {
			bestLL, bestModel = ll, m
		}
	}
	if bestModel == nil {
		return nil, 0, errors.New("gmm: EM failed to converge on any restart")
	}
	return bestModel, bestLL, nil
}

func fitOnce(xs []float64, k int, rng *rand.Rand) (*Model, float64, error) {
	n := len(xs)
	mu := kmeansPPInit(xs, k, rng)
	sigma := make([]float64, k)
	w := make([]float64, k)
	globalSD := sampleSD(xs)
	if globalSD < minSigma {
		globalSD = minSigma
	}
	for i := range sigma {
		sigma[i] = globalSD
		w[i] = 1 / float64(k)
	}

	resp := make([]float64, n*k) // responsibilities, row-major [i*k+j]
	prevLL := math.Inf(-1)
	var ll float64
	for iter := 0; iter < maxIter; iter++ {
		// E step.
		ll = 0
		for i, x := range xs {
			var rowSum float64
			for j := 0; j < k; j++ {
				p := w[j] * gaussPDF(x, mu[j], sigma[j])
				resp[i*k+j] = p
				rowSum += p
			}
			if rowSum <= 0 {
				// Numerically stranded point: assign to nearest component.
				nearest := 0
				for j := 1; j < k; j++ {
					if math.Abs(x-mu[j]) < math.Abs(x-mu[nearest]) {
						nearest = j
					}
				}
				for j := 0; j < k; j++ {
					resp[i*k+j] = 0
				}
				resp[i*k+nearest] = 1
				rowSum = math.SmallestNonzeroFloat64
			}
			for j := 0; j < k; j++ {
				resp[i*k+j] /= rowSum
			}
			ll += math.Log(rowSum)
		}
		ll /= float64(n)

		// M step.
		for j := 0; j < k; j++ {
			var nj, muj float64
			for i, x := range xs {
				nj += resp[i*k+j]
				muj += resp[i*k+j] * x
			}
			if nj < 1e-10 {
				// Dead component: reseed at a random sample.
				mu[j] = xs[rng.Intn(n)]
				sigma[j] = globalSD
				w[j] = 1e-6
				continue
			}
			muj /= nj
			var varj float64
			for i, x := range xs {
				d := x - muj
				varj += resp[i*k+j] * d * d
			}
			varj /= nj
			mu[j] = muj
			sigma[j] = math.Max(math.Sqrt(varj), minSigma)
			w[j] = nj / float64(n)
		}
		normalize(w)

		if math.Abs(ll-prevLL) < tol {
			break
		}
		prevLL = ll
	}

	comps := make([]Component, k)
	for j := 0; j < k; j++ {
		comps[j] = Component{Weight: w[j], Mu: mu[j], Sigma: sigma[j]}
	}
	m, err := New(comps...)
	if err != nil {
		return nil, 0, err
	}
	return m, ll, nil
}

func normalize(w []float64) {
	var s float64
	for _, x := range w {
		s += x
	}
	if s <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}

func sampleSD(xs []float64) float64 {
	if len(xs) < 2 {
		return 1
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// kmeansPPInit picks k initial means by k-means++ seeding.
func kmeansPPInit(xs []float64, k int, rng *rand.Rand) []float64 {
	mu := make([]float64, 0, k)
	mu = append(mu, xs[rng.Intn(len(xs))])
	d2 := make([]float64, len(xs))
	for len(mu) < k {
		var total float64
		for i, x := range xs {
			best := math.Inf(1)
			for _, m := range mu {
				d := x - m
				if d*d < best {
					best = d * d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with chosen means; spread arbitrarily.
			mu = append(mu, xs[rng.Intn(len(xs))]+float64(len(mu)))
			continue
		}
		u := rng.Float64() * total
		var acc float64
		chosen := len(xs) - 1
		for i, d := range d2 {
			acc += d
			if u <= acc {
				chosen = i
				break
			}
		}
		mu = append(mu, xs[chosen])
	}
	sort.Float64s(mu)
	return mu
}

// FitBIC fits mixtures for k = 1..kmax and selects the model minimising the
// Bayesian information criterion. It returns the chosen model and its k.
func FitBIC(xs []float64, kmax int, rng *rand.Rand) (*Model, int, error) {
	if kmax <= 0 {
		return nil, 0, fmt.Errorf("gmm: kmax = %d must be positive", kmax)
	}
	n := float64(len(xs))
	var best *Model
	bestK := 0
	bestBIC := math.Inf(1)
	var firstErr error
	for k := 1; k <= kmax; k++ {
		m, avgLL, err := Fit(xs, k, rng)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		params := float64(3*k - 1) // k means, k sigmas, k-1 free weights
		bic := -2*avgLL*n + params*math.Log(n)
		if bic < bestBIC {
			bestBIC, best, bestK = bic, m, k
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("gmm: no k in 1..%d fit: %w", kmax, firstErr)
	}
	return best, bestK, nil
}
