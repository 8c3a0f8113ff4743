package baseline

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

func hybridModel() *gmm.Model {
	return gmm.MustNew(
		gmm.Component{Weight: 0.3, Mu: 100, Sigma: 20},
		gmm.Component{Weight: 0.5, Mu: 300, Sigma: 50},
		gmm.Component{Weight: 0.2, Mu: 600, Sigma: 80},
	)
}

func TestTCPSwiftestAccuracy(t *testing.T) {
	for _, capMbps := range []float64{80, 280, 550} {
		l := quietLink(t, capMbps, 21)
		rep := (&TCPSwiftest{Model: hybridModel()}).Run(l)
		if rel := math.Abs(rep.Result-capMbps) / capMbps; rel > 0.12 {
			t.Errorf("cap=%g: result %g off by %.0f%%", capMbps, rep.Result, rel*100)
		}
	}
}

func TestTCPSwiftestFasterThanFlooding(t *testing.T) {
	l := quietLink(t, 300, 23)
	hy := (&TCPSwiftest{Model: hybridModel()}).Run(l)
	l2 := quietLink(t, 300, 23)
	bts := (&BTSApp{}).Run(l2)
	if hy.Duration >= bts.Duration {
		t.Errorf("hybrid (%v) not faster than flooding (%v)", hy.Duration, bts.Duration)
	}
	if hy.DataMB >= bts.DataMB {
		t.Errorf("hybrid data (%.0f MB) not below flooding (%.0f MB)", hy.DataMB, bts.DataMB)
	}
}

// TestTCPSwiftestBacksOffOnLoss verifies the fairness property the §7
// variant exists for: unlike UDP pacing, it reduces its rate on loss.
func TestTCPSwiftestBacksOffOnLoss(t *testing.T) {
	lossy := linksim.MustNew(linksim.Config{
		CapacityMbps: 300,
		RTT:          30 * time.Millisecond,
		LossRate:     0.08, // frequent spurious losses
	}, 29)
	rep := (&TCPSwiftest{Model: hybridModel()}).Run(lossy)
	// With repeated 0.7× backoffs the delivered average must sit clearly
	// below the link capacity (a UDP pacer would stay at ≈300).
	var sum float64
	for _, s := range rep.Samples {
		sum += s
	}
	avg := sum / float64(len(rep.Samples))
	if avg > 285 {
		t.Errorf("average delivery %.0f shows no loss response", avg)
	}
}

func TestTCPSwiftestRequiresModel(t *testing.T) {
	l := quietLink(t, 100, 31)
	if rep := (&TCPSwiftest{}).Run(l); rep.Result != 0 || rep.Samples != nil {
		t.Error("nil model should yield an empty report")
	}
}

func TestTCPSwiftestName(t *testing.T) {
	if (&TCPSwiftest{}).Name() != "swiftest-tcp" {
		t.Error("name wrong")
	}
}
