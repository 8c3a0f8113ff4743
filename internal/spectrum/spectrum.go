// Package spectrum models the radio-spectrum layer of the study (§3.2, §3.3,
// §4): the nine LTE bands and five 5G NR bands observed in the measurement
// (Tables 1 and 2), the early-2021 refarming of LTE Bands 1/28/41 into NR
// N1/N28/N41, and a Shannon-style capacity model linking channel bandwidth
// and SNR to achievable access bandwidth.
package spectrum

import (
	"fmt"
	"math"
)

// ISP identifies one of the four major Chinese mobile ISPs in the study,
// anonymised exactly as in the paper.
type ISP int

// The four ISPs of §3.1. ISP-4 is the newly founded 5G-first carrier on the
// 700 MHz band.
const (
	ISP1 ISP = 1 + iota
	ISP2
	ISP3
	ISP4
)

// String implements fmt.Stringer ("ISP-1" … "ISP-4").
func (i ISP) String() string { return fmt.Sprintf("ISP-%d", int(i)) }

// Generation distinguishes LTE (4G) from NR (5G) bands.
type Generation int

const (
	LTE Generation = iota
	NR
)

func (g Generation) String() string {
	if g == LTE {
		return "LTE"
	}
	return "NR"
}

// Band describes one cellular frequency band as observed in the study.
type Band struct {
	Name          string     // 3GPP name, e.g. "B3" or "N78"
	Gen           Generation // LTE or NR
	DLLowMHz      float64    // downlink spectrum lower edge (MHz)
	DLHighMHz     float64    // downlink spectrum upper edge (MHz)
	MaxChannelMHz float64    // maximum supported channel bandwidth (MHz)
	ISPs          []ISP      // operators multiplexing the band

	// RefarmedFrom names the LTE band an NR band was refarmed from
	// (empty for dedicated NR bands and for LTE bands).
	RefarmedFrom string
	// ContiguousRefarmedMHz is the width of the contiguous spectrum slice
	// actually refarmed into this NR band (§3.3: 100 MHz for N41, 60 MHz
	// for N1, 45 MHz for N28). Zero for dedicated bands, whose usable
	// contiguous width equals MaxChannelMHz.
	ContiguousRefarmedMHz float64

	// SpecialUse records deployment peculiarities the paper calls out
	// (e.g. Band 39 serves sparse rural areas; Band 40 penetrates indoor
	// environments), which decouple spectrum from observed bandwidth.
	SpecialUse string
}

// DLWidthMHz reports the total downlink spectrum width of the band.
func (b Band) DLWidthMHz() float64 { return b.DLHighMHz - b.DLLowMHz }

// IsHBand reports whether an LTE band is a high-bandwidth band (H-Band),
// defined in §3.2 as supporting the 20 MHz maximum channel bandwidth needed
// to realise LTE's theoretical limit. It is false for NR bands.
func (b Band) IsHBand() bool { return b.Gen == LTE && b.MaxChannelMHz >= 20 }

// IsRefarmed reports whether an NR band was refarmed from LTE spectrum.
func (b Band) IsRefarmed() bool { return b.RefarmedFrom != "" }

// UsableContiguousMHz reports the contiguous spectrum width available to the
// band's radio access: the refarmed slice for refarmed NR bands, otherwise
// the band's maximum channel bandwidth.
func (b Band) UsableContiguousMHz() float64 {
	if b.IsRefarmed() && b.ContiguousRefarmedMHz > 0 {
		return b.ContiguousRefarmedMHz
	}
	return b.MaxChannelMHz
}

// LTEBands reproduces Table 1: the nine LTE bands involved in the study,
// ordered by downlink spectrum.
func LTEBands() []Band {
	return []Band{
		{Name: "B28", Gen: LTE, DLLowMHz: 758, DLHighMHz: 803, MaxChannelMHz: 20, ISPs: []ISP{ISP4}},
		{Name: "B5", Gen: LTE, DLLowMHz: 869, DLHighMHz: 894, MaxChannelMHz: 10, ISPs: []ISP{ISP3}},
		{Name: "B8", Gen: LTE, DLLowMHz: 925, DLHighMHz: 960, MaxChannelMHz: 10, ISPs: []ISP{ISP1, ISP2}},
		{Name: "B3", Gen: LTE, DLLowMHz: 1805, DLHighMHz: 1880, MaxChannelMHz: 20, ISPs: []ISP{ISP1, ISP2, ISP3}},
		{Name: "B39", Gen: LTE, DLLowMHz: 1880, DLHighMHz: 1920, MaxChannelMHz: 20, ISPs: []ISP{ISP1}, SpecialUse: "rural coverage with sparse eNodeBs"},
		{Name: "B34", Gen: LTE, DLLowMHz: 2010, DLHighMHz: 2025, MaxChannelMHz: 15, ISPs: []ISP{ISP1}},
		{Name: "B1", Gen: LTE, DLLowMHz: 2110, DLHighMHz: 2170, MaxChannelMHz: 20, ISPs: []ISP{ISP2, ISP3}},
		{Name: "B40", Gen: LTE, DLLowMHz: 2300, DLHighMHz: 2400, MaxChannelMHz: 20, ISPs: []ISP{ISP1}, SpecialUse: "indoor penetration with dense eNodeBs"},
		{Name: "B41", Gen: LTE, DLLowMHz: 2496, DLHighMHz: 2690, MaxChannelMHz: 20, ISPs: []ISP{ISP1}},
	}
}

// NRBands reproduces Table 2: the five 5G bands involved in the study,
// ordered by downlink spectrum, annotated with the refarming facts of §3.3.
func NRBands() []Band {
	return []Band{
		{Name: "N28", Gen: NR, DLLowMHz: 758, DLHighMHz: 803, MaxChannelMHz: 20, ISPs: []ISP{ISP4},
			RefarmedFrom: "B28", ContiguousRefarmedMHz: 45},
		{Name: "N1", Gen: NR, DLLowMHz: 2110, DLHighMHz: 2170, MaxChannelMHz: 20, ISPs: []ISP{ISP2, ISP3},
			RefarmedFrom: "B1", ContiguousRefarmedMHz: 60},
		{Name: "N41", Gen: NR, DLLowMHz: 2496, DLHighMHz: 2690, MaxChannelMHz: 100, ISPs: []ISP{ISP1},
			RefarmedFrom: "B41", ContiguousRefarmedMHz: 100},
		{Name: "N78", Gen: NR, DLLowMHz: 3300, DLHighMHz: 3800, MaxChannelMHz: 100, ISPs: []ISP{ISP2, ISP3}},
		{Name: "N79", Gen: NR, DLLowMHz: 4400, DLHighMHz: 5000, MaxChannelMHz: 100, ISPs: []ISP{ISP1, ISP4},
			SpecialUse: "under test deployment (3 tests in the study)"},
	}
}

// ByName returns the band with the given name from either table, and whether
// it exists.
func ByName(name string) (Band, bool) {
	for _, b := range LTEBands() {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range NRBands() {
		if b.Name == name {
			return b, true
		}
	}
	return Band{}, false
}

// HBandSpectrumMHz reports the total downlink spectrum of LTE H-Bands.
func HBandSpectrumMHz() float64 {
	var total float64
	for _, b := range LTEBands() {
		if b.IsHBand() {
			total += b.DLWidthMHz()
		}
	}
	return total
}

// RefarmedHBandFraction reports the fraction of LTE H-Band spectrum occupied
// by the refarmed bands (B1, B28, B41). The paper reports 58.2 % (§1, §3.2).
func RefarmedHBandFraction() float64 {
	refarmed := map[string]bool{}
	for _, n := range NRBands() {
		if n.IsRefarmed() {
			refarmed[n.RefarmedFrom] = true
		}
	}
	var part float64
	for _, b := range LTEBands() {
		if b.IsHBand() && refarmed[b.Name] {
			part += b.DLWidthMHz()
		}
	}
	total := HBandSpectrumMHz()
	if total == 0 {
		return 0
	}
	return part / total
}

// Capacity models achievable access bandwidth from channel width and SNR via
// the Shannon–Hartley theorem with an implementation-efficiency factor:
//
//	C = eff · W · log2(1 + SNR)
//
// W in MHz, SNR linear, result in Mbps. eff ≈ 0.6–0.75 captures coding and
// protocol overheads of deployed LTE/NR systems.
func Capacity(channelMHz, snrDB, efficiency float64) float64 {
	if channelMHz <= 0 {
		return 0
	}
	snr := math.Pow(10, snrDB/10)
	return efficiency * channelMHz * math.Log2(1+snr)
}
