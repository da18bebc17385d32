package core

import "math"

// Case-study environment type labels (Figure 7). These mirror
// netsim's profiles; core keeps its own strings so the framework does not
// depend on the simulator.
const (
	CPUTypePXA255 = "PXA255"    // P: Intel PXA 255 (Pocket PC)
	CPUTypeP4     = "PentiumIV" // D/L: Pentium IV desktop & laptop
	OSWinCE       = "WinCE4.2"
	OSFedora      = "FedoraCore2"
	NetLAN        = "LAN"
	NetWLAN       = "WLAN"
	NetBluetooth  = "Bluetooth"
)

// CaseStudyMatrices returns the normalized ratio matrices of Equations
// 4–6: the PXA255 column carries a 1.1 penalty for the three computing
// protocols ("some of the data come from the test, others we set as 1 to
// follow the linear model"); the OS and network matrices are all ones.
// Row labels are codec protocol names; Direct is omitted and therefore
// falls back to the neutral ratio 1.
func CaseStudyMatrices() (Matrices, error) {
	rows := []string{"gzip", "varyblock", "bitmap"}
	a, err := NewRatioMatrix("A", rows,
		[]string{CPUTypePXA255, CPUTypeP4},
		[][]float64{
			{1.1, 1},
			{1.1, 1},
			{1.1, 1},
		})
	if err != nil {
		return Matrices{}, err
	}
	b, err := NewRatioMatrix("B", rows,
		[]string{OSWinCE, OSFedora},
		[][]float64{
			{1, 1},
			{1, 1},
			{1, 1},
		})
	if err != nil {
		return Matrices{}, err
	}
	r, err := NewRatioMatrix("R", rows,
		[]string{NetLAN, NetWLAN, NetBluetooth},
		[][]float64{
			{1, 1, 1},
			{1, 1, 1},
			{1, 1, 1},
		})
	if err != nil {
		return Matrices{}, err
	}
	return Matrices{A: a, B: b, R: r}, nil
}

// ContentAdaptationMatrices extends the case-study matrices for the
// two-level content-adaptation topology, exercising the paper's remark
// that "it is easy to introduce more parameters if necessary, e.g., the
// screen resolution": the thumbnail rendition is unsuitable (infinite
// ratio) on the large-display Fedora hosts and suitable on the WinCE
// handheld, while the full rendition runs anywhere.
func ContentAdaptationMatrices() (Matrices, error) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		return Matrices{}, err
	}
	b, err := NewRatioMatrix("B",
		[]string{"gzip", "varyblock", "bitmap", "thumbnail", "full"},
		[]string{OSWinCE, OSFedora},
		[][]float64{
			{1, 1},
			{1, 1},
			{1, 1},
			{1, math.Inf(1)}, // thumbnails waste large displays
			{1, 1},
		})
	if err != nil {
		return Matrices{}, err
	}
	ms.B = b
	return ms, nil
}
