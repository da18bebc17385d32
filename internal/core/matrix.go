package core

import (
	"fmt"
	"math"
)

// RatioMatrix is a normalized ratio matrix (Section 3.4.2): rows are
// protocols, columns are environment types (processor types for matrix A,
// operating systems for B, network types for R). Entry (p, e) multiplies
// the linear-model estimate for protocol p in environment e; +Inf
// disqualifies the combination outright, like Kinoma on WinCE in the
// paper's example.
type RatioMatrix struct {
	rows map[string]int
	cols map[string]int
	vals [][]float64
}

// NewRatioMatrix builds a matrix. vals is indexed [row][col]; entries must
// be > 0 (use math.Inf(1) for incompatible combinations).
func NewRatioMatrix(name string, rows, cols []string, vals [][]float64) (*RatioMatrix, error) {
	if name == "" {
		return nil, fmt.Errorf("core: ratio matrix needs a name")
	}
	if len(rows) == 0 || len(cols) == 0 {
		return nil, fmt.Errorf("core: ratio matrix %s needs rows and columns", name)
	}
	if len(vals) != len(rows) {
		return nil, fmt.Errorf("core: ratio matrix %s has %d value rows for %d row labels", name, len(vals), len(rows))
	}
	m := &RatioMatrix{rows: map[string]int{}, cols: map[string]int{}}
	for i, r := range rows {
		if _, dup := m.rows[r]; dup {
			return nil, fmt.Errorf("core: ratio matrix %s: duplicate row %q", name, r)
		}
		m.rows[r] = i
	}
	for j, c := range cols {
		if _, dup := m.cols[c]; dup {
			return nil, fmt.Errorf("core: ratio matrix %s: duplicate column %q", name, c)
		}
		m.cols[c] = j
	}
	m.vals = make([][]float64, len(rows))
	for i := range vals {
		if len(vals[i]) != len(cols) {
			return nil, fmt.Errorf("core: ratio matrix %s row %d has %d values for %d columns", name, i, len(vals[i]), len(cols))
		}
		for j, v := range vals[i] {
			if v <= 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("core: ratio matrix %s[%d][%d] = %v must be positive or +Inf", name, i, j, v)
			}
		}
		m.vals[i] = append([]float64(nil), vals[i]...)
	}
	return m, nil
}

// Ratio returns the normalized ratio for a protocol in an environment
// type. Per the paper, consumer environments are few, so the column "will
// be found with high probability; otherwise a similar type with close
// parameters will be chosen instead" — an unknown protocol or environment
// falls back to the neutral ratio 1 (the pure linear model).
func (m *RatioMatrix) Ratio(protocol, envType string) float64 {
	i, okR := m.rows[protocol]
	j, okC := m.cols[envType]
	if !okR || !okC {
		return 1
	}
	return m.vals[i][j]
}

// Matrices bundles the three normalized ratio matrices of Equation 2.
type Matrices struct {
	A *RatioMatrix // processor types
	B *RatioMatrix // operating systems
	R *RatioMatrix // network types
}

// Validate reports whether all three matrices are present.
func (ms Matrices) Validate() error {
	if ms.A == nil || ms.B == nil || ms.R == nil {
		return fmt.Errorf("core: matrices A, B, R must all be set")
	}
	return nil
}
