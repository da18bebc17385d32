package core

import "math"

// Matrix fixtures shared by this package's tests and its examples.

// Neutral returns matrices of all-ones over the given protocols, the pure
// linear model with no environment corrections.
func Neutral(protocols []string) (Matrices, error) {
	ones := func(name string, cols []string) (*RatioMatrix, error) {
		vals := make([][]float64, len(protocols))
		for i := range vals {
			vals[i] = make([]float64, len(cols))
			for j := range vals[i] {
				vals[i][j] = 1
			}
		}
		return NewRatioMatrix(name, protocols, cols, vals)
	}
	a, err := ones("A", []string{"any-cpu"})
	if err != nil {
		return Matrices{}, err
	}
	b, err := ones("B", []string{"any-os"})
	if err != nil {
		return Matrices{}, err
	}
	r, err := ones("R", []string{"any-net"})
	if err != nil {
		return Matrices{}, err
	}
	return Matrices{A: a, B: b, R: r}, nil
}

// MediaPlayerExampleMatrix reproduces the motivating example of Section
// 3.4.2: Windows Media runs on WinCE but not PalmOS, Kinoma the reverse.
// The tests and the package example use it to demonstrate how an infinite
// ratio disqualifies an otherwise-cheaper PAD.
func MediaPlayerExampleMatrix() (*RatioMatrix, error) {
	inf := math.Inf(1)
	return NewRatioMatrix("B-players",
		[]string{"winmedia", "kinoma"},
		[]string{"WinCE", "PalmOS"},
		[][]float64{
			{1, inf},
			{inf, 1},
		})
}
