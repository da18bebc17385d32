// Package fractal is the root of a reproduction of "Fractal: A Mobile Code
// Based Framework for Dynamic Application Protocol Adaptation in Pervasive
// Computing" (Lufei & Shi, IPPS 2005). It holds no API: the framework
// lives under internal/, the daemons under cmd/ and runnable scenarios
// under examples/, and this package's benchmarks regenerate the paper's
// evaluation (see README.md and EXPERIMENTS.md).
package fractal
