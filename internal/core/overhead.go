package core

import (
	"fmt"
	"math"
)

// StdCPUMHz is the reference processor of the linear model (Section
// 3.4.2): overheads are pre-measured on a 500 MHz processor and scaled
// linearly to the client's hardware.
const StdCPUMHz = 500.0

// Breakdown is the per-term decomposition of Equation 3 for one PAD in one
// environment, in seconds. Any term may be +Inf when a normalized ratio
// disqualifies the combination.
type Breakdown struct {
	Download   float64 // retrieving the PAD itself
	ServerComp float64 // server-side computing (zero when precomputed)
	ClientComp float64 // client-side computing
	Traffic    float64 // transmitting the PAD-encoded content
}

// Total returns the summed overhead.
func (b Breakdown) Total() float64 {
	return b.Download + b.ServerComp + b.ClientComp + b.Traffic
}

// OverheadModel evaluates Equation 3. It is immutable after construction
// and safe for concurrent use.
type OverheadModel struct {
	// Matrices are the normalized ratio corrections (Equation 2).
	Matrices Matrices
	// Rho is the application-level available-bandwidth fraction (≈0.8).
	Rho float64
	// ServerCPUMHz scales the pre-measured reference server computing
	// cost to the deployment's application server.
	ServerCPUMHz float64
	// IncludeServerComp distinguishes reactive adaptive content (true,
	// Figures 10(a–c)/11(b)) from proactively precomputed content (false,
	// Figures 10(d)/11(c)).
	IncludeServerComp bool
	// SessionRequests amortizes the one-time PAD download over the
	// expected number of requests in the application session (>= 1).
	SessionRequests int
}

// Validate reports whether the model parameters are usable.
func (m OverheadModel) Validate() error {
	if err := m.Matrices.Validate(); err != nil {
		return err
	}
	if m.Rho <= 0 || m.Rho > 1 {
		return fmt.Errorf("core: rho must be in (0,1], got %v", m.Rho)
	}
	if m.ServerCPUMHz <= 0 {
		return fmt.Errorf("core: server CPU speed must be positive, got %v", m.ServerCPUMHz)
	}
	if m.SessionRequests < 1 {
		return fmt.Errorf("core: session must have >= 1 request, got %d", m.SessionRequests)
	}
	return nil
}

// PADTotal evaluates Equation 3 for one PAD in one client environment:
//
//	total = PADsize/(ρ·CliBW)/session                (download, amortized)
//	      + serverComp·(StdCPU/ServerCPU)            (if reactive)
//	      + α(p,cpu)·β(p,os)·clientComp·(StdCPU/CliCPU)
//	      + γ(p,net)·(traffic+upstream)/(ρ·CliBW)
//
// Symbolic links must be resolved by the caller before evaluation.
func (m OverheadModel) PADTotal(p PADMeta, env Env) (Breakdown, error) {
	if err := m.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := env.Validate(); err != nil {
		return Breakdown{}, err
	}
	if p.Alias != "" {
		return Breakdown{}, fmt.Errorf("core: PADTotal on unresolved symbolic link %s -> %s", p.ID, p.Alias)
	}
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	return m.padTotal(p, env), nil
}

// padTotal is PADTotal without the input validation, for the compiled
// search path where the model, environment, and every resolved PADMeta
// were validated up front (FindPathFiltered validates the model and
// environment per call; BuildPAT validates the metadata).
func (m OverheadModel) padTotal(p PADMeta, env Env) Breakdown {
	effBps := m.Rho * env.Ntwk.BandwidthKbps * 1000.0
	var b Breakdown

	b.Download = float64(p.Size) * 8.0 / effBps / float64(m.SessionRequests)

	if m.IncludeServerComp {
		b.ServerComp = p.Overhead.ServerCompStd.Seconds() * StdCPUMHz / m.ServerCPUMHz
	}

	alpha := m.Matrices.A.Ratio(p.Protocol, env.Dev.CPUType)
	beta := m.Matrices.B.Ratio(p.Protocol, env.Dev.OSType)
	gamma := m.Matrices.R.Ratio(p.Protocol, env.Ntwk.NetworkType)
	// An infinite ratio disqualifies the PAD outright, even when the
	// scaled term would be zero (Inf * 0 is NaN, not a disqualifier).
	if math.IsInf(alpha, 1) || math.IsInf(beta, 1) {
		b.ClientComp = math.Inf(1)
	} else {
		b.ClientComp = alpha * beta * p.Overhead.ClientCompStd.Seconds() * StdCPUMHz / env.Dev.CPUMHz
	}
	if math.IsInf(gamma, 1) && p.Overhead.TrafficBytes+p.Overhead.UpstreamBytes == 0 {
		b.Traffic = math.Inf(1)
	} else {
		b.Traffic = gamma * float64(p.Overhead.TrafficBytes+p.Overhead.UpstreamBytes) * 8.0 / effBps
	}

	return b
}
