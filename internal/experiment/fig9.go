package experiment

import (
	"fmt"
	"sync"
	"time"

	"fractal/internal/client"
	"fractal/internal/deploy"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
)

// Fig9aPoint is one x/y point of Figure 9(a): average negotiation time
// (INIT_REQ through PAD_META_REP) against the number of simultaneous
// clients served by one adaptation proxy.
type Fig9aPoint struct {
	Clients int
	Mean    time.Duration
	Max     time.Duration
}

// Fig9aResult is the negotiation-capacity series.
type Fig9aResult struct {
	Points []Fig9aPoint
}

// RunFig9a measures real concurrent negotiations over TCP against the
// setup's proxy. Client environments cycle through the paper's three
// stations, so the adaptation cache behaves as in the deployment (each
// configuration negotiates once, later clients hit the cache).
func RunFig9a(s *Setup, clientCounts []int) (Fig9aResult, error) {
	if len(clientCounts) == 0 {
		return Fig9aResult{}, fmt.Errorf("experiment: fig9a needs client counts")
	}
	ep, err := deploy.Serve("127.0.0.1:0", proxy.NewServer, s.Proxy, func(string, ...interface{}) {})
	if err != nil {
		return Fig9aResult{}, fmt.Errorf("experiment: fig9a: %w", err)
	}
	defer ep.Close()
	neg := &client.TCPNegotiator{Addr: ep.Addr()}
	stations := netsim.Stations()

	var out Fig9aResult
	for _, n := range clientCounts {
		if n < 1 {
			return Fig9aResult{}, fmt.Errorf("experiment: fig9a client count %d", n)
		}
		durs := make([]time.Duration, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				env := EnvFor(stations[i%len(stations)])
				//fractal:allow simtime — fig9a measures real TCP negotiation latency
				start := time.Now()
				_, err := neg.Negotiate(s.App.AppID(), env, s.Model.SessionRequests)
				durs[i] = time.Since(start)
				errs[i] = err
			}(i)
		}
		wg.Wait()
		var sum, max time.Duration
		for i := range durs {
			if errs[i] != nil {
				return Fig9aResult{}, fmt.Errorf("experiment: fig9a client %d: %w", i, errs[i])
			}
			sum += durs[i]
			if durs[i] > max {
				max = durs[i]
			}
		}
		out.Points = append(out.Points, Fig9aPoint{
			Clients: n,
			Mean:    sum / time.Duration(n),
			Max:     max,
		})
	}
	return out, nil
}

// Rows renders the series for the bench harness.
func (r Fig9aResult) Rows() []string {
	rows := []string{"clients\tmean_negotiation\tmax_negotiation"}
	for _, p := range r.Points {
		rows = append(rows, fmt.Sprintf("%d\t%v\t%v", p.Clients, p.Mean.Round(time.Microsecond), p.Max.Round(time.Microsecond)))
	}
	return rows
}

// Fig9bPoint is one x/y pair of points of Figure 9(b): average PAD
// retrieval time under N simultaneous downloads, centralized PAD server
// versus CDN edgeservers.
type Fig9bPoint struct {
	Clients     int
	Centralized time.Duration
	Distributed time.Duration
}

// Fig9bResult is the retrieval-scaling comparison.
type Fig9bResult struct {
	PADBytes int64
	Points   []Fig9bPoint
}

// RunFig9b evaluates the deterministic contention model: N clients
// simultaneously download the average-size PAD module either from the
// single centralized server (uplink shared N ways) or from the CDN, where
// the N clients spread across the edges. Clients connect over WLAN as a
// representative access link.
func RunFig9b(s *Setup, clientCounts []int) (Fig9bResult, error) {
	if len(clientCounts) == 0 {
		return Fig9bResult{}, fmt.Errorf("experiment: fig9b needs client counts")
	}
	// Average PAD size across the deployed module set.
	var total int64
	for _, p := range s.AppMeta.PADs {
		total += p.Size
	}
	avg := total / int64(len(s.AppMeta.PADs))
	// Publish a synthetic object of exactly the average size so both
	// sides serve identical bytes.
	blob := make([]byte, avg)
	if err := s.CDN.Origin().Publish("/pads/_avg", blob); err != nil {
		return Fig9bResult{}, err
	}
	edges := len(s.CDN.Edges())
	// Warm every edge cache so the steady-state (hit) path is measured,
	// as a publisher does after uploading modules.
	if _, err := s.CDN.Prefetch("/pads/_avg"); err != nil {
		return Fig9bResult{}, err
	}
	out := Fig9bResult{PADBytes: avg}
	for _, n := range clientCounts {
		if n < 1 {
			return Fig9bResult{}, fmt.Errorf("experiment: fig9b client count %d", n)
		}
		cen, err := s.CDN.RetrieveCentralized("/pads/_avg", netsim.WLAN, n)
		if err != nil {
			return Fig9bResult{}, err
		}
		perEdge := (n + edges - 1) / edges
		dist, err := s.CDN.Retrieve("region-0", "/pads/_avg", netsim.WLAN, perEdge)
		if err != nil {
			return Fig9bResult{}, err
		}
		out.Points = append(out.Points, Fig9bPoint{
			Clients:     n,
			Centralized: cen.Time,
			Distributed: dist.Time,
		})
	}
	return out, nil
}

// Rows renders the series for the bench harness.
func (r Fig9bResult) Rows() []string {
	rows := []string{fmt.Sprintf("clients\tcentralized\tdistributed\t(PAD %d bytes)", r.PADBytes)}
	for _, p := range r.Points {
		rows = append(rows, fmt.Sprintf("%d\t%v\t%v", p.Clients,
			p.Centralized.Round(time.Millisecond), p.Distributed.Round(time.Millisecond)))
	}
	return rows
}
