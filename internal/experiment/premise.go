package experiment

import (
	"fmt"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/deploy"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// DocumentClass is one content mix of the premise study: the paper's
// motivation rests on the authors' prior evaluation [30] that "no single
// algorithm outperformed others in all cases. Different approaches have
// different performance in terms of different network types, document
// types, and device configurations."
type DocumentClass struct {
	Name     string
	Config   workload.Config
	Mutation workload.Mutation
}

// PremiseClasses returns document mixes spanning the axes of [30]:
// text-heavy markup, the default medical image mix, incompressible
// (pre-compressed) imagery, and a mostly-static archive.
func PremiseClasses(seed int64) []DocumentClass {
	return []DocumentClass{
		{
			Name:     "text-heavy",
			Config:   workload.Config{Pages: 4, TextBytes: 96 * 1024, Images: 0, ImageBytes: 0, Seed: seed},
			Mutation: workload.Mutation{TextEditFrac: 0.05, TextInsertFrac: 0.01, Seed: seed + 1},
		},
		{
			Name:     "medical-images",
			Config:   workload.Config{Pages: 4, TextBytes: 5 * 1024, Images: 4, ImageBytes: 32 * 1024, Seed: seed},
			Mutation: workload.DefaultMutation(seed + 1),
		},
		{
			Name: "precompressed",
			Config: workload.Config{
				Pages: 4, TextBytes: 1024, Images: 4, ImageBytes: 32 * 1024,
				Seed: seed, NoiseEvery: 1,
			},
			Mutation: workload.Mutation{ImageRegionFrac: 0.5, ImageFreshFrac: 0.9, Seed: seed + 1},
		},
		{
			Name:     "static-archive",
			Config:   workload.Config{Pages: 4, TextBytes: 5 * 1024, Images: 4, ImageBytes: 32 * 1024, Seed: seed},
			Mutation: workload.Mutation{ImageRegionFrac: 0.01, Seed: seed + 1},
		},
	}
}

// PremiseCell is one (document class, station) outcome.
type PremiseCell struct {
	Class    string
	Station  string
	Winner   string
	TotalSec float64
}

// PremiseResult is the winner matrix plus the measured per-class bytes.
type PremiseResult struct {
	Cells []PremiseCell
	// Bytes[class][protocol] = measured per-request wire bytes.
	Bytes map[string]map[string]int64
}

// RunPremise measures every protocol on every document class and evaluates
// Equation 3 per station, reproducing the heterogeneity argument: the
// winner set must not collapse to a single protocol.
func RunPremise(seed int64) (PremiseResult, error) {
	model, err := deploy.Model()
	if err != nil {
		return PremiseResult{}, err
	}
	protos := []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock, codec.NameRsync}
	out := PremiseResult{Bytes: map[string]map[string]int64{}}
	for _, class := range PremiseClasses(seed) {
		v1, err := workload.Generate(class.Config)
		if err != nil {
			return PremiseResult{}, fmt.Errorf("experiment: premise %s: %w", class.Name, err)
		}
		v2, err := workload.MutateCorpus(v1, class.Mutation)
		if err != nil {
			return PremiseResult{}, fmt.Errorf("experiment: premise %s: %w", class.Name, err)
		}
		out.Bytes[class.Name] = map[string]int64{}
		metas := map[string]core.PADMeta{}
		for _, proto := range protos {
			impl, err := codec.New(proto)
			if err != nil {
				return PremiseResult{}, err
			}
			var traffic, upstream, content int64
			for i := range v1.Pages {
				old := v1.Pages[i].Bytes()
				cur := v2.Pages[i].Bytes()
				payload, err := impl.Encode(old, cur)
				if err != nil {
					return PremiseResult{}, fmt.Errorf("experiment: premise %s/%s: %w", class.Name, proto, err)
				}
				traffic += int64(len(payload))
				content += int64(len(cur))
				if uc, ok := codec.Codec(impl).(codec.UpstreamCoster); ok {
					upstream += uc.UpstreamBytes(old)
				}
			}
			n := int64(len(v1.Pages))
			cost := impl.Cost()
			metas[proto] = core.PADMeta{
				ID: "pad-" + proto, Protocol: proto, Size: 20 * 1024,
				Overhead: core.PADOverhead{
					ServerCompStd: cost.ServerTime(content / n),
					ClientCompStd: cost.ClientTime(content / n),
					TrafficBytes:  traffic / n,
					UpstreamBytes: upstream / n,
				},
			}
			out.Bytes[class.Name][proto] = (traffic + upstream) / n
		}
		for _, st := range netsim.Stations() {
			env := EnvFor(st)
			best, bestTotal := "", -1.0
			for _, proto := range protos {
				b, err := model.PADTotal(metas[proto], env)
				if err != nil {
					return PremiseResult{}, err
				}
				if total := b.Total(); bestTotal < 0 || total < bestTotal {
					best, bestTotal = proto, total
				}
			}
			out.Cells = append(out.Cells, PremiseCell{
				Class: class.Name, Station: st.Device.Name, Winner: best, TotalSec: bestTotal,
			})
		}
	}
	return out, nil
}

// DistinctWinners returns the set size of protocols that win at least one
// cell.
func (r PremiseResult) DistinctWinners() int {
	set := map[string]bool{}
	for _, c := range r.Cells {
		set[c.Winner] = true
	}
	return len(set)
}

// Render renders the winner matrix.
func (r PremiseResult) Render() []string {
	rows := []string{"document_class\tstation\twinner\ttotal_time"}
	for _, c := range r.Cells {
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s", c.Class, c.Station, c.Winner, secs(c.TotalSec)))
	}
	rows = append(rows, fmt.Sprintf("distinct winners: %d (premise requires > 1)", r.DistinctWinners()))
	return rows
}
