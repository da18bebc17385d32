package conformance

// Shrink greedily minimizes a failing trace to a counterexample a human
// can read: drop whole steps, then drop individual mutations, keeping each
// simplification that still fails.
// budget bounds candidate evaluations — each one replays the candidate on
// every stack — so shrinking a pathological failure stays cheap.
func Shrink(tr Trace, failing func(Trace) bool, budget int) Trace {
	cur := tr.clone()
	for improved := true; improved && budget > 0; {
		improved = false
		for i := 0; i < len(cur.Steps) && budget > 0; i++ {
			cand := cur.clone()
			cand.Steps = append(cand.Steps[:i], cand.Steps[i+1:]...)
			budget--
			if failing(cand) {
				cur = cand
				improved = true
				i--
			}
		}
		for i := 0; i < len(cur.Steps) && budget > 0; i++ {
			for j := 0; j < len(cur.Steps[i].Muts) && budget > 0; j++ {
				cand := cur.clone()
				cand.Steps[i].Muts = append(cand.Steps[i].Muts[:j], cand.Steps[i].Muts[j+1:]...)
				budget--
				if failing(cand) {
					cur = cand
					improved = true
					j--
				}
			}
		}
	}
	return cur
}
