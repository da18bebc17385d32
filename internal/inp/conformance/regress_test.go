package conformance

import "testing"

// Wire-state bugs the conformance model flushed out, pinned as shrunk
// model-derived traces. Each trace made CheckTrace fail against the
// pre-fix inp.Conn and must stay green forever after. Bug 2, a rejected
// frame flipping the connection's body encoding, went away with the
// second encoding.

// Bug 1: Conn.Queue consumed a sequence number even when encoding the
// body failed, so the first frame after a failed staging attempt went
// out with seq N+2 and the server dropped the session at the gate. The
// spec says a failed Queue is invisible on the wire.
func TestRegressionQueueFailureBurnsNoSeq(t *testing.T) {
	ss := bothStacks(t)
	tr := Trace{Target: TargetProxy, Steps: []Step{
		{Op: OpQueueBad},
		{Op: OpInitBurst},
	}}
	if err := CheckTrace(ss, tr); err != nil {
		t.Fatalf("queue-failure trace diverges:\n%v%v", tr, err)
	}
}

// Bug 3: SetTimeout(0) left a previously armed absolute deadline on the
// socket, so a conn reconfigured to wait indefinitely still failed at a
// stale wall-clock instant. The delayed reply here arrives well after
// the old deadline would have fired; a conforming conn waits for it.
func TestRegressionSetTimeoutZeroDisarms(t *testing.T) {
	ss := bothStacks(t)
	tr := Trace{Target: TargetApp, Steps: []Step{
		{Op: OpSetTimeout, Ms: 250},
		{Op: OpAppReq},
		{Op: OpSetTimeout, Ms: 0},
		{Op: OpAppReq, Muts: []Mutation{{Kind: MutInDelay, Ms: 600}}},
	}}
	if err := CheckTrace(ss, tr); err != nil {
		t.Fatalf("stale-deadline trace diverges:\n%v%v", tr, err)
	}
}
