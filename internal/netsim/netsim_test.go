package netsim

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockRunsEventsInOrder(t *testing.T) {
	c := NewVirtualClock()
	var order []int
	c.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	c.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	c.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	end := c.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

func TestVirtualClockTieBreakPreservesScheduleOrder(t *testing.T) {
	c := NewVirtualClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal timestamps)", i, v, i)
		}
	}
}

func TestVirtualClockNestedScheduling(t *testing.T) {
	c := NewVirtualClock()
	var fired []time.Duration
	c.Schedule(time.Second, func() {
		fired = append(fired, c.Now())
		c.Schedule(2*time.Second, func() { fired = append(fired, c.Now()) })
	})
	end := c.Run()
	if end != 3*time.Second {
		t.Fatalf("end = %v, want 3s", end)
	}
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 3*time.Second {
		t.Fatalf("fired at %v, want [1s 3s]", fired)
	}
}

func TestVirtualClockNegativeDelayClamped(t *testing.T) {
	c := NewVirtualClock()
	ran := false
	c.Schedule(-time.Second, func() { ran = true })
	if end := c.Run(); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
	if !ran {
		t.Fatal("event with negative delay did not run")
	}
}

func TestVirtualClockStepAndPending(t *testing.T) {
	c := NewVirtualClock()
	c.Schedule(time.Millisecond, func() {})
	c.Schedule(2*time.Millisecond, func() {})
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
	if !c.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if c.Pending() != 1 {
		t.Fatalf("pending after step = %d, want 1", c.Pending())
	}
	c.Run()
	if c.Step() {
		t.Fatal("Step returned true on empty queue")
	}
}

func TestSecondsRejectsInvalid(t *testing.T) {
	for _, s := range []float64{-1, -0.001} {
		if _, err := Seconds(s); err == nil {
			t.Errorf("Seconds(%v) accepted negative", s)
		}
	}
	nan := 0.0
	nan = nan / nan // silence constant-division checks
	if _, err := Seconds(nan); err == nil {
		t.Error("Seconds(NaN) accepted")
	}
	if d, err := Seconds(1.5); err != nil || d != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v, %v", d, err)
	}
}

func TestLinkTransferTime(t *testing.T) {
	// 1 MB over effective 0.8*1 Mbps should take ~10 seconds + RTT.
	l := Link{Type: "test", BandwidthKbps: 1000, RTT: 100 * time.Millisecond, Rho: 0.8}
	d, err := l.TransferTime(1000000)
	if err != nil {
		t.Fatal(err)
	}
	want := 10*time.Second + 100*time.Millisecond
	if d != want {
		t.Fatalf("transfer = %v, want %v", d, want)
	}
}

func TestLinkValidation(t *testing.T) {
	cases := []Link{
		{Type: "bw0", BandwidthKbps: 0, Rho: 0.8},
		{Type: "bwneg", BandwidthKbps: -5, Rho: 0.8},
		{Type: "rho0", BandwidthKbps: 100, Rho: 0},
		{Type: "rho2", BandwidthKbps: 100, Rho: 2},
		{Type: "rtt", BandwidthKbps: 100, Rho: 0.5, RTT: -time.Second},
	}
	for _, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("link %q validated but is invalid", l.Type)
		}
	}
	if err := LAN.Validate(); err != nil {
		t.Errorf("standard LAN link invalid: %v", err)
	}
}

func TestLinkTransferNegativeBytes(t *testing.T) {
	if _, err := LAN.TransferTime(-1); err == nil {
		t.Fatal("negative byte count accepted")
	}
}

func TestStandardLinksOrdering(t *testing.T) {
	// Bandwidth ordering LAN > WLAN > Bluetooth must hold, since the case
	// study's protocol selection depends on it.
	if !(LAN.BandwidthKbps > WLAN.BandwidthKbps &&
		WLAN.BandwidthKbps > Bluetooth.BandwidthKbps) {
		t.Fatal("standard link bandwidth ordering broken")
	}
	const size = 135 * 1024
	tLAN, _ := LAN.TransferTime(size)
	tBT, _ := Bluetooth.TransferTime(size)
	if tLAN >= tBT {
		t.Fatalf("LAN transfer %v not faster than Bluetooth %v", tLAN, tBT)
	}
}

func TestDeviceScaleCompute(t *testing.T) {
	// A 1-second job on the 500 MHz reference takes 1.25s on the 400 MHz
	// PDA and 0.25s on the 2 GHz desktop.
	got, err := PDA.Device.ScaleCompute(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1250*time.Millisecond {
		t.Fatalf("PDA scale = %v, want 1.25s", got)
	}
	got, err = Desktop.Device.ScaleCompute(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 250*time.Millisecond {
		t.Fatalf("Desktop scale = %v, want 250ms", got)
	}
}

func TestDeviceValidation(t *testing.T) {
	bad := Device{Name: "bad", CPUMHz: 0, MemMB: 64}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-MHz device validated")
	}
	bad = Device{Name: "bad", CPUMHz: 100, MemMB: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-memory device validated")
	}
	if _, err := bad.ScaleCompute(time.Second); err == nil {
		t.Fatal("ScaleCompute on invalid device succeeded")
	}
	if _, err := Desktop.Device.ScaleCompute(-time.Second); err == nil {
		t.Fatal("negative reference time accepted")
	}
}

func TestStationsMatchPaperPlatform(t *testing.T) {
	ss := Stations()
	if len(ss) != 3 {
		t.Fatalf("got %d stations, want 3", len(ss))
	}
	if ss[0].Device.Name != "Desktop" || ss[0].Link.Type != NetLAN {
		t.Errorf("station 0 = %v/%v, want Desktop/LAN", ss[0].Device.Name, ss[0].Link.Type)
	}
	if ss[1].Device.Name != "Laptop" || ss[1].Link.Type != NetWLAN {
		t.Errorf("station 1 = %v/%v, want Laptop/WLAN", ss[1].Device.Name, ss[1].Link.Type)
	}
	if ss[2].Device.Name != "PDA" || ss[2].Link.Type != NetBluetooth {
		t.Errorf("station 2 = %v/%v, want PDA/Bluetooth", ss[2].Device.Name, ss[2].Link.Type)
	}
	if ss[2].Device.OS != OSWinCE42 {
		t.Errorf("PDA OS = %v, want WinCE4.2", ss[2].Device.OS)
	}
}

func TestSharedServerContention(t *testing.T) {
	srv := SharedServer{Name: "central", UplinkKbps: 10000, Rho: 0.8, BaseRTT: 10 * time.Millisecond}
	// One client on a fast LAN: client link is not the bottleneck at low
	// concurrency; at 300 clients the shared uplink dominates and the
	// retrieval time must grow roughly linearly.
	t1, err := srv.RetrievalTime(50*1024, 1, LAN)
	if err != nil {
		t.Fatal(err)
	}
	t300, err := srv.RetrievalTime(50*1024, 300, LAN)
	if err != nil {
		t.Fatal(err)
	}
	if t300 <= t1 {
		t.Fatalf("contended retrieval %v not slower than solo %v", t300, t1)
	}
	if ratio := t300.Seconds() / t1.Seconds(); ratio < 10 {
		t.Fatalf("contention ratio %v too small; uplink sharing not modeled", ratio)
	}
}

func TestSharedServerClientBottleneck(t *testing.T) {
	// A huge-uplink server: the client's own slow link dominates, so
	// concurrency barely matters (the CDN side of Figure 9(b)).
	srv := SharedServer{Name: "edge", UplinkKbps: 1e6, Rho: 0.8}
	t1, err := srv.RetrievalTime(50*1024, 1, Bluetooth)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := srv.RetrievalTime(50*1024, 10, Bluetooth)
	if err != nil {
		t.Fatal(err)
	}
	if t10 != t1 {
		t.Fatalf("client-bound retrieval changed with concurrency: %v vs %v", t1, t10)
	}
}

func TestSharedServerValidation(t *testing.T) {
	bad := SharedServer{Name: "bad", UplinkKbps: 0, Rho: 0.8}
	if _, err := bad.RetrievalTime(1, 1, LAN); err == nil {
		t.Fatal("zero-uplink server accepted")
	}
	good := SharedServer{Name: "ok", UplinkKbps: 100, Rho: 0.8}
	if _, err := good.RetrievalTime(1, 0, LAN); err == nil {
		t.Fatal("zero concurrency accepted")
	}
	if _, err := good.RetrievalTime(-1, 1, LAN); err == nil {
		t.Fatal("negative size accepted")
	}
	badRho := SharedServer{Name: "rho", UplinkKbps: 100, Rho: 1.5}
	if _, err := badRho.RetrievalTime(1, 1, LAN); err == nil {
		t.Fatal("rho > 1 accepted")
	}
}

// Property: transfer time is monotone non-decreasing in byte count for any
// valid link.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%10_000_000), int64(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		tx, err1 := WLAN.TransferTime(x)
		ty, err2 := WLAN.TransferTime(y)
		return err1 == nil && err2 == nil && tx <= ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a faster device never takes longer than a slower one on the
// same reference workload.
func TestScaleComputeMonotoneProperty(t *testing.T) {
	f := func(mhzA, mhzB uint16, ms uint16) bool {
		a := Device{Name: "a", CPUMHz: float64(mhzA%4000) + 1, MemMB: 64}
		b := Device{Name: "b", CPUMHz: float64(mhzB%4000) + 1, MemMB: 64}
		ref := time.Duration(ms) * time.Millisecond
		ta, err1 := a.ScaleCompute(ref)
		tb, err2 := b.ScaleCompute(ref)
		if err1 != nil || err2 != nil {
			return false
		}
		if a.CPUMHz >= b.CPUMHz {
			return ta <= tb
		}
		return ta >= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkLossRate(t *testing.T) {
	clean := Link{Type: "t", BandwidthKbps: 1000, Rho: 0.8}
	lossy := clean
	lossy.LossRate = 0.5
	tc, err := clean.TransferTime(100000)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := lossy.TransferTime(100000)
	if err != nil {
		t.Fatal(err)
	}
	if tl != 2*tc {
		t.Fatalf("50%% loss transfer %v, want double the clean %v", tl, tc)
	}
	bad := clean
	bad.LossRate = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("loss rate 1 accepted")
	}
	bad.LossRate = -0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative loss accepted")
	}
	// Standard links remain clean by default.
	if Bluetooth.LossRate != 0 {
		t.Fatal("standard link has nonzero loss")
	}
}

// logNBound is the per-operation move envelope of a 4-ary heap holding at
// most n elements: ceil(log4 n) levels plus slack for the root/leaf edges.
func logNBound(n int) uint64 {
	if n < 2 {
		return 2
	}
	levels := (bits.Len(uint(n-1)) + 1) / 2 // ceil(log4 n)
	return uint64(levels + 2)
}

// TestVirtualClockHeapDiscipline verifies the clock's inlined heap keeps
// the same stable (timestamp, schedule-order) execution order as the old
// container/heap implementation, and stays within the O(log n) move
// envelope under a large schedule.
func TestVirtualClockHeapDiscipline(t *testing.T) {
	const n = 100000
	run := func(seed int64) ([]int, uint64) {
		rng := rand.New(rand.NewSource(seed))
		c := NewVirtualClock()
		order := make([]int, 0, n)
		for i := 0; i < n; i++ {
			i := i
			c.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		c.Run()
		return order, c.moves
	}
	a, movesA := run(11)
	b, _ := run(11)
	if len(a) != n || len(b) != n {
		t.Fatalf("executed %d/%d events, want %d", len(a), len(b), n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	bound := uint64(2*n) * logNBound(n)
	if movesA > bound {
		t.Fatalf("%d schedule+run ops did %d moves, above envelope %d", 2*n, movesA, bound)
	}
}
