package netsim

import (
	"fmt"
	"time"
)

// OSType identifies a client operating system, one axis of the paper's
// normalized ratio matrix B.
type OSType string

// CPUType identifies a processor family, one axis of matrix A. The paper's
// platform uses P (Intel PXA255), D (Pentium IV 2.0 GHz), L (Pentium IV
// 3.06 GHz).
type CPUType string

// Operating systems and processors from the paper's platform (Figure 7)
// plus the motivating WinMedia/Kinoma example (Section 3.4.2).
const (
	OSWinCE42     OSType = "WinCE4.2"
	OSFedoraCore2 OSType = "FedoraCore2"

	CPUPXA255 CPUType = "PXA255"
	CPUP4     CPUType = "PentiumIV"
)

// StdCPUMHz is the reference processor speed of the paper's linear model:
// "a standard processor speed, Std_cpu, 500MHz Pentium IV in our
// implementation".
const StdCPUMHz = 500.0

// Device describes a client host's hardware and software, the source of the
// client's DevMeta during negotiation.
type Device struct {
	Name   string
	CPU    CPUType
	CPUMHz float64
	MemMB  int
	OS     OSType
}

// Validate reports whether the device parameters are usable.
func (d Device) Validate() error {
	if d.CPUMHz <= 0 {
		return fmt.Errorf("netsim: device %q: CPU speed must be positive, got %v", d.Name, d.CPUMHz)
	}
	if d.MemMB <= 0 {
		return fmt.Errorf("netsim: device %q: memory must be positive, got %d", d.Name, d.MemMB)
	}
	return nil
}

// ScaleCompute converts a compute cost measured on the standard 500 MHz
// reference processor into this device's simulated cost using the paper's
// linear model: cost scales inversely with clock speed.
func (d Device) ScaleCompute(refStd time.Duration) (time.Duration, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if refStd < 0 {
		return 0, fmt.Errorf("netsim: negative reference compute time %v", refStd)
	}
	return Seconds(refStd.Seconds() * StdCPUMHz / d.CPUMHz)
}

// Station is a client endpoint: a device attached to a link. The three
// stations of the paper's platform are predeclared below.
type Station struct {
	Device Device
	Link   Link
}

// The paper's three client configurations (Figure 7).
var (
	Desktop = Station{
		Device: Device{Name: "Desktop", CPU: CPUP4, CPUMHz: 2000, MemMB: 512, OS: OSFedoraCore2},
		Link:   LAN,
	}
	Laptop = Station{
		Device: Device{Name: "Laptop", CPU: CPUP4, CPUMHz: 3060, MemMB: 512, OS: OSFedoraCore2},
		Link:   WLAN,
	}
	PDA = Station{
		Device: Device{Name: "PDA", CPU: CPUPXA255, CPUMHz: 400, MemMB: 64, OS: OSWinCE42},
		Link:   Bluetooth,
	}
)

// Stations returns the paper's three client configurations in evaluation
// order: Desktop-LAN, Laptop-WLAN, PDA-Bluetooth.
func Stations() []Station { return []Station{Desktop, Laptop, PDA} }

// ServerDevice is the application server host: the paper uses a Pentium IV
// 2.0 GHz Fedora Core 2 machine for both the application server and the
// adaptation proxy.
var ServerDevice = Device{Name: "Server", CPU: CPUP4, CPUMHz: 2000, MemMB: 1024, OS: OSFedoraCore2}
